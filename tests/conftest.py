import os

# one BLAS thread: the suite's matrices are small, and on a two-core machine
# a second OpenBLAS thread makes it about three times slower; a value set by
# the caller still wins
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # after the pin: OpenBLAS reads it when numpy loads
import pytest

from ionspec2d import anharmonic, cli, crystal, scenarios

# the 40Ca+ mass (kg) of every run, from the one place it is declared
MASS_CA40 = cli.RunConfig._field_defaults["mass_amu"] * crystal.ATOMIC_MASS


@pytest.fixture(scope="session")
def table_trap():
    """The reference three-ion trap of the Kerr-scenario simulations."""
    return crystal.TrapConfig(
        n_ions=3,
        mass=MASS_CA40,
        omega_x=2 * np.pi * 3.1012e6,
        omega_y=2 * np.pi * 5e6,
        omega_z=2 * np.pi * 2e6,
    )


@pytest.fixture(scope="session")
def resonance_trap():
    """Trap tuned to the zigzag-stretch resonance, alpha_x = 20/63."""
    wz = 2 * np.pi * 2e6
    return crystal.TrapConfig(
        n_ions=3,
        mass=MASS_CA40,
        omega_x=wz * np.sqrt(63.0 / 20.0),
        omega_y=2 * np.pi * 5e6,
        omega_z=wz,
    )


@pytest.fixture(scope="session")
def table_data(table_trap):
    return scenarios.derive_modes(table_trap)


@pytest.fixture(scope="session")
def resonance_data(resonance_trap):
    return scenarios.derive_modes(resonance_trap)


@pytest.fixture(scope="session")
def table_params(table_data) -> anharmonic.EffectiveParams:
    return scenarios.kerr_parameters(table_data)


KHZ = 2 * np.pi * 1e3
