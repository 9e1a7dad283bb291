"""Assembly of the two reference experiments.

The kerr scenario probes the zigzag self-interaction near the structural
transition: the effective Hamiltonian is diagonal in the product Fock basis,
so the simulation runs one small zigzag-only scan per spectator occupation
(n_y, n_eg) and averages with thermal weights -- this treats the static
dephasing by spectator populations exactly.  The resonance scenario probes
coherent zigzag-stretch energy exchange at anisotropy 20/63 under heating: a
Lindblad model on the two-mode register, whose scan steps the sparse
Liouvillian along the time grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import anharmonic, crystal, dynamics, fock, protocol
from .anharmonic import EffectiveParams, ResonantCoupling
from .crystal import EquilibriumChain, NormalModes, TrapConfig
from .protocol import PulseSequence, SignalGrid

SQRT2 = float(np.sqrt(2.0))
SQRT6 = float(np.sqrt(6.0))


@dataclass(frozen=True)
class ModeData:
    """Everything derived from the trap alone."""

    trap: TrapConfig
    chain: EquilibriumChain
    modes: NormalModes
    tensors: anharmonic.ModeTensors

    @property
    def omega_zz(self) -> float:
        """Nominal (unshifted) zigzag frequency, rad/s."""
        return float(np.sqrt(self.modes.gamma_x[-1]) * self.trap.omega_z)


def derive_modes(trap: TrapConfig) -> ModeData:
    chain, modes = crystal.modes_for_trap(trap)
    return ModeData(
        trap=trap,
        chain=chain,
        modes=modes,
        tensors=anharmonic.tensors_for_chain(chain, modes),
    )


def kerr_parameters(data: ModeData) -> EffectiveParams:
    return anharmonic.derive_effective_params(data.trap, data.modes, data.tensors)


def resonance_parameters(data: ModeData) -> ResonantCoupling:
    return anharmonic.resonant_coupling(data.trap, data.modes, data.tensors)


# ---------------------------------------------------------------------------
# kerr scenario


@dataclass(frozen=True)
class KerrModel:
    """Zigzag Kerr Hamiltonian with two thermal spectator modes.

    Spectators are the y zigzag and the axial Egyptian mode, whose thermal
    occupations shift the zigzag frequency via the cross-Kerr rates.
    """

    omega_si: float
    delta_zz: float
    rate_y: float
    rate_eg: float
    dims: tuple[int, int, int]  # (zz, y zigzag, Egyptian)
    nbar: tuple[float, float, float]

    def zz_hamiltonian(self, n_y: int, n_eg: int) -> np.ndarray:
        """Diagonal zigzag Hamiltonian for fixed spectator occupations."""
        n = np.arange(self.dims[0])
        shift = self.delta_zz + self.rate_y * n_y + self.rate_eg * n_eg
        return np.diag(0.5 * self.omega_si * n * (n - 1) + shift * n).astype(complex)

    def full_register(self) -> fock.FockRegister:
        return fock.FockRegister(dims=self.dims, labels=("zz", "y3", "eg"))

    def full_hamiltonian(self) -> np.ndarray:
        reg = self.full_register()
        n_ops = [
            fock.embed(np.diag(np.arange(d)).astype(complex), s, reg)
            for s, d in enumerate(self.dims)
        ]
        n_zz = n_ops[0]
        h = 0.5 * self.omega_si * (n_zz @ n_zz - n_zz) + self.delta_zz * n_zz
        h += self.rate_y * n_zz @ n_ops[1] + self.rate_eg * n_zz @ n_ops[2]
        return h

    def spectator_weights(self) -> np.ndarray:
        """(dim_y, dim_eg) joint thermal weights, truncated and renormalized."""
        py = np.diag(fock.thermal_state(self.nbar[1], self.dims[1])[0]).real
        pe = np.diag(fock.thermal_state(self.nbar[2], self.dims[2])[0]).real
        return np.outer(py, pe)


def kerr_model_from_params(
    params: EffectiveParams,
    dims: tuple[int, int, int] = (9, 15, 15),
    nbar: tuple[float, float, float] = (1.0, 4.0, 4.0),
) -> KerrModel:
    eff = params.effective
    return KerrModel(
        omega_si=eff.omega_si,
        delta_zz=eff.delta["zz"],
        rate_y=eff.dephasing["y3"],
        rate_eg=eff.dephasing["z3"],
        dims=dims,
        nbar=nbar,
    )


def kerr_scan_fast(
    model: KerrModel,
    seq: PulseSequence,
    t_max: float,
    dt: float,
    threads: int = 1,
) -> SignalGrid:
    """Sector-averaged zigzag scan: exact for the diagonal Hamiltonian.

    Sectors are independent work items; each grid is added to the weighted
    sum as it arrives, in sector order, so the result does not depend on the
    worker count and sector grids are not kept once added.
    """
    reg = fock.FockRegister(dims=(model.dims[0],), labels=("zz",))
    rho0, _ = fock.thermal_state(model.nbar[0], model.dims[0])
    weights = model.spectator_weights()
    sectors = [(ny, ne) for ny in range(model.dims[1]) for ne in range(model.dims[2])]

    def run_sector(sector: tuple[int, int]) -> SignalGrid:
        ny, ne = sector
        m = dynamics.LindbladModel(
            hamiltonian=model.zz_hamiltonian(ny, ne), register=reg
        )
        return protocol.scan(m, rho0, seq, t_max, dt)

    def weighted_sum(grids) -> SignalGrid:
        total = 0.0  # 0.0 + the first sector's array, then += in place
        for (ny, ne), grid in zip(sectors, grids):
            total += weights[ny, ne] * grid.values
        return SignalGrid(t1=grid.t1, t3=grid.t3, values=total)

    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            return weighted_sum(pool.map(run_sector, sectors))
    return weighted_sum(map(run_sector, sectors))


def kerr_scan_full(
    model: KerrModel,
    seq: PulseSequence,
    t_max: float,
    dt: float,
    threads: int = 1,
    prefer: str = "auto",
) -> SignalGrid:
    """Reference path: the full product-register evolution (no averaging).

    Memory grows with (number of grid points) x (register dimension)^2, so
    this is meant for cross-checking the fast path at reduced truncations.
    """
    reg = model.full_register()
    states = [
        fock.thermal_state(model.nbar[s], model.dims[s])[0] for s in range(3)
    ]
    rho0 = fock.product_state(states)
    full = dynamics.LindbladModel(hamiltonian=model.full_hamiltonian(), register=reg)
    return protocol.scan(full, rho0, seq, t_max, dt, threads=threads, prefer=prefer)


# ---------------------------------------------------------------------------
# resonance scenario


def resonance_model(
    omega_t: float,
    dims: tuple[int, int] = (9, 6),
    heating_quanta_per_s: tuple[float, float] = (200.0, 100.0),
) -> dynamics.LindbladModel:
    """Resonant exchange Hamiltonian Omega_T (a_zz^2 c_str+ + h.c.) + heating."""
    reg = fock.FockRegister(dims=dims, labels=("zz", "str"))
    a = fock.embed(fock.destroy(dims[0]), 0, reg)
    c = fock.embed(fock.destroy(dims[1]), 1, reg)
    h = omega_t * (a @ a @ c.conj().T + a.conj().T @ a.conj().T @ c)
    collapse = []
    for slot, rate in enumerate(heating_quanta_per_s):
        collapse.extend(dynamics.heating_dissipator(slot, rate, reg))
    return dynamics.LindbladModel(hamiltonian=h, collapse_ops=collapse, register=reg)


def resonance_initial_state(
    dims: tuple[int, int] = (9, 6), nbar: tuple[float, float] = (0.7, 0.2)
) -> np.ndarray:
    return fock.product_state(
        [fock.thermal_state(nb, d)[0] for nb, d in zip(nbar, dims)]
    )


def predicted_resonance_peaks(
    omega_zz: float, omega_t: float
) -> dict[str, tuple[float, float]]:
    """Peak coordinates relative to the carrier, including mirror images.

    All peaks sit at the carrier (-omega_zz, -omega_zz) displaced by manifold
    eigenvalue combinations of the exchange Hamiltonian; primed labels are the
    point reflections through the carrier.
    """
    w = -omega_zz
    t = abs(omega_t)
    base = {
        "a": (0.0, 0.0),
        "b": (0.0, SQRT2 * t),
        "c": ((SQRT6 - SQRT2) * t, (SQRT6 - SQRT2) * t),
        "d": (SQRT2 * t, SQRT2 * t),
        "e": ((SQRT6 - SQRT2) * t, (4.0 - SQRT6) * t),
        "f": ((SQRT6 + SQRT2) * t, (SQRT6 + SQRT2) * t),
    }
    out = {}
    for label, (x1, x3) in base.items():
        out[label] = (w + x1, w + x3)
        if (x1, x3) != (0.0, 0.0):
            out[label + "'"] = (w - x1, w - x3)
    return out


def label_peaks(
    peaks, predicted: dict[str, tuple[float, float]], tol: float
) -> None:
    """Attach predicted labels to found peaks within ``tol`` (in place)."""
    for label, (w1, w3) in predicted.items():
        best = None
        best_d = tol
        for p in peaks:
            dist = max(abs(p.omega1 - w1), abs(p.omega3 - w3))
            if dist <= best_d:
                best, best_d = p, dist
        if best is not None and not best.label:
            best.label = label


@dataclass
class ScenarioRun:
    """Bundle of the artifacts a scenario produces."""

    grid: SignalGrid
    spectrum: object
    projection_1: object
    projection_3: object
    peaks: object
    derived: dict = field(default_factory=dict)
