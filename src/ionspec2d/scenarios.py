"""Assembly of the two reference experiments.

The kerr scenario probes the zigzag self-interaction near the structural
transition: the effective Hamiltonian is diagonal in the product Fock basis,
and the thermal spectator occupations (n_y, n_eg) only shift the zigzag
frequency.  Averaging over them multiplies each Liouville pathway by the
characteristic function of that shift at the pathway's coherence orders, so
the simulation runs one zigzag-only contraction weighted by it, with the
pulses and the observable phase-cycled before it (as in ``protocol.scan``)
-- this treats the static dephasing by spectator populations exactly, and
``kerr_scan_full`` on the product register is its oracle.  The resonance
scenario probes coherent zigzag-stretch energy exchange at anisotropy 20/63
under heating: a Lindblad model on the two-mode register.  Its Liouvillian
conserves Q_ket - Q_bra with Q = n_zz + 2 n_str (the heating jumps shift
ket and bra alike), so its scan steps one small dense map per diagonal
block of the Liouvillian along the time grid.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    Spectators are the y zigzag and the highest axial mode (the Egyptian
    mode at N = 3), entries [1, N-1] and [2, N-1] of the dephasing array,
    whose thermal occupations shift the zigzag frequency.
    """

    omega_si: float
    delta_zz: float
    rate_y: float
    rate_eg: float
    dims: tuple[int, int, int]  # (zz, y zigzag, Egyptian)
    nbar: tuple[float, float, float]

    def zz_hamiltonian(self) -> np.ndarray:
        """Diagonal zigzag self-Kerr Hamiltonian; the frequency shift
        delta_zz is counted with the spectator shifts in ``kerr_scan_fast``."""
        n = np.arange(self.dims[0])
        return np.diag(0.5 * self.omega_si * n * (n - 1)).astype(complex)

    def full_register(self) -> fock.FockRegister:
        return fock.FockRegister(dims=self.dims, labels=("zz", "yzz", "eg"))

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


def kerr_model_from_params(
    params: EffectiveParams,
    dims: tuple[int, int, int] = (9, 15, 15),
    nbar: tuple[float, float, float] = (1.0, 4.0, 4.0),
) -> KerrModel:
    eff = params.effective
    return KerrModel(
        omega_si=eff.omega_si,
        delta_zz=eff.delta[0, -1],
        rate_y=eff.dephasing[1, -1],
        rate_eg=eff.dephasing[2, -1],
        dims=dims,
        nbar=nbar,
    )


def _thermal_characteristic(nbar: float, dim: int, phase: np.ndarray) -> np.ndarray:
    """sum_n p_n exp(-i n phase) over the truncated thermal populations p_n
    of ``fock.thermal_populations``, as the truncated geometric sum
    (1 - q)/(1 - q^D) (1 - x^D)/(1 - x) with q = nbar/(1 + nbar),
    x = q exp(-i phase) and D = dim; it is exactly 1 when nbar = 0, and
    its cost does not depend on D."""
    q = nbar / (1.0 + nbar)
    x = q * np.exp(-1j * phase)
    x_dim = q**dim * np.exp(-1j * dim * phase)
    return (1.0 - q) / (1.0 - q**dim) * (1.0 - x_dim) / (1.0 - x)


def kerr_scan_fast(
    model: KerrModel,
    seq: PulseSequence,
    t_max: float,
    dt: float,
) -> SignalGrid:
    """Sector-averaged zigzag scan: exact for the diagonal Hamiltonian.

    A spectator sector s = (n_y, n_eg) adds sigma_s n_zz to H, with
    sigma_s = delta_zz + rate_y n_y + rate_eg n_eg, and n_zz commutes with
    H and is untouched by the measurement.  So a Liouville pathway whose
    zigzag coherence orders are D1 = a - b during t1 = k1 dt and D3 during
    t3 = k3 dt differs between sectors only by exp(-i sigma_s (D1 k1 +
    D3 k3) dt), and the thermal sector average is the characteristic
    function chi(m) = sum_s w_s exp(-i sigma_s m dt) of the shift, taken at
    m = D1 k1 + D3 k3: inhomogeneous dephasing in the bra/ket pathway
    picture (Mukamel, Principles of Nonlinear Optical Spectroscopy, 1995).
    The weights w_s are a product of the two thermal distributions and the
    shift is a sum, so chi(m) = exp(-i delta_zz m dt) chi_y(m) chi_eg(m),
    each spectator factor a truncated geometric sum in closed form
    (``_thermal_characteristic``): no sector is visited, and the cost does
    not depend on the spectator truncations.

    The pulses and the observable are phase-cycled before contracting
    (``protocol._pulse_set``), so one forward line and the two covector
    lines of the pre-cycled observable's Hermitian parts are built for the
    shift-free Hamiltonian (closed form, re-hermitized with the line
    reality check, trace-drift checked).  The pre-cycled pulse pair acts on
    the forward line one coherence order D1 at a time, giving
    states(k1, D1, y), and per covector order D3 the grid gains
    sum_y sum_D1 chi(D1 k1 + D3 k3) states(k1, D1, y) A(k3, y): one chi
    gather per D3, 2d - 1 in all.  No per-sector line, per-phase signal or
    full phase table is formed, and the working set is checked against the
    memory budget before any operator is built.
    """
    d = model.dims[0]
    n = protocol.grid_points(t_max, dt)
    n_orders = 2 * d - 1
    # upper bound on the bytes held at once: the lines with the temporaries
    # of their closed form and hermitization, the combined and reordered
    # lines, the states by order D1; one order's chi table with its index,
    # partial sums and product; the grid twice; the pre-cycled pulse pair
    need = (
        16 * n * d * d * (12 + n_orders)
        + 8 * n * n * (3 * n_orders + 2 * d + 6)
        + 16 * 4 * d**4
    )
    dynamics._check_budget(need, f"kerr sector scan (dim {d}, {n} grid points)")

    reg = fock.FockRegister(dims=(d,), labels=("zz",))
    zz = dynamics.LindbladModel(hamiltonian=model.zz_hamiltonian(), register=reg)
    rho0, _ = fock.thermal_state(model.nbar[0], d)
    d1, cycled, observables = protocol._pulse_set(zz, seq)
    line, covectors = dynamics.evolution_lines(zz, d1 @ rho0 @ d1.conj().T, observables, n, dt)

    # chi(m) for every m = D1 k1 + D3 k3, |m| <= (d - 1)(2n - 2)
    m_max = (d - 1) * (2 * n - 2)
    m_dt = np.arange(-m_max, m_max + 1) * dt
    chi = (
        np.exp(-1j * model.delta_zz * m_dt)
        * _thermal_characteristic(model.nbar[1], model.dims[1], model.rate_y * m_dt)
        * _thermal_characteristic(model.nbar[2], model.dims[2], model.rate_eg * m_dt)
    )

    # entries (a, b) sorted by coherence order a - b, so each order is a slice
    orders = np.arange(1 - d, d)
    perm = np.argsort(np.subtract.outer(np.arange(d), np.arange(d)), axis=None, kind="stable")
    bounds = np.concatenate([[0], np.cumsum(d - np.abs(orders))])
    slices = [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]
    line = line.reshape(n, d * d)[:, perm]
    covector = (covectors[:, 0] + 1j * covectors[:, 1])[:, perm]  # vec(A(k3)^T), (k3, entry)
    cycled = cycled[np.ix_(perm, perm)]
    states = np.empty((n, n_orders, d * d), dtype=complex)  # (k1, D1, entry)
    for i, cols in enumerate(slices):
        states[:, i, :] = line[:, cols] @ cycled[:, cols].T
    k = np.arange(n)
    base = np.multiply.outer(k, orders) + m_max  # chi index of D1 k1, (k1, D1)
    values = np.zeros((n, n), dtype=complex)  # (k1, k3)
    for o3, cols in zip(orders, slices):
        # chi(D1 k1 + D3 k3) as (k1, k3, D1) times states(k1, D1, entry), one
        # expression so that no order's temporaries outlive it
        values += np.einsum(
            "ije,je->ij",
            chi[base[:, None, :] + o3 * k[None, :, None]] @ states[:, :, cols],
            covector[:, cols],
        )
    t_axis = np.arange(n) * dt
    return SignalGrid(t1=t_axis, t3=t_axis, values=values)


def kerr_scan_full(
    model: KerrModel,
    seq: PulseSequence,
    t_max: float,
    dt: float,
) -> SignalGrid:
    """Reference path: the full product-register evolution (no averaging).

    Memory grows with (number of grid points) x (register dimension)^2, so
    this is the test oracle of ``kerr_scan_fast`` at reduced truncations.
    """
    reg = model.full_register()
    states = [
        fock.thermal_state(model.nbar[s], model.dims[s])[0] for s in range(3)
    ]
    rho0 = fock.product_state(states)
    full = dynamics.LindbladModel(hamiltonian=model.full_hamiltonian(), register=reg)
    return protocol.scan(full, rho0, seq, t_max, dt)


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

