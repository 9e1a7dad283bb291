"""Assembly of the two reference experiments.

The kerr scenario probes the zigzag self-interaction near the structural
transition: the effective Hamiltonian is diagonal in the product Fock basis,
and the thermal spectator occupations (n_y, n_eg) only shift the zigzag
frequency.  Averaging over them multiplies each Liouville pathway by the
characteristic function of that shift at the pathway's coherence orders, so
the simulation is one ``protocol.scan`` of the zigzag-only model with that
function as its chi weight -- this treats the static dephasing by spectator
populations exactly, and ``kerr_scan_full`` on the product register is its
oracle.  The resonance scenario probes coherent zigzag-stretch energy
exchange at anisotropy 20/63 under heating: a Lindblad model on the
two-mode register that declares the conserved charge Q = n_zz + 2 n_str by
its mode weights (1, 2) (the heating jumps shift ket and bra alike).  Its
exchange is written in the frame where -iH is real, so every sector map of
a resonance run is exponentiated in real arithmetic
(``dynamics.LindbladModel.generator``); the diagonal Kerr model has a
complex generator, and its maps are exp of their diagonals.  The charge
also makes the Hamiltonian block diagonal, so ``predicted_peaks`` places
the paper's peaks a-f (``RESONANCE_LETTERS``) from the eigenvalues of the
model's own blocks.

Both scenarios run one engine, ``protocol.scan``, whose lines
(``dynamics.evolution_lines``) step one small dense map per sector of the
charge c = Q_ket - Q_bra along the time grid, only on the sectors the
(1, -1, -1) cycle keeps, c in 1 + 4Z for N_phi = 4 (the zigzag's coherence
order a - b for kerr, with weight 1), plus c = 0 for the trace check and
c = -1, walked from the adjoint starts, for the reality checks, and of
those only the sectors where a line starts nonzero.  The pulses and the
readout act on the zigzag alone, so a start lies in |c| < d_zz: the maps
are the 6 sectors c = -7, -3, -1, 0, 1 and 5 of the 17 at the kerr zigzag
dim 9, and the same 6 of the 37 at resonance dims (9, 6), where 720 of the
2916 vec indices are kept on each line.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import anharmonic, crystal, dynamics, fock, protocol
from .anharmonic import EffectiveParams, ResonantCoupling
from .crystal import NormalModes, TrapConfig
from .protocol import PulseSequence, SignalGrid


@dataclass(frozen=True)
class ModeData:
    """Everything derived from the trap alone."""

    trap: TrapConfig
    modes: NormalModes
    tensors: anharmonic.ModeTensors

    @property
    def omega_zz(self) -> float:
        """Nominal (unshifted) zigzag frequency, rad/s."""
        return float(np.sqrt(self.modes.gamma_x[-1]) * self.trap.omega_z)


def derive_modes(trap: TrapConfig) -> ModeData:
    u, modes = crystal.modes_for_trap(trap)
    tensors = anharmonic.mode_tensors(anharmonic.c3_tensor(u), anharmonic.c4_tensor(u), modes.M)
    return ModeData(trap=trap, modes=modes, tensors=tensors)


def kerr_parameters(data: ModeData) -> EffectiveParams:
    return anharmonic.combine_orders(
        anharmonic.perturbative_third_order(data.trap, data.modes, data.tensors),
        anharmonic.effective_kerr(data.trap, data.modes, data.tensors),
    )


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
        delta_zz is counted with the spectator shifts in the chi weight
        that ``kerr_scan_fast`` passes to ``protocol.scan``."""
        n = np.arange(self.dims[0])
        return np.diag(0.5 * self.omega_si * n * (n - 1))

    def full_hamiltonian(self) -> np.ndarray:
        n_ops = [fock.embed(np.diag(np.arange(d)), s, self.dims) for s, d in enumerate(self.dims)]
        n_zz = n_ops[0]
        h = 0.5 * self.omega_si * (n_zz @ n_zz - n_zz) + self.delta_zz * n_zz
        h += self.rate_y * n_zz @ n_ops[1] + self.rate_eg * n_zz @ n_ops[2]
        return h


def kerr_model_from_params(
    params: EffectiveParams, dims: tuple[int, int, int], nbar: tuple[float, float, float]
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
    of ``fock.thermal_populations``: ``fock.thermal_sum`` over the weight
    the truncation keeps.  It is exactly 1 when nbar = 0, and its cost does
    not depend on D."""
    return fock.thermal_sum(nbar, dim, phase) / fock.thermal_sum(nbar, dim)


def kerr_scan_fast(
    model: KerrModel,
    seq: PulseSequence,
    t_max: float,
    dt: float,
) -> SignalGrid:
    """Sector-averaged zigzag scan: exact for the diagonal Hamiltonian.

    A spectator sector (n_y, n_eg) adds sigma n_zz to H, with sigma =
    delta_zz + rate_y n_y + rate_eg n_eg: a static shift of the zigzag's
    charge n_zz.  So this is ``protocol.scan`` of the zigzag-only model
    (weight 1) with the chi weight exp(-i delta_zz tau) chi_y(tau)
    chi_eg(tau), each spectator factor in closed form
    (``_thermal_characteristic``): no sector is visited, and the cost does
    not depend on the spectator truncations.
    """
    d = model.dims[0]
    # scan's guard, before the d x d zigzag model is built
    protocol.check_scan_budget((1,), (d,), protocol.grid_points(t_max, dt), seq, chi=True)
    zz = dynamics.LindbladModel(hamiltonian=model.zz_hamiltonian(), dims=(d,), charge_weights=(1,))
    return protocol.scan(
        zz, fock.thermal_state(model.nbar[0], d), seq, t_max, dt,
        chi=lambda tau: np.exp(-1j * model.delta_zz * tau)
        * _thermal_characteristic(model.nbar[1], model.dims[1], model.rate_y * tau)
        * _thermal_characteristic(model.nbar[2], model.dims[2], model.rate_eg * tau),
    )


def kerr_scan_full(
    model: KerrModel,
    seq: PulseSequence,
    t_max: float,
    dt: float,
) -> SignalGrid:
    """Reference path: the full product-register evolution (no averaging).

    The product-register H is diagonal, so every basis state is conserved:
    the register declares its mixed-radix basis index as the charge, by the
    weights (d1 d2, d2, 1), and its largest sector holds D vec indices for
    a register of dimension D.  Memory grows with (number of grid
    points) x D^2, so this is the test oracle of ``kerr_scan_fast`` at
    reduced truncations.
    """
    rho0 = fock.product_state([fock.thermal_state(nb, d) for nb, d in zip(model.nbar, model.dims)])
    d1, d2 = model.dims[1:]
    full = dynamics.LindbladModel(
        hamiltonian=model.full_hamiltonian(), dims=model.dims, charge_weights=(d1 * d2, d2, 1)
    )
    return protocol.scan(full, rho0, seq, t_max, dt)


# ---------------------------------------------------------------------------
# resonance scenario


# Q = n_zz + 2 n_str, conserved by the resonance register: the exchange
# trades two zigzag quanta for one stretch quantum
RESONANCE_CHARGE_WEIGHTS = (1, 2)


def resonance_model(
    omega_t: float, dims: tuple[int, int], heating_quanta_per_s: tuple[float, float]
) -> dynamics.LindbladModel:
    """The paper's resonant exchange Omega_T (a_zz^2 c_str+ + h.c.) plus
    heating, with its conserved charge declared (``RESONANCE_CHARGE_WEIGHTS``):
    each heating jump moves Q by the mode's weight.

    The exchange is written in the frame S = diag(i^n_str) on the stretch,
    where S+ c S = i c turns it into -i Omega_T (a_zz^2 c_str+ - a_zz+^2 c_str),
    so that -iH and the generator K = -iH - 1/2 sum r c+ c are real
    (``dynamics.LindbladModel.generator``).  S commutes with everything a
    run applies: the pulses and the readout on slot 0, the product thermal
    start and Q.  The heating dissipator does not see a jump's phase, and
    each charge block of H keeps its eigenvalues, so ``predicted_peaks``
    places the same letters.  An operator acting on the stretch would have
    to be taken into the frame as S+ X S."""
    a = fock.embed(fock.destroy(dims[0]), 0, dims)
    c = fock.embed(fock.destroy(dims[1]), 1, dims)
    h = -1j * omega_t * (a @ a @ c.conj().T - a.conj().T @ a.conj().T @ c)
    collapse = []
    for slot, rate in enumerate(heating_quanta_per_s):
        collapse.extend(dynamics.heating_dissipator(slot, rate, dims))
    return dynamics.LindbladModel(
        hamiltonian=h, collapse_ops=collapse, dims=dims, charge_weights=RESONANCE_CHARGE_WEIGHTS
    )


def resonance_initial_state(dims: tuple[int, int], nbar: tuple[float, float]) -> np.ndarray:
    return fock.product_state([fock.thermal_state(nb, d) for nb, d in zip(nbar, dims)])


# The paper's resonance peaks a-f.  Each letter is a (t1, t3) pair of
# one-quantum transitions (Q, i, j) of the probed mode: from eigenstate j of
# charge block Q to eigenstate i of block Q + w, w the mode's charge weight,
# each block's eigenvalues in ascending order (``predicted_peaks``).  At
# exact resonance the blocks Q = 2, 3, 4 hold (-sqrt2, sqrt2),
# (-sqrt6, sqrt6) and (-4, 0, 4) in units of |Omega_T|.
RESONANCE_LETTERS = {
    "a": ((0, 0, 0), (0, 0, 0)),
    "b": ((0, 0, 0), (1, 0, 0)),
    "c": ((2, 0, 0), (2, 0, 0)),
    "d": ((1, 0, 0), (1, 0, 0)),
    "e": ((2, 0, 0), (3, 0, 0)),
    "f": ((2, 0, 1), (2, 0, 1)),
}


def predicted_peaks(
    model: dynamics.LindbladModel, omega_zz: float, letters: dict
) -> dict[str, tuple[float, float]]:
    """(omega1, omega3) of each letter of ``letters`` (``RESONANCE_LETTERS``
    is the paper's), from the eigenvalues of the model's Hamiltonian block
    by block over its declared charge, which makes it block diagonal.

    The pulses drive register slot 0 (the probed mode of ``protocol``), so
    w is its charge weight, and a transition (Q, i, j) sits at
    -(omega_zz + E(Q + w, i) - E(Q, j)), the carrier shifted by its energy
    change.  A primed letter reverses each eigenvalue order, the point
    reflection through the carrier at exact resonance; it is not listed
    when that names the same transitions (a' is a).  A letter whose blocks
    lack a state (a truncated register) is left out.  The order of
    ``letters`` is kept, each letter before its prime: ``label_peaks``
    gives a shared peak to the first.
    """
    q = model.charge
    levels = {c: np.linalg.eigvalsh(model.hamiltonian[np.ix_(q == c, q == c)]) for c in set(q.tolist())}
    w = model.charge_weights[0]

    def size(c: int) -> int:
        return len(levels.get(c, ()))

    out = {}
    for letter, moves in letters.items():
        mirror = tuple((c, size(c + w) - 1 - i, size(c) - 1 - j) for c, i, j in moves)
        for name, pair in ((letter, moves), (letter + "'", mirror)):
            if (name == letter or pair != moves) and all(
                0 <= i < size(c + w) and 0 <= j < size(c) for c, i, j in pair
            ):
                out[name] = tuple(-omega_zz + (levels[c][j] - levels[c + w][i]) for c, i, j in pair)
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

