"""Cubic and quartic Coulomb couplings and the effective mode parameters.

Position-basis tensors C3/C4 are one pair sum over the ions, each pair's
Coulomb derivative times (e_p - e_q)^(x k), built from the dimensionless
equilibrium positions; contracting them with the normal-mode matrix gives the
mode-basis tensors D3/D4 from which every effective rate follows: the zigzag
self-interaction, cross-Kerr dephasing rates, frequency shifts (fourth order
directly, third order via second-order perturbation theory), and the resonant
zigzag-stretch exchange coupling.  Everything is array code: the second-order
shifts are one batched sum over (spectator x mode, z mode, sign pattern)
evaluated on the few probe states the Kerr fit reads (Marquet, Schmidt-Kaler
& James, Appl. Phys. B 76, 199 (2003)), and the RWA census broadcasts the
quartic coefficients over every mode quartet and its 16 sign patterns.

Mode indexing is 0-based everywhere in code: the center-of-mass mode is index
0 and the zigzag/highest axial mode is index N-1; the effective parameters
are (3, N) arrays over (direction x, y, z; mode), the x zigzag at [0, N-1].
Human-readable labels in parameter tables use the conventional 1-based
numbering ("x2" is the second x mode, i.e. index 1), produced only by
:func:`mode_label` when a table is written.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import reduce

import numpy as np
from scipy import constants

from .crystal import EquilibriumChain, NormalModes, TrapConfig, length_scale

RESONANT_ANISOTROPY = 20.0 / 63.0  # 2*omega_zz = omega_stretch for N=3


class PerturbativeRegimeError(RuntimeError):
    """gamma_zz too small: the Kerr expansion in 1/gamma_zz is invalid."""


class NearResonanceError(RuntimeError):
    """A perturbation-theory denominator is near zero; use the resonant
    treatment (resonant_coupling / resonant_manifolds) instead."""


@dataclass(frozen=True)
class ModeTensors:
    """Mode-basis coupling tensors D3 (N^3) and D4 (N^4)."""

    d3: np.ndarray
    d4: np.ndarray


@dataclass(frozen=True)
class KerrParams:
    """One perturbative order's worth of effective Hamiltonian parameters.

    ``omega_si`` is the full self-interaction rate Omega_SI (the tables quote
    Omega_SI/2).  ``delta`` holds the frequency shifts and ``dephasing`` the
    cross-Kerr rates Omega_d with the x zigzag as (3, N) arrays over
    (direction x, y, z; mode), zero where no mode or term exists: the COM
    column and ``dephasing[0, N-1]``, the zigzag itself.  All in rad/s.
    """

    omega_si: float
    delta: np.ndarray
    dephasing: np.ndarray


@dataclass(frozen=True)
class EffectiveParams:
    """Third-order, fourth-order and summed effective Kerr parameters."""

    third: KerrParams
    fourth: KerrParams
    effective: KerrParams

    @property
    def omega_si(self) -> float:
        return self.effective.omega_si

    @property
    def delta_omega_zz(self) -> float:
        return self.effective.delta[0, -1]


@dataclass(frozen=True)
class ResonantCoupling:
    """Zigzag-stretch exchange rate and the residual resonance detuning."""

    omega_t: float
    detuning: float
    on_resonance: bool


@dataclass(frozen=True)
class Manifold:
    """Conserved-charge block of the resonant Hamiltonian.

    ``states`` lists (n_str, n_zz) occupation pairs with n_zz + 2*n_str equal
    to ``charge``; ``eigenvalues`` are the block eigenvalues sorted ascending.
    """

    charge: int
    states: list[tuple[int, int]]
    eigenvalues: np.ndarray


def mode_label(direction: str, index0: int) -> str:
    """1-based table label for a 0-based mode index ('x', 1) -> 'x2'."""
    return f"{direction}{index0 + 1}"


def _pair_sum_tensor(chain: EquilibriumChain, k: int) -> np.ndarray:
    """C_k = sum_{p<q} w_pq (e_p - e_q)^(x k) over ion pairs.

    w_pq is (-1)^k / k! times the k-th derivative of the pair's Coulomb term
    1/|d| at d = u_p - u_q: sign(d)/|d|^4 for k = 3 and 1/|d|^5 for k = 4.
    """
    u = np.asarray(chain.u, dtype=float)
    p, q = np.triu_indices(len(u), 1)
    d = u[p] - u[q]
    w = np.sign(d) / np.abs(d) ** 4 if k == 3 else 1.0 / np.abs(d) ** 5
    e = np.eye(len(u))[p] - np.eye(len(u))[q]
    idx = "ijkl"[:k]
    return np.einsum(f"a,{','.join('a' + i for i in idx)}->{idx}", w, *[e] * k, optimize=True)


def c3_tensor(chain: EquilibriumChain) -> np.ndarray:
    """Cubic Coulomb tensor over ion indices, fully symmetric.

    Entries vanish whenever all three indices differ; the remaining cases are
    signed inverse fourth powers of the ion separations.
    """
    return _pair_sum_tensor(chain, 3)


def c4_tensor(chain: EquilibriumChain) -> np.ndarray:
    """Quartic Coulomb tensor, fully symmetric in its four ion indices."""
    return _pair_sum_tensor(chain, 4)


def mode_tensors(c3: np.ndarray, c4: np.ndarray, m: np.ndarray) -> ModeTensors:
    """Contract position-basis tensors into the normal-mode basis.

    All entries with a center-of-mass index (mode 0) vanish because Coulomb
    forces cannot change the crystal's total momentum.
    """
    d3 = np.einsum("ijk,in,jm,kp->nmp", c3, m, m, m, optimize=True)
    d4 = np.einsum("ijkl,in,jm,kp,lq->nmpq", c4, m, m, m, m, optimize=True)
    return ModeTensors(d3=d3, d4=d4)


def tensors_for_chain(chain: EquilibriumChain, modes: NormalModes) -> ModeTensors:
    return mode_tensors(c3_tensor(chain), c4_tensor(chain), modes.M)


def ground_state_spread(trap: TrapConfig) -> float:
    """Axial COM zero-point spread z0 = sqrt(hbar / (2 m omega_z))."""
    return float(np.sqrt(constants.hbar / (2.0 * trap.mass * trap.omega_z)))


def anharmonic_prefactor(trap: TrapConfig) -> float:
    """The small expansion parameter z0 / (4 l_z), typically ~1e-3."""
    return ground_state_spread(trap) / (4.0 * length_scale(trap.mass, trap.omega_z))


def effective_kerr(
    trap: TrapConfig,
    modes: NormalModes,
    tensors: ModeTensors,
    gamma_min: float = 1e-5,
) -> KerrParams:
    """Fourth-order Kerr parameters of the x zigzag mode.

    Keeps the secular terms of the quartic Hamiltonian: the zigzag
    self-interaction (coefficient 36 kappa D4_zzzz / gamma_zz, with
    kappa = (z0/4l_z)^2), the cross-Kerr rates with the other x modes (72),
    the y modes (24) and the z modes (-96), and the frequency shifts each of
    these implies.  The zigzag shift collects the self-interaction plus half
    of every cross-Kerr rate.
    """
    n = modes.n_ions
    zz = n - 1
    gx, gy, lz = modes.gamma_x, modes.gamma_y, modes.lambda_z
    if gx[zz] <= gamma_min:
        raise PerturbativeRegimeError(
            f"gamma_zz = {gx[zz]:.3e} <= {gamma_min:.1e}; too close to the "
            "structural transition for the perturbative expansion"
        )
    kappa = anharmonic_prefactor(trap) ** 2
    wz = trap.omega_z
    d4 = tensors.d4

    omega_si = 36.0 * kappa * wz * d4[zz, zz, zz, zz] / gx[zz]
    x, m = np.arange(1, zz), np.arange(1, n)  # other x modes; every y and z mode but COM
    dephasing = np.zeros((3, n))
    dephasing[0, x] = 72.0 * kappa * wz * d4[x, x, zz, zz] / np.sqrt(gx[x] * gx[zz])
    dephasing[1, m] = 24.0 * kappa * wz * d4[zz, zz, m, m] / np.sqrt(gx[zz] * gy[m])
    dephasing[2, m] = -96.0 * kappa * wz * d4[zz, zz, m, m] / np.sqrt(gx[zz] * lz[m])
    delta = 0.5 * dephasing
    # summed one entry at a time in x, y, z order, as the published tables
    delta[0, zz] = omega_si + 0.5 * sum(dephasing.flat)
    return KerrParams(omega_si=omega_si, delta=delta, dephasing=dephasing)


def _second_order_shifts(
    trap: TrapConfig,
    modes: NormalModes,
    tensors: ModeTensors,
    occ: np.ndarray,
    guard: float = 1e-3,
) -> np.ndarray:
    """Second-order energy shifts E2(n) of the cubic x-mode Hamiltonian for a
    batch of Fock states; everything in units of omega_z.

    Row s of ``occ`` holds the occupations of the x modes 1..N-1, then of the
    z modes 1..N-1.  Only cubic couplings g X_a X_b Z_p with a zigzag index
    among a, b are kept: the other elements do not touch the zigzag dynamics,
    and the published shift tables are defined with this restriction.  For
    a spectator x mode b != zz, both orderings (zz, b) and (b, zz) reach the
    same states and sum into one coefficient G; each of the 8 sign patterns
    s moves n to n + s_zz e_zz + s_b e_b + s_p e_p with |amplitude|^2
    G^2 prod (n + [s > 0]).  For b = zz the patterns move n_zz by +2, -2 or
    0, the two mixed-sign orderings of X_zz^2 adding up to the amplitude
    (2 n_zz + 1).  Every pattern with a nonzero coupling is checked against
    ``guard``: flipping all signs keeps |denominator|, and a pattern or its
    flip is reachable from the vacuum or a single-quantum state.
    """
    n = modes.n_ions
    zz = n - 2  # position of the zigzag among the x modes 1..N-1
    gx, lz = modes.gamma_x[1:], modes.lambda_z[1:]
    d3 = tensors.d3[1:, 1:, 1:]
    g = np.where(np.abs(d3) < 1e-14, 0.0, d3) * (
        3.0 * anharmonic_prefactor(trap)
        / (gx[:, None, None] * gx[None, :, None] * lz[None, None, :]) ** 0.25
    )
    coupling = g[zz] + g[:, zz]  # (b, p)
    coupling[zz] = 0.0
    sign = np.array([1.0, -1.0])  # raise, lower
    rot_x = np.multiply.outer(np.sqrt(gx), sign)  # (b, s_b)
    rot_z = np.multiply.outer(np.sqrt(lz), sign)  # (p, s_p)
    # E_n - E_final over (s_zz, b, s_b, p, s_p) and over (zz move, p, s_p)
    gap = -(rot_x[zz][:, None, None, None, None] + rot_x[:, :, None, None]
            + rot_z[None, None, :, :])
    gap_zz = -(np.array([2.0, -2.0, 0.0])[:, None, None] * rot_x[zz, 0] + rot_z)

    def rates(c2: np.ndarray, denom: np.ndarray) -> np.ndarray:
        c2 = np.broadcast_to(c2, denom.shape)
        near = (c2 != 0) & (np.abs(denom) < guard)
        if near.any():
            p = np.argwhere(near)[0][-2]
            raise NearResonanceError(
                f"second-order denominator {denom[near][0]:.3e} omega_z through "
                f"mode {mode_label('z', p + 1)}; treat this resonance with resonant_coupling"
            )
        return np.divide(c2, denom, out=np.zeros(denom.shape), where=c2 != 0)

    nx, nz = occ[:, : n - 1], occ[:, n - 1 :]
    fx = np.stack([nx + 1, nx], axis=-1)  # (state, b, s_b): |ladder|^2
    fz = np.stack([nz + 1, nz], axis=-1)
    n_zz = nx[:, zz]
    f_zz = np.stack(
        [(n_zz + 1) * (n_zz + 2), n_zz * (n_zz - 1), (2 * n_zz + 1) ** 2], axis=-1
    )
    spectator = np.einsum(
        "zbjpk,sz,sbj,spk->s",
        rates((coupling**2)[:, None, :, None], gap),
        fx[:, zz], fx, fz,
    )
    self_term = np.einsum(
        "tpk,st,spk->s",
        rates((g[zz, zz] ** 2)[:, None], gap_zz),
        f_zz, fz,
    )
    return spectator + self_term


def perturbative_third_order(
    trap: TrapConfig,
    modes: NormalModes,
    tensors: ModeTensors,
    guard: float = 1e-3,
) -> KerrParams:
    """Third-order Kerr parameters from second-order perturbation theory.

    The state-dependent energy shifts of the cubic x-mode Hamiltonian are
    exactly quadratic in the occupation numbers, so evaluating them on the
    states |0>, |1_mu>, |2_mu> and |1_mu 1_zz> determines the Kerr form by an
    exact solve.  Writing the zigzag self term as (Omega_SI/2) n_zz^2, the
    quadratic coefficient gives Omega_SI/2, the bilinear coefficients give the
    dephasing rates, and the linear ones the frequency shifts.  y modes do not
    appear in the x-mode Hamiltonian, so the y rows are exactly zero.
    """
    n = modes.n_ions
    m = 2 * (n - 1)  # x modes 1..N-1, then z modes 1..N-1
    zz = n - 2
    eye = np.eye(m)
    e2 = _second_order_shifts(
        trap, modes, tensors, np.vstack([np.zeros(m), eye, 2 * eye, eye + eye[zz]]), guard
    )
    base, one, two, with_zz = e2[0], e2[1 : m + 1], e2[m + 1 : 2 * m + 1], e2[2 * m + 1 :]
    wz = trap.omega_z
    lin = one - base
    quad = 0.5 * (two - 2.0 * one + base)
    cross = (with_zz - lin - lin[zz] - base) * wz
    cross[zz] = 0.0  # |1_zz 1_zz> is |2_zz>, not a cross term
    # Frequency shifts follow the n^2 writing of the quadratic part, i.e.
    # delta = linear - quadratic coefficient (only the zigzag has a nonzero
    # quadratic part here).  The y rows stay zero.
    delta, dephasing = np.zeros((3, n)), np.zeros((3, n))
    delta[::2, 1:] = ((lin - quad) * wz).reshape(2, n - 1)
    dephasing[::2, 1:] = cross.reshape(2, n - 1)
    return KerrParams(omega_si=float(2.0 * quad[zz] * wz), delta=delta, dephasing=dephasing)


def combine_orders(third: KerrParams, fourth: KerrParams) -> EffectiveParams:
    """Elementwise sum of the two orders, keeping the breakdown."""
    effective = KerrParams(
        omega_si=third.omega_si + fourth.omega_si,
        delta=third.delta + fourth.delta,
        dephasing=third.dephasing + fourth.dephasing,
    )
    return EffectiveParams(third=third, fourth=fourth, effective=effective)


def derive_effective_params(
    trap: TrapConfig, modes: NormalModes, tensors: ModeTensors
) -> EffectiveParams:
    return combine_orders(
        perturbative_third_order(trap, modes, tensors),
        effective_kerr(trap, modes, tensors),
    )


def resonant_coupling(
    trap: TrapConfig,
    modes: NormalModes,
    tensors: ModeTensors,
    anisotropy_window: float = 0.02,
) -> ResonantCoupling:
    """Exchange rate Omega_T between zigzag pairs and stretch quanta.

    Valid at (and near) the anisotropy 20/63 where 2*omega_zz equals the
    stretch frequency; off resonance the returned detuning is annotated with
    a warning rather than an error.
    """
    n = modes.n_ions
    zz, stretch = n - 1, 1
    pref = 3.0 * anharmonic_prefactor(trap) * trap.omega_z
    omega_t = (
        pref
        * tensors.d3[zz, zz, stretch]
        / (modes.gamma_x[zz] ** 2 * modes.lambda_z[stretch]) ** 0.25
    )
    detuning = (
        2.0 * np.sqrt(modes.gamma_x[zz]) - np.sqrt(modes.lambda_z[stretch])
    ) * trap.omega_z
    on_resonance = abs(modes.alpha_x - RESONANT_ANISOTROPY) <= anisotropy_window
    if not on_resonance:
        warnings.warn(
            f"anisotropy {modes.alpha_x:.5f} is outside the resonance window "
            f"around 20/63; detuning {detuning / (2 * np.pi):.1f} Hz",
            stacklevel=2,
        )
    return ResonantCoupling(
        omega_t=float(omega_t), detuning=float(detuning), on_resonance=on_resonance
    )


def max_nonsecular_ratio(
    trap: TrapConfig, modes: NormalModes, tensors: ModeTensors
) -> float:
    """Largest |coefficient / rotation frequency| of the non-secular terms of
    the quartic x-mode Hamiltonian in the interaction picture.

    Every mode quartet gives 16 ladder-operator products, one per sign
    pattern (+omega_m for a raising, -omega_m for a lowering operator), that
    share the quartet's coefficient 3 kappa omega_z D4 / (gamma^4)^(1/4).
    Terms rotating slower than 1e-9 omega_z are secular and kept by the RWA;
    the ratio is the figure of merit for dropping all the others.
    """
    n = modes.n_ions
    wz = trap.omega_z
    gx = modes.gamma_x
    coeff = (
        3.0 * anharmonic_prefactor(trap) ** 2 * wz * tensors.d4
        / reduce(np.multiply, np.ix_(gx, gx, gx, gx)) ** 0.25
    )
    rot = np.concatenate([modes.omega_radial_x(wz), -modes.omega_radial_x(wz)])
    freq = reduce(np.add, np.ix_(rot, rot, rot, rot)).reshape((2, n) * 4)
    np.abs(freq, out=freq)
    freq[freq < 1e-9 * wz] = np.inf  # secular terms drop out of the ratio
    return float(np.divide(np.abs(coeff).reshape((1, n) * 4), freq, out=freq).max())


def resonant_manifolds(omega_t: float, max_quanta: int) -> list[Manifold]:
    """Eigenvalues of the resonant exchange Hamiltonian per conserved charge.

    The charge n_zz + 2 n_str is conserved, so the Hamiltonian is block
    tridiagonal over the manifolds listed here; blocks for charge < 2 are
    trivial (a single state with eigenvalue 0) and are omitted.
    """
    if max_quanta < 2:
        raise ValueError("max_quanta must be >= 2")
    out = []
    for charge in range(2, max_quanta + 1):
        states = [(ns, charge - 2 * ns) for ns in range(charge // 2 + 1)]
        dim = len(states)
        block = np.zeros((dim, dim))
        for i, (ns, nz) in enumerate(states[:-1]):
            # coupling to (ns + 1, nz - 2)
            block[i, i + 1] = block[i + 1, i] = omega_t * np.sqrt(
                nz * (nz - 1) * (ns + 1)
            )
        out.append(
            Manifold(
                charge=charge,
                states=states,
                eigenvalues=np.sort(np.linalg.eigvalsh(block)),
            )
        )
    return out
