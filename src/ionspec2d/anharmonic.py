"""Cubic and quartic Coulomb couplings and the effective mode parameters.

The mode-basis tensors D3/D4 are one pair sum over the ions, each pair's
Coulomb derivative at the dimensionless equilibrium positions times the
k-fold outer power of the pair's row in the normal-mode basis, with the
entries that the chain's mirror symmetry forbids set to exactly zero.  Every
effective rate follows from them: the zigzag self-interaction, cross-Kerr
dephasing rates, frequency shifts (fourth order directly, third order via
second-order perturbation theory), and the resonant zigzag-stretch exchange
coupling.  Everything is array code: the second-order shifts are one batched
sum over (spectator x mode, z mode, sign pattern) evaluated on the few probe
states the Kerr fit reads (Marquet, Schmidt-Kaler & James, Appl. Phys. B 76,
199 (2003)), and the RWA census broadcasts the quartic coefficients over
every mode quartet and its 16 sign patterns.

Mode indexing is 0-based everywhere in code: the center-of-mass mode is index
0 and the zigzag/highest axial mode is index N-1; the effective parameters
are (3, N) arrays over (direction x, y, z; mode), the x zigzag at [0, N-1].
Human-readable labels in parameter tables use the conventional 1-based
numbering ("x2" is the second x mode, i.e. index 1), produced only by
:func:`mode_label` when a table is written.
"""

from __future__ import annotations

from functools import reduce
from typing import NamedTuple

import numpy as np

from .crystal import HBAR, NormalModes, TrapConfig, length_scale

GAMMA_MIN = 1e-5  # gamma_zz at or below this ends the 1/gamma_zz expansion


class PerturbativeRegimeError(RuntimeError):
    """gamma_zz too small: the Kerr expansion in 1/gamma_zz is invalid."""


class NearResonanceError(RuntimeError):
    """A perturbation-theory denominator is near zero; use the resonant
    treatment (resonant_coupling) instead."""


class ModeTensors(NamedTuple):
    """Mode-basis coupling tensors D3 (N^3) and D4 (N^4), an immutable tuple."""

    d3: np.ndarray
    d4: np.ndarray


class KerrParams(NamedTuple):
    """One perturbative order's worth of effective Hamiltonian parameters.

    ``omega_si`` is the full self-interaction rate Omega_SI (the tables quote
    Omega_SI/2).  ``delta`` holds the frequency shifts and ``dephasing`` the
    cross-Kerr rates Omega_d with the x zigzag as (3, N) arrays over
    (direction x, y, z; mode), zero where no mode or term exists: the COM
    column and ``dephasing[0, N-1]``, the zigzag itself.  All in rad/s; an
    immutable tuple.
    """

    omega_si: float
    delta: np.ndarray
    dephasing: np.ndarray


class EffectiveParams(NamedTuple):
    """Third-order and fourth-order effective Kerr parameters, an immutable
    tuple; their sum is derived."""

    third: KerrParams
    fourth: KerrParams

    @property
    def effective(self) -> KerrParams:
        """The elementwise sum of the two orders."""
        return KerrParams(
            omega_si=self.third.omega_si + self.fourth.omega_si,
            delta=self.third.delta + self.fourth.delta,
            dephasing=self.third.dephasing + self.fourth.dephasing,
        )


class ResonantCoupling(NamedTuple):
    """Zigzag-stretch exchange rate Omega_T and the detuning
    2 omega_zz - omega_str (rad/s), which vanishes at the N = 3 resonance
    alpha_x = 20/63.  The exchange model (``scenarios.resonance_model``)
    omits the detuning; a ``resonance`` run warns when it exceeds the
    tolerance of the peak labels.  An immutable tuple."""

    omega_t: float
    detuning: float


def mode_label(direction: str, index0: int) -> str:
    """1-based table label for a 0-based mode index ('x', 1) -> 'x2'."""
    return f"{direction}{index0 + 1}"


def mode_tensors(u: np.ndarray, m: np.ndarray) -> ModeTensors:
    """Cubic and quartic Coulomb couplings D3, D4 in the normal-mode basis.

    D_k = sum_{p<q} w_pq E_pq^(x k) over ion pairs, where E_pq = M[p] - M[q]
    is the pair's row in the mode basis and w_pq is (-1)^k / k! times the
    k-th derivative of the pair's Coulomb term 1/|d| at d = u_p - u_q:
    sign(d)/|d|^4 for k = 3 and 1/|d|^5 for k = 4.  Each tensor is one
    matmul over the pairs against the rows of E (x) E.

    All entries with a center-of-mass index (mode 0) vanish because Coulomb
    forces cannot change the crystal's total momentum.  The chain's mirror
    u -> -u flips D3 and keeps D4, and each mode is even or odd under it, so
    the entries whose mode parities forbid them are set to exactly zero
    rather than left at their rounding residue.
    """
    u = np.asarray(u, dtype=float)
    n = len(u)
    p, q = np.triu_indices(n, 1)
    d = u[p] - u[q]
    e = m[p] - m[q]
    ee = (e[:, :, None] * e[:, None, :]).reshape(len(e), -1)
    d3 = ((np.sign(d) / np.abs(d) ** 4)[:, None] * e).T @ ee
    d4 = ((1.0 / np.abs(d) ** 5)[:, None] * ee).T @ ee
    s = np.sign(np.sum(m[::-1] * m, axis=0))  # each mode's mirror parity
    even = np.outer(s, s).ravel() > 0  # the mode pairs of even joint parity
    d3[np.ix_(s > 0, even)] = d3[np.ix_(s < 0, ~even)] = 0.0
    d4[np.ix_(even, ~even)] = d4[np.ix_(~even, even)] = 0.0
    return ModeTensors(d3=d3.reshape((n,) * 3), d4=d4.reshape((n,) * 4))


def anharmonic_prefactor(trap: TrapConfig) -> float:
    """The small expansion parameter z0 / (4 l_z), typically ~1e-3, with the
    axial COM zero-point spread z0 = sqrt(hbar / (2 m omega_z))."""
    z0 = float(np.sqrt(HBAR / (2.0 * trap.mass * trap.omega_z)))
    return z0 / (4.0 * length_scale(trap.mass, trap.omega_z))


def effective_kerr(
    trap: TrapConfig,
    modes: NormalModes,
    tensors: ModeTensors,
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
    if gx[zz] <= GAMMA_MIN:
        raise PerturbativeRegimeError(
            f"gamma_zz = {gx[zz]:.3e} <= {GAMMA_MIN:.1e}; too close to the "
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
    flip is reachable from the vacuum or a single-quantum state.  A D3 entry
    at or below N eps max|D3|, the rounding floor of its pair sum, counts as
    zero: it is not resolved from zero, and its shift would be negligible.
    """
    n = modes.n_ions
    zz = n - 2  # position of the zigzag among the x modes 1..N-1
    gx, lz = modes.gamma_x[1:], modes.lambda_z[1:]
    d3 = tensors.d3[1:, 1:, 1:]
    floor = n * np.finfo(float).eps * np.abs(d3).max()
    g = np.where(np.abs(d3) <= floor, 0.0, d3) * (
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


def resonant_coupling(
    trap: TrapConfig, modes: NormalModes, tensors: ModeTensors
) -> ResonantCoupling:
    """Exchange rate Omega_T between zigzag pairs and stretch quanta.

    Valid at (and near) the anisotropy where 2*omega_zz equals the
    stretch frequency, 20/63 for three ions; the detuning from it is
    returned, not judged here.
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
    return ResonantCoupling(omega_t=float(omega_t), detuning=float(detuning))


def max_nonsecular_ratio(
    trap: TrapConfig, modes: NormalModes, tensors: ModeTensors
) -> float:
    """Largest |coefficient / rotation frequency| of the non-secular terms of
    the quartic x-mode Hamiltonian in the interaction picture.

    Every mode quartet gives 16 ladder-operator products, one per sign
    pattern (+omega_m for a raising, -omega_m for a lowering operator), that
    share the quartet's coefficient 3 kappa omega_z D4 / (gamma^4)^(1/4).
    Terms rotating slower than 1e-9 omega_z are secular and kept by the RWA;
    the ratio is the figure of merit for dropping all the others.  The
    first operator's mode is looped over, and then its sign, so that (2N)^3
    frequencies are held at a time, not (2N)^4.
    """
    n = modes.n_ions
    wz = trap.omega_z
    gx = modes.gamma_x
    scale = 3.0 * anharmonic_prefactor(trap) ** 2 * wz
    rot = np.concatenate([modes.omega_radial_x(wz), -modes.omega_radial_x(wz)])
    gammas, axes = np.ix_(gx, gx, gx), np.ix_(rot, rot, rot)
    best = 0.0
    for m in range(n):
        coeff = np.abs(scale * tensors.d4[m] / reduce(np.multiply, (gx[m], *gammas)) ** 0.25).reshape((1, n) * 3)
        for first in rot[m], rot[m + n]:  # a raising, then a lowering operator
            freq = reduce(np.add, (first, *axes)).reshape((2, n) * 3)
            np.abs(freq, out=freq)
            freq[freq < 1e-9 * wz] = np.inf  # secular terms drop out of the ratio
            best = max(best, float(np.divide(coeff, freq, out=freq).max()))
    return best
