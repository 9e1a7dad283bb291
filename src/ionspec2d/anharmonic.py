"""Cubic and quartic Coulomb couplings and the effective mode parameters.

The mode-basis couplings D3 and D4 are pair sums over the ions, each
pair's Coulomb derivative at the dimensionless equilibrium positions times
the k-fold outer power of the pair's row in the normal-mode basis, with the
entries that the chain's mirror symmetry forbids set to exactly zero
(``_pair_rows`` holds the rows, weights and parities).  Neither is stored:
each reader sums the slice it reads.  The fourth-order Kerr parameters read
the N entries D4[zz, zz, m, m], the second-order shifts the N^2 entries
D3[zz], the exchange coupling one entry of it, and the RWA census the
entries D4[a, a:] of one first mode a at a time, each an (N, N) product of
the pair rows per second mode b >= a.  Every effective rate
follows: the zigzag self-interaction, cross-Kerr dephasing rates, frequency
shifts (fourth order directly, third order via second-order perturbation
theory), and the resonant zigzag-stretch exchange coupling.  Everything is
array code: the second-order shifts are closed forms in the sign-pattern
denominators of each coupling (Marquet, Schmidt-Kaler & James, Appl. Phys.
B 76, 199 (2003)), exactly quadratic in the occupations, so the Kerr
coefficients are read off them term by term; the RWA census broadcasts
each slab's coefficients over the mode triples that follow and their sign
patterns.

Mode indexing is 0-based everywhere in code: the center-of-mass mode is index
0 and the zigzag/highest axial mode is index N-1; the effective parameters
are (3, N) arrays over (direction x, y, z; mode), the x zigzag at [0, N-1].
Human-readable labels in parameter tables use the conventional 1-based
numbering ("x2" is the second x mode, i.e. index 1), produced only by
:func:`mode_label` when a table is written.
"""

from typing import NamedTuple

import numpy as np

from .crystal import HBAR, NormalModes, TrapConfig, length_scale

GAMMA_MIN = 1e-5  # gamma_zz at or below this ends the 1/gamma_zz expansion


class PerturbativeRegimeError(RuntimeError):
    """gamma_zz too small: the Kerr expansion in 1/gamma_zz is invalid."""


class NearResonanceError(RuntimeError):
    """A perturbation-theory denominator is near zero; use the resonant
    treatment (resonant_coupling) instead."""


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


def _pair_rows(u: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, ...]:
    """The terms of the couplings' pair sums: (E, w3, w4, s).

    D3 = sum_{p<q} w3 E^(x 3) and D4 = sum_{p<q} w4 E^(x 4) over the ion
    pairs, where E = M[p] - M[q] is the pair's row in the mode basis and w_k
    is (-1)^k / k! times the k-th derivative of the pair's Coulomb term 1/|d|
    at d = u_p - u_q: w3 = sign(d)/|d|^4 and w4 = 1/|d|^5.  All entries with
    a center-of-mass index (mode 0) vanish because Coulomb forces cannot
    change the crystal's total momentum.  s is each mode's parity (+1 or -1)
    under the chain's mirror u -> -u, which flips D3 and keeps D4, so an
    entry whose modes' parities multiply to +1 (D3) or -1 (D4) vanishes; the
    readers set those to exactly zero rather than leave their rounding
    residue.
    """
    u = np.asarray(u, dtype=float)
    p, q = np.triu_indices(len(u), 1)
    d = u[p] - u[q]
    s = np.sign(np.sum(m[::-1] * m, axis=0))
    return m[p] - m[q], np.sign(d) / np.abs(d) ** 4, 1.0 / np.abs(d) ** 5, s


def _cubic_slice(u: np.ndarray, m: np.ndarray, a: int) -> np.ndarray:
    """D3[a], the (N, N) cubic couplings with first mode a, its
    parity-forbidden entries exactly zero."""
    e, w3, _, s = _pair_rows(u, m)
    d3 = ((w3 * e[:, a])[:, None] * e).T @ e
    d3[np.outer(s[a] * s, s) > 0] = 0.0
    return d3


def _quartic_slices(u: np.ndarray, m: np.ndarray):
    """D4[a, a:] for a = 0 .. N-1 in turn, each (N - a, N, N) over (b, c, d)
    with its parity-forbidden entries exactly zero: for each second mode
    b >= a the (N, N) product E^T diag(w4 E_a E_b) E of the pair rows.  D4
    is symmetric, so these slabs hold every entry once up to the order of
    its first two modes."""
    e, _, w4, s = _pair_rows(u, m)
    n = e.shape[1]
    for a in range(n):
        slab = np.stack([((w4 * e[:, a] * e[:, b])[:, None] * e).T @ e for b in range(a, n)])
        slab[np.multiply.outer(s[a] * s[a:], np.outer(s, s)) < 0] = 0.0
        yield slab


def anharmonic_prefactor(trap: TrapConfig) -> float:
    """The small expansion parameter z0 / (4 l_z), typically ~1e-3, with the
    axial COM zero-point spread z0 = sqrt(hbar / (2 m omega_z))."""
    z0 = float(np.sqrt(HBAR / (2.0 * trap.mass * trap.omega_z)))
    return z0 / (4.0 * length_scale(trap.mass, trap.omega_z))


def effective_kerr(trap: TrapConfig, modes: NormalModes, u: np.ndarray) -> KerrParams:
    """Fourth-order Kerr parameters of the x zigzag mode.

    Keeps the secular terms of the quartic Hamiltonian: the zigzag
    self-interaction (coefficient 36 kappa D4_zzzz / gamma_zz, with
    kappa = (z0/4l_z)^2), the cross-Kerr rates with the other x modes (72),
    the y modes (24) and the z modes (-96), and the frequency shifts each of
    these implies.  The zigzag shift collects the self-interaction plus half
    of every cross-Kerr rate.  It reads the N couplings D4[zz, zz, m, m],
    which parity always allows.
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
    e, _, w4, _ = _pair_rows(u, modes.M)
    d4 = (w4 * e[:, zz] ** 2) @ e**2  # D4[zz, zz, m, m]

    omega_si = 36.0 * kappa * wz * d4[zz] / gx[zz]
    x, m = np.arange(1, zz), np.arange(1, n)  # other x modes; every y and z mode but COM
    dephasing = np.zeros((3, n))
    dephasing[0, x] = 72.0 * kappa * wz * d4[x] / np.sqrt(gx[x] * gx[zz])
    dephasing[1, m] = 24.0 * kappa * wz * d4[m] / np.sqrt(gx[zz] * gy[m])
    dephasing[2, m] = -96.0 * kappa * wz * d4[m] / np.sqrt(gx[zz] * lz[m])
    delta = 0.5 * dephasing
    # summed one entry at a time in x, y, z order, as the published tables
    delta[0, zz] = omega_si + 0.5 * sum(dephasing.flat)
    return KerrParams(omega_si=omega_si, delta=delta, dephasing=dephasing)


def perturbative_third_order(
    trap: TrapConfig, modes: NormalModes, u: np.ndarray, guard: float = 1e-3
) -> KerrParams:
    """Third-order Kerr parameters from second-order perturbation theory.

    Only the cubic couplings g X_a X_b Z_p with a zigzag index among the x
    modes a, b are kept, the (N-1)^2 entries D3[zz, b, p]: the other
    elements do not touch the zigzag dynamics, and the published shift
    tables are defined with this restriction.  In units of omega_z, with
    nu = n + 1/2, the shift E2 = sum_f |<f|V|n>|^2 / (E_n - E_f) of each
    coupling is a closed form, exactly quadratic in the occupations:

    * a spectator x mode b != zz, with G = 2g (both orderings of the one
      symmetric entry): E2 = -G^2/2 (S_zz nu_b nu_p + S_b nu_zz nu_p
      + S_p nu_zz nu_b) + const, where S_m = sum_s s_m / (s . omega) over
      the 8 sign patterns s, or twice the sum over those with s_zz = +1;
    * the zigzag itself, with R+- = 1 / (2 omega_zz +- omega_p):
      E2 = g^2 [-4 nu_zz^2 / omega_p - 4 nu_zz nu_p (R+ + R-)
      - (nu_zz^2 + 3/4)(R+ - R-)].

    Writing the zigzag self term as (Omega_SI/2) n_zz^2, its n_zz^2
    coefficient is Omega_SI/2, the n_zz n_mu coefficients are the dephasing
    rates and the linear ones the frequency shifts.  y modes do not appear
    in the x-mode Hamiltonian, so the y rows are exactly zero.  Every
    denominator of a nonzero coupling is checked against ``guard``:
    |omega_zz +- omega_b +- omega_p|, |2 omega_zz +- omega_p| and omega_p.
    An entry at or below N eps max|D3[zz]|, the rounding floor of its pair
    sum, counts as zero: it is not resolved from zero, and its shift would
    be negligible.
    """
    n = modes.n_ions
    zz = n - 2  # position of the zigzag among the x modes 1..N-1
    gx, lz = modes.gamma_x[1:], modes.lambda_z[1:]
    d3 = _cubic_slice(u, modes.M, n - 1)[1:, 1:]  # D3[zz, b, p]
    floor = n * np.finfo(float).eps * np.abs(d3).max()
    g = np.where(np.abs(d3) <= floor, 0.0, d3) * (
        3.0 * anharmonic_prefactor(trap) / (gx[zz] * gx[:, None] * lz) ** 0.25
    )
    g2, self2 = (2.0 * g) ** 2, g[zz] ** 2  # G^2 over (b, p); g^2 of the self term over p
    g2[zz] = 0.0
    sign = np.array([1.0, -1.0])
    wx, wp = np.multiply.outer(np.sqrt(gx), sign), np.multiply.outer(np.sqrt(lz), sign)
    # the denominators s . omega = E_f - E_n, inf where the coupling is zero:
    # the spectators' with s_zz = +1 over (b, s_b, p, s_p), as s_zz = -1 only
    # negates them, and the self term's (2 omega_zz or 0) + s_p omega_p over
    # (., p, s_p)
    spect = np.where(g2[:, None, :, None] != 0, wx[zz, 0] + wx[:, :, None, None] + wp, np.inf)
    pair = np.where(self2[:, None] != 0, np.array([2.0, 0.0])[:, None, None] * wx[zz, 0] + wp, np.inf)
    for denom in spect, pair:
        near = np.argwhere(np.abs(denom) < guard)
        if len(near):
            at = tuple(near[0])
            raise NearResonanceError(
                f"second-order denominator {-denom[at]:.3e} omega_z through "
                f"mode {mode_label('z', at[-2] + 1)}; treat this resonance with resonant_coupling"
            )
    inv, (r, w) = 1.0 / spect, 1.0 / pair  # r: (R+, R-) over p; w: +-1/omega_p
    s_zz = 2.0 * inv.sum(axis=(1, 3))
    s_b = 2.0 * (inv[:, 0] - inv[:, 1]).sum(axis=-1)
    s_p = 2.0 * (inv[..., 0] - inv[..., 1]).sum(axis=1)
    r_sum = self2 * (r[:, 0] + r[:, 1])
    si_half = float(np.sum(self2 * (-4.0 * w[:, 0] - r[:, 0] + r[:, 1])))
    delta, dephasing = np.zeros((3, n)), np.zeros((3, n))
    dephasing[0, 1:] = -0.5 * (g2 * s_p).sum(axis=1)
    dephasing[2, 1:] = -0.5 * (g2 * s_b).sum(axis=0) - 4.0 * r_sum
    delta[0, 1:] = -0.25 * (g2 * (s_zz + s_p)).sum(axis=1)
    delta[0, n - 1] = -0.25 * np.sum(g2 * (s_b + s_p)) + si_half - 2.0 * r_sum.sum()
    delta[2, 1:] = -0.25 * (g2 * (s_zz + s_b)).sum(axis=0) - 2.0 * r_sum
    wz = trap.omega_z
    return KerrParams(omega_si=2.0 * si_half * wz, delta=delta * wz, dephasing=dephasing * wz)


def resonant_coupling(trap: TrapConfig, modes: NormalModes, u: np.ndarray) -> ResonantCoupling:
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
        * _cubic_slice(u, modes.M, zz)[zz, stretch]
        / (modes.gamma_x[zz] ** 2 * modes.lambda_z[stretch]) ** 0.25
    )
    detuning = (
        2.0 * np.sqrt(modes.gamma_x[zz]) - np.sqrt(modes.lambda_z[stretch])
    ) * trap.omega_z
    return ResonantCoupling(omega_t=float(omega_t), detuning=float(detuning))


def max_nonsecular_ratio(trap: TrapConfig, modes: NormalModes, u: np.ndarray) -> float:
    """Largest |coefficient / rotation frequency| of the non-secular terms of
    the quartic x-mode Hamiltonian in the interaction picture.

    Every mode quartet gives 16 ladder-operator products, one per sign
    pattern (+omega_m for a raising, -omega_m for a lowering operator), that
    share the quartet's coefficient 3 kappa omega_z D4 / (gamma^4)^(1/4).
    Terms rotating slower than 1e-9 omega_z are secular and kept by the RWA;
    the ratio is the figure of merit for dropping all the others.  The
    first operator's mode a is looped over, so that the slab D4[a, a:] and
    its 8 (N - a) N^2 frequencies are held at a time, not D4 and (2N)^4.
    A lowering first operator negates every frequency of the matching
    raising pattern at the same coefficient, so only the raising one is
    walked: 8 of the 16 patterns.  Each unordered pair of first modes is
    visited once, as (a, b >= a): swapping them keeps D4, the product of
    the gammas and each |frequency| bit for bit (a sum is rounded the same
    in either order, and its negation exactly), so the maximum is the same.
    """
    wz = trap.omega_z
    gx, omega = modes.gamma_x, modes.omega_radial_x(wz)
    scale = 3.0 * anharmonic_prefactor(trap) ** 2 * wz
    rot = np.stack([omega, -omega])  # (sign, mode)
    best = 0.0
    for a, d4 in enumerate(_quartic_slices(u, modes.M)):
        coeff = np.abs(scale * d4 / (gx[a] * gx[a:, None, None] * gx[:, None] * gx) ** 0.25)
        # over (sign, b >= a, sign, c, sign, d) for a raising first operator
        freq = omega[a] + rot[:, a:, None, None, None, None] + rot[:, :, None, None] + rot
        np.abs(freq, out=freq)
        freq[freq < 1e-9 * wz] = np.inf  # secular terms drop out of the ratio
        best = max(best, float(np.divide(coeff[:, None, :, None], freq, out=freq).max()))
        del d4, coeff, freq  # one first mode's block held at a time
    return best
