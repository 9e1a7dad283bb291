"""Equilibrium structure and normal modes of a linear ion chain.

All chain geometry is handled in dimensionless units: axial positions are
measured in units of the length scale l_z set by the axial confinement, and
Hessian eigenvalues are measured in units of omega_z**2.  Physical frequencies
are recovered as omega = sqrt(eigenvalue) * omega_z.
"""

from typing import NamedTuple

import numpy as np

# CODATA 2022 values in SI units, kept bit for bit so that every derived
# table stays the same
HBAR = 1.0545718176461565e-34  # J s
ATOMIC_MASS = 1.66053906892e-27  # kg
ELEMENTARY_CHARGE = 1.602176634e-19  # C
EPSILON_0 = 8.8541878188e-12  # F/m

_NEWTON_TOL = 1e-13
_NEWTON_MAX_ITER = 200
# solve_equilibrium is checked for every chain of 1 to CHECKED_IONS ions,
# and cli.build_config admits no longer one
CHECKED_IONS = 386


class EquilibriumSolveError(RuntimeError):
    """Equilibrium Newton iteration failed to converge."""


class ChainUnstableError(RuntimeError):
    """Radial confinement too weak: the chain is past the zigzag transition."""


class DegenerateModesError(RuntimeError):
    """Axial Hessian has (near-)degenerate eigenvalues; mode order undefined."""


class TrapConfig(NamedTuple("TrapConfig", [
    ("n_ions", int), ("mass", float), ("omega_x", float), ("omega_y", float), ("omega_z", float)
])):
    """Physical trap parameters: ion number, mass and secular frequencies.

    Frequencies are angular (rad/s).  The trap must confine more tightly in
    the radial directions than axially for a linear chain to exist; that is
    only checked once the modes are solved (see :func:`normal_modes`).  The
    mass and frequencies must be positive, and m omega_z^2, the denominator
    of :func:`length_scale`, a finite positive float: an SI mass or
    frequency that underflows or overflows in it is refused, and so is an
    anisotropy (:attr:`alpha_x`, :attr:`alpha_y`) that is not a finite
    positive float with a finite reciprocal.  A tuple
    checked where it is built; ``_replace`` and ``_make`` skip the
    checks (nothing in the package calls them).
    """

    __slots__ = ()

    def __new__(cls, n_ions, mass, omega_x, omega_y, omega_z):
        self = super().__new__(cls, n_ions, mass, omega_x, omega_y, omega_z)
        if self.n_ions < 1:
            raise ValueError(f"n_ions must be >= 1, got {self.n_ions}")
        if self.mass <= 0:
            raise ValueError("mass must be positive")
        for name in ("omega_x", "omega_y", "omega_z"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        # length_scale's m omega_z^2, squared first as there, but without **,
        # whose float power raises on overflow
        if not 0 < self.mass * (self.omega_z * self.omega_z) < np.inf:
            raise ValueError("mass * omega_z**2, the denominator of the length scale, must be finite and positive")
        # normal_modes divides by each anisotropy
        if not all(0 < alpha < np.inf and 1.0 / alpha < np.inf for alpha in (self.alpha_x, self.alpha_y)):
            raise ValueError("each anisotropy (omega_z/omega)**2 and its reciprocal must be finite and positive")
        return self

    @property
    def alpha_x(self) -> float:
        """Trap anisotropy (omega_z/omega_x)**2, squared without **, whose
        float power raises on overflow."""
        ratio = self.omega_z / self.omega_x
        return ratio * ratio

    @property
    def alpha_y(self) -> float:
        ratio = self.omega_z / self.omega_y
        return ratio * ratio


class NormalModes(NamedTuple):
    """Shared eigensystem of the axial and the two radial Hessians.

    ``lambda_z`` ascends with mode index n (COM first), ``gamma_x``/``gamma_y``
    descend, and column n of the orthogonal matrix ``M`` is the common
    eigenvector of mode n in every direction.  The anisotropies that set the
    radial eigenvalues are the trap's, :attr:`TrapConfig.alpha_x` and
    :attr:`TrapConfig.alpha_y`.  An immutable tuple.
    """

    lambda_z: np.ndarray
    gamma_x: np.ndarray
    gamma_y: np.ndarray
    M: np.ndarray

    @property
    def n_ions(self) -> int:
        return len(self.lambda_z)

    def omega_radial_x(self, omega_z: float) -> np.ndarray:
        return np.sqrt(self.gamma_x) * omega_z


def axial_gradient(u: np.ndarray) -> np.ndarray:
    """Gradient of the dimensionless axial potential
    1/2 sum u_i^2 + sum_{i<j} 1/|u_i - u_j|; zero at equilibrium."""
    d = u[:, None] - u[None, :]
    np.fill_diagonal(d, np.inf)
    return u - np.sum(np.sign(d) / d**2, axis=1)


def solve_equilibrium(n_ions: int) -> np.ndarray:
    """Equilibrium positions of n_ions in the dimensionless axial potential.

    Newton iteration on the gradient, started from a uniformly spaced chain
    whose extent follows the empirical N**0.56 scaling of the minimum ion
    spacing.  Each pass takes the full Newton step and projects it onto the
    antisymmetric chain (u - u[::-1]) / 2, the potential's symmetry under
    u -> -reversed(u), so the result is antisymmetric exactly.  The loop
    stops once the largest gradient entry falls below _NEWTON_TOL or stops
    falling: that entry sums pair forces up to 1/d_min**2, so its rounding
    floor grows with N and exceeds _NEWTON_TOL from about N = 56 on.  There
    is no line search: from this start the full step converges for every N
    up to CHECKED_IONS = 386 within 13 passes and never reorders the chain,
    and halving a step at the rounding floor cannot help.
    EquilibriumSolveError is raised when the result is not strictly
    ascending or its residual exceeds 1e-12 max(1, 1/d_min**2), the floor
    scaled by the largest pair force.
    """
    if n_ions < 1:
        raise ValueError("n_ions must be >= 1")
    idx = np.arange(n_ions) - (n_ions - 1) / 2.0
    u = idx * 2.0 / n_ions**0.56
    prev = np.inf
    for _ in range(_NEWTON_MAX_ITER):
        g = axial_gradient(u)
        res = np.max(np.abs(g))
        if res < _NEWTON_TOL or res >= prev:
            break
        prev = res
        u = u + np.linalg.solve(_axial_hessian(u), -g)
        u = 0.5 * (u - u[::-1])
    else:
        res = np.max(np.abs(axial_gradient(u)))
    d = np.diff(u)
    if not np.all(d > 0) or res > 1e-12 * np.max(1.0 / d**2, initial=1.0):
        raise EquilibriumSolveError(
            f"no equilibrium for N={n_ions}: residual {res:.3e}, "
            f"min spacing {np.min(d):.3e}"
        )
    return u


def length_scale(mass: float, omega_z: float) -> float:
    """Inter-ion length scale l_z = (e^2 / (4 pi eps0 m omega_z^2))^(1/3)."""
    if mass <= 0 or omega_z <= 0:
        raise ValueError("mass and omega_z must be positive")
    coulomb = ELEMENTARY_CHARGE**2 / (4 * np.pi * EPSILON_0)
    return float((coulomb / (mass * omega_z**2)) ** (1.0 / 3.0))


def _axial_hessian(u: np.ndarray) -> np.ndarray:
    d = np.abs(u[:, None] - u[None, :])
    np.fill_diagonal(d, np.inf)
    inv3 = 1.0 / d**3
    v = -2.0 * inv3
    np.fill_diagonal(v, 1.0 + 2.0 * np.sum(inv3, axis=1))
    return v


def normal_modes(v_z: np.ndarray, alpha_x: float, alpha_y: float) -> NormalModes:
    """Joint eigensystem of the axial Hessian V_z and the radial Hessians.

    Only V_z is diagonalized.  The radial Hessians are never built: the exact
    identity V_(x/y) = (1/alpha + 1/2) I - V_z / 2 (James, Appl. Phys. B 66,
    181 (1998)) gives them V_z's eigenvectors and the eigenvalues
    gamma_n = 1/alpha + 1/2 - lambda_n/2, so the three directions share one
    eigenvector matrix with no ordering ambiguity.  The full radial matrices
    are built only by the test oracles in ``tests/oracles.py``.  Eigenvector
    signs are fixed so each column's largest-magnitude entry is positive.
    """
    lam, m = np.linalg.eigh(v_z)
    gaps = np.diff(lam)
    if len(lam) > 1 and np.min(gaps) < 1e-8 * max(1.0, np.max(np.abs(lam))):
        raise DegenerateModesError(
            f"near-degenerate axial eigenvalues (min gap {np.min(gaps):.3e})"
        )
    m *= np.where(m[np.abs(m).argmax(axis=0), np.arange(m.shape[1])] < 0, -1.0, 1.0)

    gamma_x = 1.0 / alpha_x + 0.5 - 0.5 * lam
    gamma_y = 1.0 / alpha_y + 0.5 - 0.5 * lam
    if gamma_x[-1] <= 0 or gamma_y[-1] <= 0:
        direction = "x" if gamma_x[-1] <= 0 else "y"
        raise ChainUnstableError(
            f"zigzag mode unstable in {direction}: gamma_N = "
            f"{min(gamma_x[-1], gamma_y[-1]):.4e} <= 0"
        )
    return NormalModes(lambda_z=lam, gamma_x=gamma_x, gamma_y=gamma_y, M=m)


def modes_for_trap(trap: TrapConfig) -> tuple[np.ndarray, NormalModes]:
    """The equilibrium positions u of the trap's ions and their modes."""
    u = solve_equilibrium(trap.n_ions)
    return u, normal_modes(_axial_hessian(u), trap.alpha_x, trap.alpha_y)

