"""Equilibrium structure and normal modes of a linear ion chain.

All chain geometry is handled in dimensionless units: axial positions are
measured in units of the length scale l_z set by the axial confinement, and
Hessian eigenvalues are measured in units of omega_z**2.  Physical frequencies
are recovered as omega = sqrt(eigenvalue) * omega_z.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import constants

# 40Ca+ ion mass (kg); electron-mass correction is irrelevant at our tolerances
MASS_CA40 = 39.9625909 * constants.atomic_mass

_NEWTON_TOL = 1e-13
_NEWTON_MAX_ITER = 200


class EquilibriumSolveError(RuntimeError):
    """Equilibrium Newton iteration failed to converge."""


class ChainUnstableError(RuntimeError):
    """Radial confinement too weak: the chain is past the zigzag transition."""


class DegenerateModesError(RuntimeError):
    """Axial Hessian has (near-)degenerate eigenvalues; mode order undefined."""


@dataclass(frozen=True)
class TrapConfig:
    """Physical trap parameters: ion number, mass and secular frequencies.

    Frequencies are angular (rad/s).  The trap must confine more tightly in
    the radial directions than axially for a linear chain to exist; that is
    only checked once the modes are solved (see :func:`normal_modes`).
    """

    n_ions: int
    mass: float
    omega_x: float
    omega_y: float
    omega_z: float

    def __post_init__(self):
        if self.n_ions < 1:
            raise ValueError(f"n_ions must be >= 1, got {self.n_ions}")
        if self.mass <= 0:
            raise ValueError("mass must be positive")
        for name in ("omega_x", "omega_y", "omega_z"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    @property
    def alpha_x(self) -> float:
        """Trap anisotropy (omega_z/omega_x)**2."""
        return (self.omega_z / self.omega_x) ** 2

    @property
    def alpha_y(self) -> float:
        return (self.omega_z / self.omega_y) ** 2


@dataclass(frozen=True)
class EquilibriumChain:
    """Dimensionless equilibrium positions u (ascending), in units of l_z."""

    u: np.ndarray

    @property
    def n_ions(self) -> int:
        return len(self.u)


@dataclass(frozen=True)
class NormalModes:
    """Shared eigensystem of the three Hessians.

    ``lambda_z`` ascends with mode index n (COM first), ``gamma_x``/``gamma_y``
    descend, and column n of the orthogonal matrix ``M`` is the common
    eigenvector of mode n in every direction.
    """

    lambda_z: np.ndarray
    gamma_x: np.ndarray
    gamma_y: np.ndarray
    M: np.ndarray
    alpha_x: float
    alpha_y: float

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

    Damped Newton iteration on the gradient, started from a uniformly spaced
    chain whose extent follows the empirical N**0.56 scaling of the minimum
    ion spacing.  The result is sorted ascending and antisymmetric about 0.
    """
    if n_ions < 1:
        raise ValueError("n_ions must be >= 1")
    if n_ions == 1:
        return np.zeros(1)

    idx = np.arange(n_ions) - (n_ions - 1) / 2.0
    u = idx * 2.0 / n_ions**0.56
    for _ in range(_NEWTON_MAX_ITER):
        g = axial_gradient(u)
        res = np.max(np.abs(g))
        if res < _NEWTON_TOL:
            break
        step = np.linalg.solve(_axial_hessian(u), -g)
        # Damp until the step keeps the ordering and reduces the residual.
        scale = 1.0
        for _ in range(60):
            trial = u + scale * step
            if np.all(np.diff(trial) > 0):
                if np.max(np.abs(axial_gradient(trial))) < res or scale < 1e-6:
                    break
            scale *= 0.5
        u = u + scale * step
    else:
        raise EquilibriumSolveError(
            f"no convergence for N={n_ions}: residual {res:.3e}"
        )

    # The potential is symmetric under u -> -reversed(u); project onto the
    # antisymmetric solution and polish once more.
    u = 0.5 * (u - u[::-1])
    u = u + np.linalg.solve(_axial_hessian(u), -axial_gradient(u))
    u = 0.5 * (u - u[::-1])
    if np.max(np.abs(axial_gradient(u))) > 1e-12:
        raise EquilibriumSolveError(
            f"polish failed for N={n_ions}: residual "
            f"{np.max(np.abs(axial_gradient(u))):.3e}"
        )
    return u


def length_scale(mass: float, omega_z: float) -> float:
    """Inter-ion length scale l_z = (e^2 / (4 pi eps0 m omega_z^2))^(1/3)."""
    if mass <= 0 or omega_z <= 0:
        raise ValueError("mass and omega_z must be positive")
    coulomb = constants.e**2 / (4 * np.pi * constants.epsilon_0)
    return float((coulomb / (mass * omega_z**2)) ** (1.0 / 3.0))


def solve_chain(trap: TrapConfig) -> EquilibriumChain:
    """Convenience wrapper: the equilibrium positions of the trap's ions."""
    return EquilibriumChain(u=solve_equilibrium(trap.n_ions))


def _axial_hessian(u: np.ndarray) -> np.ndarray:
    d = np.abs(u[:, None] - u[None, :])
    np.fill_diagonal(d, np.inf)
    inv3 = 1.0 / d**3
    v = -2.0 * inv3
    np.fill_diagonal(v, 1.0 + 2.0 * np.sum(inv3, axis=1))
    return v


def hessians(
    chain: EquilibriumChain, alpha_x: float, alpha_y: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dimensionless Hessians (V_z, V_x, V_y) at the chain equilibrium.

    The radial Hessians follow from the axial one through the exact identity
    V_(x/y) = (1/alpha + 1/2) I - V_z / 2, which ties all three matrices to a
    common eigenbasis.
    """
    if alpha_x <= 0 or alpha_y <= 0:
        raise ValueError("anisotropies must be positive")
    v_z = _axial_hessian(np.asarray(chain.u, dtype=float))
    n = len(chain.u)
    eye = np.eye(n)
    v_x = (1.0 / alpha_x + 0.5) * eye - 0.5 * v_z
    v_y = (1.0 / alpha_y + 0.5) * eye - 0.5 * v_z
    return v_z, v_x, v_y


def normal_modes(
    v_z: np.ndarray, v_x: np.ndarray, v_y: np.ndarray
) -> NormalModes:
    """Joint eigensystem of the three Hessians.

    Only V_z is diagonalized; the radial eigenvalues come from the closed-form
    identity gamma_n = 1/alpha + 1/2 - lambda_n/2 so that the three directions
    share one eigenvector matrix with no ordering ambiguity.  Eigenvector signs
    are fixed so each column's largest-magnitude entry is positive.
    """
    lam, m = np.linalg.eigh(v_z)
    gaps = np.diff(lam)
    if len(lam) > 1 and np.min(gaps) < 1e-8 * max(1.0, np.max(np.abs(lam))):
        raise DegenerateModesError(
            f"near-degenerate axial eigenvalues (min gap {np.min(gaps):.3e})"
        )
    for n in range(m.shape[1]):
        k = np.argmax(np.abs(m[:, n]))
        if m[k, n] < 0:
            m[:, n] = -m[:, n]

    # Recover (1/alpha + 1/2) from the matrices themselves.
    c_x = v_x[0, 0] + 0.5 * v_z[0, 0]
    c_y = v_y[0, 0] + 0.5 * v_z[0, 0]
    gamma_x = c_x - 0.5 * lam
    gamma_y = c_y - 0.5 * lam
    if gamma_x[-1] <= 0 or gamma_y[-1] <= 0:
        direction = "x" if gamma_x[-1] <= 0 else "y"
        raise ChainUnstableError(
            f"zigzag mode unstable in {direction}: gamma_N = "
            f"{min(gamma_x[-1], gamma_y[-1]):.4e} <= 0"
        )
    return NormalModes(
        lambda_z=lam,
        gamma_x=gamma_x,
        gamma_y=gamma_y,
        M=m,
        alpha_x=1.0 / (c_x - 0.5),
        alpha_y=1.0 / (c_y - 0.5),
    )


def modes_for_trap(trap: TrapConfig) -> tuple[EquilibriumChain, NormalModes]:
    chain = solve_chain(trap)
    v_z, v_x, v_y = hessians(chain, trap.alpha_x, trap.alpha_y)
    return chain, normal_modes(v_z, v_x, v_y)


def critical_anisotropy(n_ions: int) -> float:
    """Anisotropy alpha_x at which the zigzag mode goes soft (gamma_N = 0)."""
    if n_ions < 3:
        raise ValueError("critical anisotropy needs n_ions >= 3")
    u = solve_equilibrium(n_ions)
    lam = np.linalg.eigvalsh(_axial_hessian(u))
    return 2.0 / (lam[-1] - 1.0)
