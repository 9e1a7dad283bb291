"""Truncated Fock-space operators, displacement pulses and thermal states.

Everything is dense: the registers used here stay small (a few thousand
dimensions at most), and a scan builds these operators a fixed number of
times, independent of its grid, so its time lines and branch contractions
dominate the cost.  Ladder and number operators, thermal states and their
embeddings are real in the Fock basis and built as float64; displacement
pulses, and the states they act on, are complex.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import reduce

import numpy as np


@dataclass(frozen=True)
class FockRegister:
    """Ordered collection of truncated bosonic modes."""

    dims: tuple[int, ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        if len(self.dims) != len(self.labels):
            raise ValueError("dims and labels must have equal length")
        if any(d < 2 for d in self.dims):
            raise ValueError("every mode needs dimension >= 2")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("mode labels must be unique")

    @property
    def dim(self) -> int:
        return int(np.prod(self.dims))

    @property
    def n_modes(self) -> int:
        return len(self.dims)


def destroy(dim: int) -> np.ndarray:
    """Annihilation operator with the standard sqrt(n) matrix elements."""
    if dim < 2:
        raise ValueError("dim must be >= 2")
    return np.diag(np.sqrt(np.arange(1, dim)), 1)


def displacement(alpha: complex | np.ndarray, dim: int) -> np.ndarray:
    """D(alpha) = exp(alpha a+ - alpha* a) on the truncated mode, for a
    scalar alpha or each entry of an array of them (shape alpha.shape +
    (dim, dim)), from one real symmetric eigensystem.

    With x = a + a+ = V diag(lambda) V^T (``np.linalg.eigh``, real), and
    S = diag(i^n), i (a+ - a) = S x S^+; a phase rotates the generator,
    G(|alpha| e^(i phi)) = e^(i phi n) G(|alpha|) e^(-i phi n).  So
    D(alpha) = P V diag(exp(-i |alpha| lambda)) V^T P^* with
    P = diag(e^(i theta n)), theta = arg(alpha) + pi/2: unitary to rounding
    on the truncated space.  Truncation makes D only approximate the
    displacement of the infinite mode; it is accurate while the displaced
    state stays well inside the register, so a warning is raised when
    3 |alpha|^2 exceeds the dimension.
    """
    alpha = np.asarray(alpha)
    if 3.0 * np.max(np.abs(alpha), initial=0.0) ** 2 > dim:
        warnings.warn(
            f"displacement alpha={alpha} is large for dim={dim}; "
            "truncation error may be significant",
            stacklevel=2,
        )
    a = destroy(dim)
    lam, vec = np.linalg.eigh(a + a.T)
    p = np.exp(1j * (np.angle(alpha)[..., None] + 0.5 * np.pi) * np.arange(dim))
    rotated = (vec * np.exp(-1j * np.abs(alpha)[..., None, None] * lam)) @ vec.T
    return p[..., :, None] * rotated * p[..., None, :].conj()


def thermal_populations(nbar: float, dim: int) -> tuple[np.ndarray, float]:
    """Truncated thermal populations and the probability kept by the truncation.

    The geometric distribution p_n ~ (nbar/(1+nbar))^n is renormalized on the
    first ``dim`` levels; the returned kept probability, 1 - (nbar/(1+nbar))^dim,
    is the weight the untruncated state puts on those levels.
    """
    if nbar < 0:
        raise ValueError("nbar must be >= 0")
    ratio = nbar / (1.0 + nbar)
    weights = ratio ** np.arange(dim) / (1.0 + nbar)
    kept = float(weights.sum())
    return weights / kept, kept


def thermal_state(nbar: float, dim: int) -> tuple[np.ndarray, float]:
    """Truncated thermal density matrix, diagonal in the Fock basis, and the
    probability kept by the truncation (see :func:`thermal_populations`)."""
    pops, kept = thermal_populations(nbar, dim)
    return np.diag(pops), kept


def embed(op: np.ndarray, slot: int, register: FockRegister) -> np.ndarray:
    """Tensor the single-mode operator with identities on the other slots."""
    if not 0 <= slot < register.n_modes:
        raise IndexError(f"slot {slot} out of range for {register.n_modes} modes")
    if op.shape != (register.dims[slot], register.dims[slot]):
        raise ValueError(
            f"operator shape {op.shape} does not match dim {register.dims[slot]}"
        )
    factors = [op if s == slot else np.eye(d) for s, d in enumerate(register.dims)]
    return reduce(np.kron, factors)


def product_state(states: list[np.ndarray]) -> np.ndarray:
    """Tensor product of per-mode density matrices, in register order."""
    return reduce(np.kron, states)
