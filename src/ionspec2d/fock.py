"""Truncated Fock-space operators, displacement pulses and thermal states.

A register is the tuple of its modes' truncation dims, slot 0 slowest in
the product basis; ``embed`` places a single-mode operator in it.
Everything is dense: the registers used here stay small (a few thousand
dimensions at most), and a scan builds all its pulses in one
``displacement`` call, independent of its grid, so stepping its evolution
lines and contracting them dominate the cost.  Ladder and number
operators, thermal states and their embeddings are real in the Fock basis
and built as float64; displacement pulses, and the states they act on, are
complex.
"""

import warnings
from functools import reduce

import numpy as np


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
    state stays well inside the register, so one warning, naming the
    largest |alpha|, is raised when 3 |alpha|^2 exceeds the dimension.
    """
    alpha = np.asarray(alpha)
    largest = np.max(np.abs(alpha), initial=0.0)
    # capped at dim, which warns as well (3 dim^2 > dim), so that no |alpha|^2 overflows
    if 3.0 * min(largest, dim) ** 2 > dim:
        warnings.warn(
            f"displacement |alpha| = {largest:g} is large for dim = {dim}; truncation error may be significant",
            stacklevel=2,
        )
    a = destroy(dim)
    lam, vec = np.linalg.eigh(a + a.T)
    p = np.exp(1j * (np.angle(alpha)[..., None] + 0.5 * np.pi) * np.arange(dim))
    rotated = (vec * np.exp(-1j * np.abs(alpha)[..., None, None] * lam)) @ vec.T
    return p[..., :, None] * rotated * p[..., None, :].conj()


def thermal_populations(nbar: float, dim: int) -> np.ndarray:
    """Truncated thermal populations: the geometric distribution
    p_n ~ (nbar/(1+nbar))^n renormalized on the first ``dim`` levels, which
    hold the weight 1 - (nbar/(1+nbar))^dim of the untruncated state."""
    if nbar < 0:
        raise ValueError("nbar must be >= 0")
    ratio = nbar / (1.0 + nbar)
    weights = ratio ** np.arange(dim) / (1.0 + nbar)
    return weights / weights.sum()


def thermal_sum(nbar: float, dim: int, phase: float | np.ndarray = 0.0) -> complex | np.ndarray:
    """sum_(n < dim) p_n exp(-i n phase) over the untruncated thermal
    weights p_n = r q^n, with r = 1/(1 + nbar) and q = 1 - r: at phase 0
    the weight a truncation to ``dim`` levels keeps, and over that weight
    the characteristic function of :func:`thermal_populations`.

    The closed form r (1 - q^D e^(-i D phase)) / (1 - q e^(-i phase)) is
    written, with q/r = nbar, as (W - q^D expm1(-i D phase)) /
    (1 - nbar expm1(-i phase)), where W = 1 - q^D = -expm1(D log1p(-r)):
    no term cancels, and no product with r underflows, so the sum stays
    accurate where q rounds to 1 (nbar >= 1e16) and on to r -> 0 (nbar
    1e300 included), and r = 1 (nbar = 0, or nbar so small that 1 + nbar
    rounds to 1) gives exactly 1 (log q = -inf, q^D = 0).  The cost does
    not depend on D.
    """
    r = 1.0 / (1.0 + nbar)
    log_q = np.log1p(-r) if r < 1.0 else -np.inf  # log1p(-1) would warn
    kept, q_dim = -np.expm1(dim * log_q), np.exp(dim * log_q)
    return (kept - q_dim * np.expm1(-1j * dim * phase)) / (1.0 - nbar * np.expm1(-1j * phase))


def thermal_state(nbar: float, dim: int) -> np.ndarray:
    """Truncated thermal density matrix, diagonal in the Fock basis
    (see :func:`thermal_populations`)."""
    return np.diag(thermal_populations(nbar, dim))


def embed(op: np.ndarray, slot: int, dims: tuple[int, ...]) -> np.ndarray:
    """Tensor the single-mode operator with identities on the other slots
    of the register ``dims``."""
    if not 0 <= slot < len(dims):
        raise IndexError(f"slot {slot} out of range for {len(dims)} modes")
    if op.shape != (dims[slot], dims[slot]):
        raise ValueError(f"operator shape {op.shape} does not match dim {dims[slot]}")
    factors = [op if s == slot else np.eye(d) for s, d in enumerate(dims)]
    return reduce(np.kron, factors)


def product_state(states: list[np.ndarray]) -> np.ndarray:
    """Tensor product of per-mode density matrices, in register order."""
    return reduce(np.kron, states)
