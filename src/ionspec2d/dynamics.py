"""Time evolution under time-independent Hamiltonians with optional
Lindblad dissipation; hbar = 1 and all generators are in rad/s.

Scans use ``evolution_lines``: the forward line P^k(rho) and the backward
(Heisenberg) line (P^+)^k(A) of the one-step free evolution P on a uniform
time grid.  Dissipation-free models take both in closed form from one
eigendecomposition of H (the phases directly when H is diagonal); Lindblad
models step a sparse Liouvillian with ``scipy.sparse.linalg.expm_multiply``
(Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488 (2011)).

``build_propagator`` builds exp(L dt) for one fixed step as the dense
exponential of the Liouvillian, exact for closed and open models alike; it
serves single protocol executions (``protocol.run_once``), the independent
oracle the line engine is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm

from .fock import FockRegister, destroy, embed

DEFAULT_MEMORY_BUDGET = 6 * 1024**3  # bytes, the one limit _check_budget applies
TRACE_TOL_PER_STEP = 1e-9


class PropagatorSizeError(MemoryError):
    """A superoperator or a scan's working set would exceed the memory budget."""


class PropagatorAccuracyError(RuntimeError):
    """Trace drift exceeded TRACE_TOL_PER_STEP per step or grid point."""


@dataclass
class LindbladModel:
    """Hamiltonian (rad/s) plus collapse operators with rates (1/s)."""

    hamiltonian: np.ndarray
    collapse_ops: list[tuple[np.ndarray, float]] = field(default_factory=list)
    register: FockRegister | None = None

    def __post_init__(self):
        h = np.asarray(self.hamiltonian)
        herm = np.max(np.abs(h - h.conj().T))
        if herm > 1e-10 * max(1.0, np.max(np.abs(h))):
            raise ValueError(f"Hamiltonian not Hermitian (residual {herm:.2e})")
        for _, rate in self.collapse_ops:
            if rate < 0:
                raise ValueError("collapse rates must be >= 0")

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]

    @property
    def dissipative(self) -> bool:
        return any(rate > 0 for _, rate in self.collapse_ops)


@dataclass(frozen=True)
class Propagator:
    """exp(L dt) as a dense superoperator on row-major-vectorized density
    matrices."""

    step: float
    dim: int
    matrix: np.ndarray
    kind = "super"  # the one representation; per-kind tracing reads it

    def apply(self, rho: np.ndarray) -> np.ndarray:
        return self.apply_batch(rho[None, :, :])[0]

    def apply_batch(self, states: np.ndarray) -> np.ndarray:
        """Propagate a (batch, dim, dim) stack of density matrices."""
        b, d, _ = states.shape
        out = self.matrix @ states.reshape(b, d * d).T
        return np.ascontiguousarray(out.T).reshape(b, d, d)


def _check_budget(need: int, what: str) -> None:
    """PropagatorSizeError when a working set of ``need`` bytes would exceed
    DEFAULT_MEMORY_BUDGET; called before any operator is built."""
    if need > DEFAULT_MEMORY_BUDGET:
        raise PropagatorSizeError(
            f"{what} needs {need / 1024**3:.1f} GiB, "
            f"budget {DEFAULT_MEMORY_BUDGET / 1024**3:.1f} GiB"
        )


def _is_diagonal(h: np.ndarray) -> bool:
    off = h - np.diag(np.diag(h))
    return np.max(np.abs(off)) <= 1e-12 * max(1.0, np.max(np.abs(h)))


def liouvillian(model: LindbladModel):
    """Sparse (CSR) superoperator -i[H, .] + dissipators, row-major
    vectorization: vec(A rho B) = (A kron B^T) vec(rho)."""
    from scipy import sparse  # lazy: dissipation-free scans never need it

    h = sparse.csr_matrix(model.hamiltonian)
    eye = sparse.identity(model.dim, dtype=complex, format="csr")
    lv = -1j * (sparse.kron(h, eye) - sparse.kron(eye, h.T))
    for op, rate in model.collapse_ops:
        if rate == 0:
            continue
        c = sparse.csr_matrix(op)
        cdc = c.conj().T @ c
        lv = lv + rate * (
            sparse.kron(c, c.conj())
            - 0.5 * (sparse.kron(cdc, eye) + sparse.kron(eye, cdc.T))
        )
    return lv.tocsr()


def build_propagator(model: LindbladModel, dt: float) -> Propagator:
    """exp(L dt) as the dense exponential of the Liouvillian."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    d = model.dim
    _check_budget(16 * d**4, f"superoperator (dim {d} -> {d * d}^2)")
    return Propagator(step=dt, dim=d, matrix=expm(liouvillian(model).toarray() * dt))


def _hermitize(ops: np.ndarray) -> np.ndarray:
    """(X + X^+)/2 over the last two axes of a stack of square matrices, as
    a new C-contiguous array with one temporary-free pass over ``ops``."""
    out = np.empty(ops.shape, dtype=complex)
    np.conjugate(np.swapaxes(ops, -1, -2), out=out)
    out += ops
    out *= 0.5
    return out


def evolution_lines(
    model: LindbladModel,
    state: np.ndarray,
    observables: np.ndarray,
    n: int,
    dt: float,
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Forward and backward lines of the one-step evolution P = exp(L dt).

    Returns ``(basis, forward, covectors)`` for grid points k = 0 .. n-1:

    - ``forward[k] = P^k(state)``, shape (n, d, d);
    - ``covectors[k, j]`` is the row-major vec of ((P^+)^k(A_j))^T for each
      of the m ``observables`` A_j (the Heisenberg picture), shape
      (n, m, d*d), so that tr[A_j P^k(rho)] = covectors[k, j] @ vec(rho);
    - ``basis`` is None when both lines are in the register basis, else the
      unitary V whose columns are eigenvectors of H: every matrix is then
      given as V^+ X V, and operators applied between the lines must be
      rotated the same way.

    Dissipation-free models use the closed form (no stepping, no drift),
    from the diagonal of H directly when H is diagonal; Lindblad
    models use the sparse Liouvillian with ``expm_multiply`` on the grid and
    its transpose for the covectors.  Both lines are re-hermitized, and a
    forward trace drift above TRACE_TOL_PER_STEP per grid point raises
    PropagatorAccuracyError.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    d, m = model.dim, len(observables)
    covectors0 = np.swapaxes(observables, 1, 2)  # A^T: tr[A rho] = vec(A^T) . vec(rho)
    if model.dissipative:
        from scipy.sparse.linalg import expm_multiply  # lazy: ~30 ms of import

        lv = liouvillian(model)
        # expm_multiply needs two grid points; a one-point grid keeps the first
        num = max(n, 2)
        grid = dict(start=0.0, stop=(num - 1) * dt, num=num, endpoint=True)
        basis = None
        forward = expm_multiply(lv, state.reshape(-1), **grid)[:n].reshape(n, d, d)
        back = expm_multiply(lv.T, covectors0.reshape(m, d * d).T, **grid)[:n]
        back = np.moveaxis(back.reshape(n, d, d, m), 3, 1)  # view, hermitized below
    else:
        h = model.hamiltonian
        if _is_diagonal(h):
            energies, basis = np.real(np.diag(h)), None
        else:
            energies, basis = np.linalg.eigh(h)
            state = basis.conj().T @ state @ basis
            covectors0 = basis.T @ covectors0 @ basis.conj()  # (V^+ A V)^T
        # P^k multiplies rho_ab by exp(-i (E_a - E_b) k dt); P^+ multiplies
        # A_ab by the conjugate phase, i.e. (A^T)_ab by the same phase
        t = np.arange(n) * dt
        phases = np.exp(-1j * t[:, None, None] * (energies[:, None] - energies[None, :]))
        forward = state * phases
        back = covectors0[None] * phases[:, None]
    forward = _hermitize(forward)
    back = _hermitize(back).reshape(n, m, d * d)
    traces = np.real(np.trace(forward, axis1=1, axis2=2))
    drift = float(np.max(np.abs(traces - traces[0])))
    if drift > TRACE_TOL_PER_STEP * n * max(1.0, abs(traces[0])):
        raise PropagatorAccuracyError(
            f"forward-line trace drift {drift:.2e} over {n} grid points"
        )
    return basis, forward, back


def heating_dissipator(
    slot: int, rate_ndot: float, register: FockRegister
) -> list[tuple[np.ndarray, float]]:
    """Infinite-temperature heating: sqrt(ndot) a and sqrt(ndot) a+.

    Both jump directions at the same rate give d<n>/dt = ndot independent of
    the occupation, i.e. the mean phonon number grows linearly.
    """
    if rate_ndot < 0:
        raise ValueError("heating rate must be >= 0")
    if rate_ndot == 0:
        return []
    a = embed(destroy(register.dims[slot]), slot, register)
    return [(a, rate_ndot), (a.conj().T, rate_ndot)]

