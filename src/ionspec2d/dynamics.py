"""Time evolution under time-independent Hamiltonians with optional
Lindblad dissipation; hbar = 1 and all generators are in rad/s.

Scans use ``evolution_lines``: the forward line P^k(rho) and the backward
(Heisenberg) line (P^+)^k(A) of the one-step free evolution P on a uniform
time grid.  Dissipation-free models take both in closed form from one
eigendecomposition of H by ``np.linalg.eigh`` (exact unit vectors when H is
diagonal).  Lindblad models split the Liouvillian into its diagonal
blocks, the connected components of its operator-level coupling pattern
(``liouvillian_blocks``; a conserved charge makes them small; symmetry
reduction of Lindblad generators: Buca & Prosen, New J. Phys. 14, 073007
(2012); Albert & Jiang, Phys. Rev. A 89, 022118 (2014)), gather each
block densely (``liouvillian``) and step it with its one-step map
exp(L_b dt).  Both lines come back in the register basis, Hermitian up
to rounding: a larger anti-Hermitian part raises SignalRealityError.

``build_propagator`` builds exp(L dt) for one fixed step as the dense
exponential of the Liouvillian, exact for closed and open models alike; it
serves single protocol executions (``protocol.run_once``), the independent
oracle the line engine is tested against.  Every matrix exponential is
``expm``, a numpy scaling-and-squaring Pade approximant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .fock import FockRegister, destroy, embed

DEFAULT_MEMORY_BUDGET = 6 * 1024**3  # bytes, the one limit _check_budget applies
TRACE_TOL_PER_STEP = 1e-9
IMAG_TOL = 1e-10


class PropagatorSizeError(MemoryError):
    """A superoperator or a scan's working set would exceed the memory budget."""


class PropagatorAccuracyError(RuntimeError):
    """Trace drift exceeded TRACE_TOL_PER_STEP per step or grid point."""


class SignalRealityError(RuntimeError):
    """A line or a signal acquired a non-negligible imaginary part."""


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

    @cached_property
    def generator(self) -> tuple[np.ndarray, list[tuple[np.ndarray, float]]]:
        """(K, jumps): K = -iH - 1/2 sum_c r c^+ c and the (c, r) pairs with
        r > 0, formed once per model for every block ``liouvillian`` gathers."""
        jumps = [(np.asarray(op), rate) for op, rate in self.collapse_ops if rate > 0]
        k = -1j * np.asarray(self.hamiltonian)
        for c, rate in jumps:
            k -= 0.5 * rate * (c.conj().T @ c)
        return k, jumps


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


# [13/13] Pade coefficients b_0 .. b_13 and the largest 1-norm at which the
# approximant gives exp to double precision (Higham, SIAM J. Matrix Anal.
# Appl. 26, 1179 (2005))
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152


def expm(a: np.ndarray) -> np.ndarray:
    """exp(a) of a square matrix by scaling and squaring (Higham 2005): a is
    scaled by 2^-s until its 1-norm is at most theta_13, the [13/13] Pade
    approximant (V - U)^-1 (V + U) is formed from a^2, a^4 and a^6 (U odd
    and V even in a), and the result is squared s times."""
    norm = float(np.abs(a).sum(axis=0).max(initial=0.0))
    s = max(0, math.ceil(math.log2(norm / _THETA13))) if norm > 0 else 0
    a = a / 2.0**s
    b = _PADE13
    eye = np.eye(a.shape[0], dtype=a.dtype)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
    del a, a2, a4, a6
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


def _map_bytes(b: int) -> int:
    """Upper bound on the bytes held while one b x b step map is built: the
    gather of ``liouvillian`` with its temporaries, then the matrices
    ``expm`` works in, at most 10 b x b complex matrices at a time."""
    return 16 * 10 * b * b


def liouvillian(model: LindbladModel, idx: np.ndarray | None = None) -> np.ndarray:
    """Dense superoperator -i[H, .] + dissipators in row-major vectorization,
    vec(A rho B) = (A kron B^T) vec(rho), restricted to the rows and columns
    ``idx`` (every vec index when None).

    With K = -iH - 1/2 sum_c r c^+ c (``LindbladModel.generator``),
    L = K kron I + I kron conj(K) + sum_c r c kron conj(c), so the entry at
    vec indices (d i + j, d k + l) is K_ik [j = l] + [i = k] conj(K_jl) +
    sum_c r c_ik conj(c_jl), gathered without forming L.
    """
    k, jumps = model.generator
    d = model.dim
    ket, bra = np.divmod(np.arange(d * d) if idx is None else idx, d)
    kets, bras = np.ix_(ket, ket), np.ix_(bra, bra)
    out = k[kets]
    out *= bra[:, None] == bra
    term = k.conj()[bras]
    term *= ket[:, None] == ket
    out += term
    for c, rate in jumps:
        term = c[kets]
        term *= rate
        term *= c.conj()[bras]
        out += term
    return out


def liouvillian_blocks(model: LindbladModel) -> list[np.ndarray]:
    """Index sets of the diagonal blocks of the Liouvillian on the row-major
    vec indices d i + j (ket i, bra j): the connected components of its
    operator-level coupling pattern, each sorted.

    An off-diagonal K_ik != 0 joins (i, j) to (k, j) for every j (ket edges)
    and (j, i) to (j, k) (bra edges); a jump c joins (i, j) to (k, l)
    wherever c_ik c_jl != 0.  No entry of L joins two blocks, so exp(L t)
    acts on each block alone.  A generator with a conserved charge
    (``resonance_model`` conserves Q_ket - Q_bra with Q = n_zz + 2 n_str)
    splits into one block per charge sector or finer; one with none is a
    single block.  Each index's label falls to the least index of its
    component by min-label propagation along the edges with pointer jumping.
    """
    k, jumps = model.generator
    d = model.dim
    rows, cols = np.nonzero(k)
    off = rows != cols
    rows, cols, other = rows[off], cols[off], np.arange(d)
    src = [np.add.outer(rows * d, other), np.add.outer(other * d, rows)]
    dst = [np.add.outer(cols * d, other), np.add.outer(other * d, cols)]
    for c, _ in jumps:
        ci, ck = np.nonzero(c)
        src.append(np.add.outer(ci * d, ci))
        dst.append(np.add.outer(ck * d, ck))
    src = np.concatenate([e.ravel() for e in src])
    dst = np.concatenate([e.ravel() for e in dst])
    labels = np.arange(d * d)
    while True:
        prev = labels.copy()
        low = np.minimum(labels[src], labels[dst])
        for ends in (src, dst, prev[src], prev[dst]):  # the ends and their labels
            np.minimum.at(labels, ends, low)
        while not np.array_equal(jumped := labels[labels], labels):
            labels = jumped
        if np.array_equal(labels, prev):
            break
    _, counts = np.unique(labels, return_counts=True)
    return np.split(np.argsort(labels, kind="stable"), np.cumsum(counts)[:-1])


def build_propagator(model: LindbladModel, dt: float) -> Propagator:
    """exp(L dt) as the dense exponential of the Liouvillian."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    d = model.dim
    _check_budget(_map_bytes(d * d), f"superoperator (dim {d} -> {d * d}^2)")
    return Propagator(step=dt, dim=d, matrix=expm(liouvillian(model) * dt))


def _hermitize(ops: np.ndarray) -> np.ndarray:
    """(X + X^+)/2 over the last two axes of a stack of square matrices, as
    a new C-contiguous array; SignalRealityError when the anti-Hermitian
    part (X - X^+)/2, which would make the signal complex, exceeds
    IMAG_TOL * max(1, max|X|)."""
    out = np.empty(ops.shape, dtype=complex)
    np.conjugate(np.swapaxes(ops, -1, -2), out=out)
    skew = 0.5 * float(np.max(np.abs(out - ops)))
    bound = IMAG_TOL * max(1.0, float(np.max(np.abs(ops))))
    if skew > bound:
        raise SignalRealityError(
            f"imaginary residual: a line's anti-Hermitian part {skew:.2e} exceeds {bound:.2e}"
        )
    out += ops
    out *= 0.5
    return out


def evolution_lines(
    model: LindbladModel,
    state: np.ndarray,
    observables: np.ndarray,
    n: int,
    dt: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Forward and backward lines of the one-step evolution P = exp(L dt).

    Returns ``(forward, covectors)`` in the register basis for grid points
    k = 0 .. n-1:

    - ``forward[k] = P^k(state)``, shape (n, d, d);
    - ``covectors[k, j]`` is the row-major vec of ((P^+)^k(A_j))^T for each
      of the m ``observables`` A_j (the Heisenberg picture), shape
      (n, m, d*d), so that tr[A_j P^k(rho)] = covectors[k, j] @ vec(rho).

    Dissipation-free models use the closed form (no stepping, no drift) in
    the eigenbasis of H, with both lines rotated back once.  Lindblad models
    build P_b = exp(L_b dt) once per block of ``liouvillian_blocks`` (the
    largest map's size checked against the memory budget first) and step
    the forward column with P_b and the covector rows with P_b from the
    right (the transpose) along the grid; a model without a conserved
    charge is one d^2 block, which is correct but slower.  Both lines are
    re-hermitized by ``_hermitize``, which first bounds their anti-Hermitian
    part (SignalRealityError), and a forward trace drift above
    TRACE_TOL_PER_STEP per grid point raises PropagatorAccuracyError.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    d, m = model.dim, len(observables)
    covectors0 = np.swapaxes(observables, 1, 2)  # A^T: tr[A rho] = vec(A^T) . vec(rho)
    if model.dissipative:
        blocks = liouvillian_blocks(model)
        b = max(map(len, blocks))
        _check_budget(_map_bytes(b), f"Liouvillian block map ({b}^2)")
        vec0, cov0 = state.reshape(d * d), covectors0.reshape(m, d * d)
        forward = np.empty((n, d * d), dtype=complex)
        back = np.empty((n, m, d * d), dtype=complex)  # hermitized below
        for idx in blocks:
            step = expm(liouvillian(model, idx) * dt)
            x, y = vec0[idx], cov0[:, idx]  # P_b^k vec0[idx] and cov0[:, idx] P_b^k
            for k in range(n):
                forward[k, idx], back[k][:, idx] = x, y
                x, y = step @ x, y @ step
        forward = forward.reshape(n, d, d)
        back = back.reshape(n, m, d, d)
    else:
        energies, basis = np.linalg.eigh(model.hamiltonian)
        state = basis.conj().T @ state @ basis
        covectors0 = basis.T @ covectors0 @ basis.conj()  # (V^+ A V)^T
        # P^k multiplies rho_ab by exp(-i (E_a - E_b) k dt); P^+ multiplies
        # A_ab by the conjugate phase, i.e. (A^T)_ab by the same phase
        t = np.arange(n) * dt
        phases = np.exp(-1j * t[:, None, None] * (energies[:, None] - energies[None, :]))
        forward = state * phases
        back = covectors0[None] * phases[:, None]
        del phases
        # V X V^+ and, for the transposes, V* X V^T
        forward = basis @ forward @ basis.conj().T
        back = basis.conj() @ back @ basis.T
    forward = _hermitize(forward)
    back = _hermitize(back).reshape(n, m, d * d)
    traces = np.real(np.trace(forward, axis1=1, axis2=2))
    drift = float(np.max(np.abs(traces - traces[0])))
    if drift > TRACE_TOL_PER_STEP * n * max(1.0, abs(traces[0])):
        raise PropagatorAccuracyError(
            f"forward-line trace drift {drift:.2e} over {n} grid points"
        )
    return forward, back


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

