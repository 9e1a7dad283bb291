"""Time evolution under time-independent Hamiltonians with optional
Lindblad dissipation; hbar = 1 and all generators are in rad/s.

Scans use ``evolution_lines``: the forward line P^k(rho) and the backward
(Heisenberg) line (P^+)^k(A) of the one-step free evolution P on a uniform
time grid, for every model by one mechanism.  Models hold the dtype they are
given: Hamiltonians and jump operators that are real in the Fock basis stay
float64, while states and lines are complex.  A model's register is its
mode dims (``LindbladModel.dims``), and it declares a conserved charge
Q = sum_s w_s n_s by one integer weight w_s per register mode
(``LindbladModel.charge_weights``); its Liouvillian then keeps
c = Q_ket - Q_bra, and its diagonal blocks are the sectors of c
(``liouvillian_blocks``; symmetry reduction of Lindblad generators: Buca &
Prosen, New J. Phys. 14, 073007 (2012); Albert & Jiang, Phys. Rev. A 89,
022118 (2014)); zero weights give the single sector c = 0.  Each
sector's block is gathered from the formula of the Liouvillian on the
sector's own vec indices idx (``liouvillian``) and stepped with its
one-step map P_c = ``expm(liouvillian(model, idx) * dt)``, every line by
one product form x -> M x (M = P_c for a forward column, its transpose
for a covector row).  A line holds its live kept sectors alone, compact,
one column per vec index: the sectors the caller keeps (a scan's phase
cycle passes only pathways whose pulses change c by the kept coherence
orders, ``protocol._kept_sectors``) where the line's start is nonzero,
since a start that is exactly zero on a sector stays zero there, P_c
being linear.  Every line stepped is one walk (side, start, sectors) of
one list, and every walk starts nonzero: the two returned lines; the
sector c = 0 of the forward line, for the trace-drift check, when c = 0
is not kept; and, for the reality check, the line of each line's adjoint
start (state^+, A^+) in the mirror -c of the line's largest live kept
sector c: P^+ commutes with the adjoint, so the check bounds the line's
difference there from the adjoint of its adjoint's line
(SignalRealityError).  A sector that no walk holds builds no map.  Both
checks run once, after the walks, and each raises unless its residual is
at most its bound, so a NaN fails it.

A ``Propagator`` holds exp(L t) of the full Liouvillian for one whole
interval t, densely; ``protocol.run_once``, the single protocol execution
that the line engine is tested against, builds and applies one per
interval.  Every matrix exponential is ``expm``: exp of the diagonal when
the matrix has no nonzero entry off it (every sector map of a
dissipation-free model whose Hamiltonian is diagonal in the Fock basis,
such as the Kerr model, so that a ``kerr`` run makes no LU solve), else a
numpy scaling-and-squaring Pade approximant.  A model whose generator
K = -iH - 1/2 sum r c^+ c and jumps have no imaginary part holds them as
float64 (``LindbladModel.generator``; the resonance exchange, written in
the frame where its -iH is real): its Liouvillian blocks are gathered real
and its sector maps exponentiated in float64, with real products and a
real LU solve.  The lines and the checks stay complex; a real map steps
each complex line as its (b, 2) float64 view, real and imaginary parts as
two columns of one real product.
"""

import math
from functools import cached_property, reduce
from typing import NamedTuple

import numpy as np

from .fock import destroy, embed

DEFAULT_MEMORY_BUDGET = 6 * 1024**3  # bytes, the one limit _check_budget applies
TRACE_TOL_PER_STEP = 1e-9
IMAG_TOL = 1e-10


class PropagatorSizeError(MemoryError):
    """A superoperator or a scan's working set would exceed the memory budget."""


class PropagatorAccuracyError(RuntimeError):
    """Trace drift exceeded TRACE_TOL_PER_STEP per step or grid point."""


class SignalRealityError(RuntimeError):
    """A line or a signal acquired a non-negligible imaginary part."""


class LindbladModel:
    """Hamiltonian (rad/s) on the register ``dims`` (one truncation dim per
    mode, slot 0 slowest) plus collapse operators with rates (1/s), and a
    declared conserved charge Q = sum_s w_s n_s: one integer weight w_s per
    register mode (``charge_weights``, zero weights when omitted).

    The charge is checked once: [Q, H] = 0 and every collapse operator
    shifts Q by one fixed amount.  Then the Liouvillian keeps
    c = Q_ket - Q_bra, its blocks are the sectors of c
    (``liouvillian_blocks``) and a scan steps only the sectors its phase
    cycle keeps.  Zero weights give one block.  A plain class, checked in
    ``__init__``, whose cached properties are kept on the instance.  The
    Hamiltonian and each collapse operator are converted to arrays there,
    once (an array is kept, not copied), so nested lists are accepted and
    no method converts them again.
    """

    def __init__(
        self, hamiltonian: np.ndarray, dims: tuple[int, ...], collapse_ops: list[tuple[np.ndarray, float]] = (),
        charge_weights: tuple[int, ...] | None = None,
    ):
        self.hamiltonian = h = np.asarray(hamiltonian)
        self.dims, self.collapse_ops = dims, [(np.asarray(op), rate) for op, rate in collapse_ops]
        if any(d < 2 for d in self.dims):
            raise ValueError("every mode needs dimension >= 2")
        if h.shape != (math.prod(self.dims),) * 2:
            raise ValueError(f"Hamiltonian shape {h.shape} does not match the register dims {self.dims}")
        herm = np.max(np.abs(h - h.conj().T))
        if not herm <= 1e-10 * max(1.0, np.max(np.abs(h))):  # NaN fails too
            raise ValueError(f"Hamiltonian not Hermitian (residual {herm:.2e})")
        for _, rate in self.collapse_ops:
            if rate < 0:
                raise ValueError("collapse rates must be >= 0")
        w = (0,) * len(self.dims) if charge_weights is None else charge_weights
        if len(w) != len(self.dims) or any(
            isinstance(x, bool) or not isinstance(x, (int, np.integer)) for x in w
        ):
            raise ValueError("charge_weights must hold one integer per register mode")
        self.charge_weights = tuple(map(int, w))
        shift = np.subtract.outer(self.charge, self.charge)  # Q_i - Q_k at (i, k)
        if np.any(h[shift != 0]):
            raise ValueError("Hamiltonian does not conserve the declared charge")
        for op, _ in self.collapse_ops:
            moved = shift[op != 0]
            if moved.size and moved.min() != moved.max():
                raise ValueError("a collapse operator shifts the declared charge by more than one amount")

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]

    @cached_property
    def charge(self) -> np.ndarray:
        """The int64 diagonal of Q = sum_s w_s n_s in the register basis
        (slot 0 slowest)."""
        return _mode_sum(self.charge_weights, self.dims)

    @cached_property
    def generator(self) -> tuple[np.ndarray, list[tuple[np.ndarray, float]]]:
        """(K, jumps): K = -iH - 1/2 sum_c r c^+ c and the (c, r) pairs with
        r > 0, formed once per model for every block ``liouvillian``
        gathers; all float64 when neither K nor any jump has an imaginary
        part, so that the blocks are gathered, and their maps exponentiated,
        in real arithmetic."""
        jumps = [(op, rate) for op, rate in self.collapse_ops if rate > 0]
        k = -1j * self.hamiltonian
        for c, rate in jumps:
            k -= 0.5 * rate * (c.conj().T @ c)
        if not np.any(k.imag) and not any(np.any(np.imag(c)) for c, _ in jumps):
            return k.real.copy(), [(np.real(c), rate) for c, rate in jumps]
        return k, jumps


def _mode_sum(weights: tuple[int, ...], dims: tuple[int, ...]) -> np.ndarray:
    """The int64 diagonal of sum_s w_s n_s on the register ``dims``, slot 0
    slowest."""
    return reduce(np.add.outer, (w * np.arange(d, dtype=np.int64) for w, d in zip(weights, dims))).ravel()


class Propagator(NamedTuple):
    """exp(L dt) as a dense superoperator on row-major-vectorized density
    matrices, held in an immutable one-field tuple."""

    matrix: np.ndarray
    kind = "super"  # the one representation; per-kind tracing reads it

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
    """exp(a) of a square matrix.  A diagonal a (no nonzero entry off the
    diagonal, counted without forming an a-sized temporary) gives
    diag(exp(a_ii)), exact to the rounding of each exp and with no solve.
    Any other a goes by scaling and squaring (Higham 2005): a is scaled by
    2^-s until its 1-norm is at most theta_13, the [13/13] Pade approximant
    (V - U)^-1 (V + U) is formed from a^2, a^4 and a^6 (U odd and V even in
    a), and the result is squared s times.  The Pade sums are formed as
    written, left to right, and the identity terms b0 I and b1 I are added
    on the diagonal alone (a dense b I would turn -0.0 into +0.0 off it).
    The traced peak is about 8 matrices of a's size and dtype (8.0 at
    b = 97, 7.0 at b = 186, where numpy adds into its large temporaries in
    place), within ``_map_bytes``' 10 complex b x b matrices."""
    diagonal = np.diagonal(a)
    if np.count_nonzero(a) == np.count_nonzero(diagonal):
        return np.diag(np.exp(diagonal))
    norm = float(np.abs(a).sum(axis=0).max(initial=0.0))
    s = max(0, math.ceil(math.log2(norm / _THETA13))) if norm > 0 else 0
    a = a / 2.0**s
    b, diag = _PADE13, slice(None, None, a.shape[0] + 1)  # the diagonal, in a.flat
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2
    v.flat[diag] += b[0]
    y = a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4 + b[3] * a2
    y.flat[diag] += b[1]
    del a2, a4, a6
    u = a @ y
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


def _map_bytes(b: int) -> int:
    """Upper bound on the bytes held while one b x b step map is built: the
    block ``liouvillian`` gathers, then the matrices ``expm`` works in, at
    most 10 b x b complex matrices at a time.  A map of a real generator
    (``LindbladModel.generator``) holds about half of it: ``expm`` then
    works in float64."""
    return 16 * 10 * b * b


def liouvillian(model: LindbladModel, idx: np.ndarray | None = None) -> np.ndarray:
    """Dense superoperator -i[H, .] + dissipators in row-major vectorization,
    vec(A rho B) = (A kron B^T) vec(rho), restricted to the rows and columns
    ``idx`` (every vec index when None), in the generator's dtype.

    With K = -iH - 1/2 sum_c r c^+ c (``LindbladModel.generator``),
    L = K kron I + I kron conj(K) + sum_c r c kron conj(c), so the entry at
    vec indices (d i + j, d k + l) is K_ik [j = l] + [i = k] conj(K_jl) +
    sum_c r c_ik conj(c_jl).  The block is gathered from that formula on
    the b x b pairs of ``idx`` alone, each term read at the flat positions
    d i + k of K (or c) and d j + l, and added in that order to a block of
    zeros in the generator's dtype: a sum begun from +0.0 keeps no -0.0
    that a masked term leaves where its mask is zero.
    """
    k, jumps = model.generator
    d = model.dim
    ket, bra = np.divmod(np.arange(d * d) if idx is None else idx, d)
    kets, bras = np.add.outer(d * ket, ket), np.add.outer(d * bra, bra)  # flat (i, k) and (j, l)
    out = np.zeros(kets.shape, k.dtype)
    out += k.take(kets) * (bra[:, None] == bra)
    out += k.take(bras).conj() * (ket[:, None] == ket)
    for c, rate in jumps:
        out += c.take(kets) * rate * c.take(bras).conj()
    return out


def liouvillian_blocks(model: LindbladModel) -> dict[int, np.ndarray]:
    """The diagonal blocks of the Liouvillian as {c: ascending row-major vec
    indices d i + j (ket i, bra j)}, one per value of the conserved charge
    c = Q_i - Q_j of the model's declared Q, in ascending c: each block is
    the positions where c holds its value, one mask per charge (no numpy
    sort).

    K = -iH - 1/2 sum r c^+ c keeps Q, so K kron I + I kron conj(K) keeps
    (Q_ket, Q_bra), and a jump shifts Q_ket and Q_bra by the same amount:
    no entry of L joins two sectors, and exp(L t) acts on each alone
    (Buca & Prosen, New J. Phys. 14, 073007 (2012)).  ``resonance_model``
    declares Q = n_zz + 2 n_str; a model without a declared charge is the
    one block c = 0.
    """
    c = np.subtract.outer(model.charge, model.charge).ravel()
    return {q: np.flatnonzero(c == q) for q in sorted(set(c.tolist()))}


def _check_skew(x: np.ndarray, mirror: np.ndarray) -> None:
    """SignalRealityError when half of max |x - conj(mirror)|, for x holding
    a line's entries (i, j) and mirror the entries (j, i) of its adjoint's
    line (the line itself for a Hermitian start), exceeds
    IMAG_TOL * max(1, max|x|): the step map has stopped preserving the
    adjoint, which would make each raw signal complex.  |x - conj(mirror)|
    is taken from the real and imaginary parts, so no complex temporary of
    the line's size is formed."""
    skew = 0.5 * float(np.max(np.hypot(x.real - mirror.real, x.imag + mirror.imag)))
    bound = IMAG_TOL * max(1.0, float(np.max(np.abs(x))))
    if not skew <= bound:  # NaN fails too
        raise SignalRealityError(
            f"imaginary residual: a line's anti-Hermitian part {skew:.2e} exceeds {bound:.2e}"
        )


def _check_trace_drift(diagonal: np.ndarray) -> None:
    """PropagatorAccuracyError when the trace of the forward line, the sum
    of its (n, d) diagonal entries, drifts by more than TRACE_TOL_PER_STEP
    per grid point."""
    n = len(diagonal)
    traces = np.real(diagonal.sum(axis=1))
    drift = float(np.max(np.abs(traces - traces[0])))
    if not drift <= TRACE_TOL_PER_STEP * n * max(1.0, abs(traces[0])):  # NaN fails too
        raise PropagatorAccuracyError(
            f"forward-line trace drift {drift:.2e} over {n} grid points"
        )


def _in_class(c, cls: tuple[int, int]):
    """c in offset + step Z for cls = (offset, step), step 0 meaning
    {offset}; elementwise for an integer array c."""
    offset, step = cls
    return c == offset if step == 0 else (c - offset) % step == 0


def evolution_lines(
    model: LindbladModel,
    state: np.ndarray,
    observable: np.ndarray,
    n: int,
    dt: float,
    sectors: tuple[tuple[int, int], tuple[int, int]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Forward and backward lines of the one-step evolution P = exp(L dt).

    Returns ``(forward, covector, forward_index, covector_index)`` in the
    register basis for grid points k = 0 .. n-1, both lines compact and
    shaped (n, K): column j holds the row-major vec index
    ``forward_index[j]`` (covector: ``covector_index[j]``), for every entry
    of the line's live kept sectors; every other entry that reaches the
    caller is exactly zero.

    - ``forward[k]`` holds vec(P^k(state));
    - ``covector[k]`` holds vec(((P^+)^k(A))^T) of the ``observable`` A (the
      Heisenberg picture), so that tr[A P^k(rho)] = covector[k] @
      vec(rho)[covector_index] for rho in the kept sectors.

    Every model steps the sectors of its charge c = Q_ket - Q_bra
    (``liouvillian_blocks``; one d^2 sector without a declared charge).
    ``sectors`` = (forward class, covector class), each (offset, step) for
    c in offset + step Z, names the sectors that reach the caller
    (((0, 1), (0, 1)) keeps all).  A line holds its live kept sectors
    alone, those of its class where its start is nonzero, each a run of
    columns in ascending c: P_c is linear, so a start that is zero on a
    sector stays zero there.
    Every line stepped is one walk (side, start, sectors) of one list, side
    1 a covector row, and every walk starts nonzero.  P_c = exp(L_c dt) is
    built once for each sector a walk holds (the largest map's size checked
    against the memory budget first; ``expm`` of the block that
    ``liouvillian`` gathers, in the generator's dtype, so in real
    arithmetic for a real one), and it steps every walk that holds the
    sector along the grid in one form, x_k = M x_(k-1): M = P_c for a
    forward column, and M = P_c^T for a covector row, which P_c acts on
    from the right (y P_c = P_c^T y).  A real P_c steps the (b, 2) float64
    view of each complex row x_k, its real and imaginary parts at once.
    Up to three more walks serve the checks alone, held until both checks
    run, after the walks: the forward sector c = 0 when it is not kept and
    the start is nonzero there (a zero start's trace stays zero), where a
    trace drift above TRACE_TOL_PER_STEP per grid point raises
    PropagatorAccuracyError, and for each line with a live kept sector its
    adjoint's line in the mirror -c of the line's largest live kept sector
    c, which starts nonzero as the line does on c.  P^+ commutes with the
    adjoint, so X(k)^+ = (X^+)(k) for each line X, started from
    vec(state^+) for the forward line and vec(conj A) for the covector;
    ``_check_skew`` bounds the difference (SignalRealityError).
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    d = model.dim
    blocks = liouvillian_blocks(model)
    # tr[A rho] = vec(A^T) . vec(rho); the adjoints' starts are vec(state^+) and vec((A^+)^T)
    starts = state.reshape(d * d), observable.T.reshape(d * d)
    adjoints = state.conj().T.reshape(d * d), observable.conj().reshape(d * d)
    # every walk as (side, start, sectors), side 1 a covector row: first
    # the two lines on their live kept sectors, where the start is nonzero
    walks = [(i, x, [c for c in blocks if _in_class(c, cls) and np.any(x[blocks[c]])])
             for i, (x, cls) in enumerate(zip(starts, sectors))]
    checked = [(i, max(cs, key=lambda c: blocks[c].size)) for i, _, cs in walks if cs]  # largest live kept
    walks += [(i, adjoints[i], [-c]) for i, c in checked]  # their mirrors, for the reality checks alone
    trace = 0  # the walk that holds the forward c = 0: one for the trace check alone when c = 0 is not kept
    if 0 not in walks[0][2] and np.any(starts[0][blocks[0]]):
        trace = len(walks)
        walks.append((0, starts[0], [0]))
    ends = [np.cumsum([0] + [blocks[c].size for c in cs]).tolist() for _, _, cs in walks]
    cols = [dict(zip(cs, map(slice, e, e[1:]))) for (_, _, cs), e in zip(walks, ends)]  # {c: its columns}
    lines = [np.empty((n, e[-1]), dtype=complex) for e in ends]
    stepped = sorted({c for col in cols for c in col})
    b = max((blocks[c].size for c in stepped), default=0)
    _check_budget(_map_bytes(b), f"Liouvillian block map ({b}^2)")
    for c in stepped:
        step = expm(liouvillian(model, blocks[c]) * dt)
        for (side, start, _), line, col in zip(walks, lines, cols):
            if c not in col:
                continue
            m, out = step.T if side else step, line[:, col[c]]  # a covector row steps by P_c from the right
            out[0] = start[blocks[c]]
            if not np.iscomplexobj(step):  # a real map steps each row as b (re, im) pairs
                pairs = out.view(np.float64).reshape(n, -1, 2)
                assert np.shares_memory(pairs, out)  # a view: each step writes into the line
                out = pairs
            for k in range(1, n):
                np.matmul(m, out[k - 1], out=out[k])
        del step, m  # m may view the map: neither outlives its sector
    if 0 in cols[trace]:  # else the start has no entry in c = 0, and its trace stays 0
        _check_trace_drift(lines[trace][:, cols[trace][0]][:, np.searchsorted(blocks[0], np.arange(d) * (d + 1))])
    for (i, c), mirror in zip(checked, lines[2:]):
        # entries (i, j) of the line's largest live kept sector against (j, i) of its adjoint's line
        idx = blocks[c]
        _check_skew(lines[i][:, cols[i][c]], mirror[:, np.searchsorted(blocks[-c], idx % d * d + idx // d)])
    index = [np.concatenate([blocks[c] for c in cs] or [np.zeros(0, np.int64)]) for _, _, cs in walks[:2]]
    return lines[0], lines[1], index[0], index[1]


def heating_dissipator(slot: int, rate_ndot: float, dims: tuple[int, ...]) -> list[tuple[np.ndarray, float]]:
    """Infinite-temperature heating of mode ``slot`` of the register
    ``dims``: sqrt(ndot) a and sqrt(ndot) a+.

    Both jump directions at the same rate give d<n>/dt = ndot independent of
    the occupation, i.e. the mean phonon number grows linearly.  A zero rate
    gives two jumps of rate 0, which ``LindbladModel.generator`` drops.
    """
    if rate_ndot < 0:
        raise ValueError("heating rate must be >= 0")
    a = embed(destroy(dims[slot]), slot, dims)
    return [(a, rate_ndot), (a.conj().T, rate_ndot)]

