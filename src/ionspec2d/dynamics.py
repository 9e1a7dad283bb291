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
022118 (2014)); zero weights give the single sector c = 0.  The model
holds the nonzero entries of its Liouvillian once, as (rows, cols, values)
(``LindbladModel.liouvillian_entries``), while the maps are built: each
sector's block is scattered from them (``liouvillian``) and stepped with
its one-step map P_c = ``expm(liouvillian(model, idx) * dt)`` on the
sector's vec indices idx, every line by one product form x -> M x (M =
P_c for a forward column, its transpose for a covector row), and only the
sectors the caller keeps are stepped and held, compact, one column per
kept vec index: a scan's phase cycle passes only pathways whose pulses
change c by the kept coherence orders (``protocol._kept_sectors``).  A
line whose start is exactly zero on a sector stays zero there, P_c being
linear: its columns are zero-filled, and a sector with no other line
builds no map.  Besides the kept sectors,
the sector c = 0 of the forward line is stepped for the trace-drift check,
and for the reality check the line of each line's adjoint start (state^+,
A^+) in the mirror -c of the line's largest kept sector c: P^+ commutes
with the adjoint, so the check bounds the line's difference there from the
adjoint of its adjoint's line (SignalRealityError).  Both checks run once,
after the walks.

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
the frame where its -iH is real): its Liouvillian blocks are scattered real
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
    ``__init__``, whose cached properties are kept on the instance.
    """

    def __init__(
        self, hamiltonian: np.ndarray, dims: tuple[int, ...], collapse_ops: list[tuple[np.ndarray, float]] = (),
        charge_weights: tuple[int, ...] | None = None,
    ):
        self.hamiltonian, self.dims, self.collapse_ops = hamiltonian, dims, list(collapse_ops)
        if any(d < 2 for d in self.dims):
            raise ValueError("every mode needs dimension >= 2")
        h = np.asarray(self.hamiltonian)
        if h.shape != (math.prod(self.dims),) * 2:
            raise ValueError(f"Hamiltonian shape {h.shape} does not match the register dims {self.dims}")
        herm = np.max(np.abs(h - h.conj().T))
        if herm > 1e-10 * max(1.0, np.max(np.abs(h))):
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
            moved = shift[np.asarray(op) != 0]
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
        r > 0, formed once per model for ``liouvillian_entries``; all float64
        when neither K nor any jump has an imaginary part, so that the blocks
        are scattered, and their maps exponentiated, in real arithmetic."""
        jumps = [(np.asarray(op), rate) for op, rate in self.collapse_ops if rate > 0]
        k = -1j * np.asarray(self.hamiltonian)
        for c, rate in jumps:
            k -= 0.5 * rate * (c.conj().T @ c)
        if not np.any(k.imag) and not any(np.any(np.imag(c)) for c, _ in jumps):
            return k.real.copy(), [(np.real(c), rate) for c, rate in jumps]
        return k, jumps

    @cached_property
    def liouvillian_entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, cols, values): the terms of the Liouvillian
        L = K kron I + I kron conj(K) + sum_c r c kron conj(c) at row-major
        vec indices, from the nonzeros of K and of each jump (``generator``),
        formed once for every block ``liouvillian`` scatters and released by
        ``evolution_lines`` when its maps are built, so that they are not
        held through the caller's contraction.  In this order: K_ik at
        (d i + j, d k + j) for every bra index j, then conj(K_jl) at
        (d i + j, d i + l) for every ket index i, then (r c_ik) conj(c_jl)
        at (d i + j, d k + l) for each pair of nonzeros of each jump, each
        part of the terms joined by one concatenation.  A position may
        repeat (every diagonal one does); the values have the generator's
        dtype."""
        k, jumps = self.generator
        d = self.dim
        every = np.arange(d)
        i, j = np.nonzero(k)
        terms = [
            (np.add.outer(d * i, every), np.add.outer(d * j, every), np.repeat(k[i, j], d)),
            (np.add.outer(d * every, i), np.add.outer(d * every, j), np.tile(k[i, j].conj(), d)),
        ]
        for c, rate in jumps:
            a, b = np.nonzero(c)
            x = c[a, b]
            terms.append((np.add.outer(d * a, a), np.add.outer(d * b, b), np.multiply.outer(x * rate, x.conj())))
        rows, cols, values = zip(*terms)
        values = np.concatenate(values, axis=None, dtype=k.dtype)
        return np.concatenate(rows, axis=None), np.concatenate(cols, axis=None), values


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


def _map_bytes(b: int, model: LindbladModel | None = None) -> int:
    """Upper bound on the bytes held while one b x b step map is built: the
    block ``liouvillian`` scatters, then the matrices ``expm`` works in, at
    most 10 b x b complex matrices at a time.  A map of a real generator
    (``LindbladModel.generator``) holds about half of it: ``expm`` then
    works in float64.  With the ``model``, the scatter's own memory too:
    96 bytes for each of the model's Liouvillian entries
    (``LindbladModel.liouvillian_entries``, counted from the nonzeros of
    its generator), and the d^2 intp position table.  An entry holds at
    most 32 bytes (two intp positions and a complex value); while the
    entries are formed, the terms they are joined from hold as much again
    (64 bytes an entry), and while a block is summed, its temporaries add
    51: the two positions looked up in the table (16), three masks (3) and
    the kept positions and values (32), 83 bytes an entry in all."""
    need = 16 * 10 * b * b
    if model is not None:
        k, jumps = model.generator
        entries = 2 * model.dim * np.count_nonzero(k) + sum(np.count_nonzero(c) ** 2 for c, _ in jumps)
        need += 96 * entries + 8 * model.dim**2
    return need


def liouvillian(model: LindbladModel, idx: np.ndarray | None = None) -> np.ndarray:
    """Dense superoperator -i[H, .] + dissipators in row-major vectorization,
    vec(A rho B) = (A kron B^T) vec(rho), restricted to the rows and columns
    ``idx`` (every vec index when None), in the generator's dtype.

    With K = -iH - 1/2 sum_c r c^+ c (``LindbladModel.generator``),
    L = K kron I + I kron conj(K) + sum_c r c kron conj(c), so the entry at
    vec indices (d i + j, d k + l) is K_ik [j = l] + [i = k] conj(K_jl) +
    sum_c r c_ik conj(c_jl).  The block is scattered from the model's
    entries (``LindbladModel.liouvillian_entries``) whose row and column
    both lie in ``idx``, through a d^2 position table, by one
    ``np.add.at`` in the values' dtype: it adds the entries of a repeated
    position in the order the model holds them, which is the order of the
    three terms.
    """
    rows, cols, values = model.liouvillian_entries
    d2 = model.dim**2
    idx = np.arange(d2) if idx is None else idx
    b = idx.size
    pos = np.full(d2, -1)
    pos[idx] = np.arange(b)
    row, col = pos[rows], pos[cols]
    keep = (row >= 0) & (col >= 0)
    out = np.zeros((b, b), values.dtype)
    np.add.at(out, (row[keep], col[keep]), values[keep])
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
    if skew > bound:
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
    if drift > TRACE_TOL_PER_STEP * n * max(1.0, abs(traces[0])):
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
    that reaches the caller.

    - ``forward[k]`` holds vec(P^k(state));
    - ``covector[k]`` holds vec(((P^+)^k(A))^T) of the ``observable`` A (the
      Heisenberg picture), so that tr[A P^k(rho)] = covector[k] @
      vec(rho)[covector_index] for rho in the kept sectors.

    Every model steps the sectors of its charge c = Q_ket - Q_bra
    (``liouvillian_blocks``; one d^2 sector without a declared charge).
    ``sectors`` = (forward class, covector class), each (offset, step) for
    c in offset + step Z, names the sectors that reach the caller
    (((0, 1), (0, 1)) keeps all); only those are held, each a run of
    columns in ascending c.
    P_c = exp(L_c dt) is built once for each stepped sector (the largest
    map's size and the model's Liouvillian entries checked against the
    memory budget first; ``expm`` of the block that ``liouvillian``
    scatters, in the generator's dtype, so in real arithmetic for a real
    one), and it steps every line that needs the sector along the grid in
    one form, x_k = M x_(k-1): M = P_c for the forward column, and
    M = P_c^T for the covector row, which P_c acts on from the right
    (y P_c = P_c^T y).  A real P_c steps the (b, 2) float64 view of each
    complex row x_k, its real and imaginary parts at once.  A line whose
    start is exactly zero on sector c is not stepped there: P_c is linear,
    so its columns are zero-filled, and a sector whose every line starts
    at zero builds no map.  Once every map is built the model's
    Liouvillian entries are released.  Up to three more lines are walked
    for the checks alone and held until both checks run, after the walks:
    the forward sector c = 0 when it is not kept, where a trace drift
    above TRACE_TOL_PER_STEP per grid point raises PropagatorAccuracyError,
    and for each line its adjoint's line in the mirror -c of the line's
    largest kept sector c.  P^+ commutes with the
    adjoint, so X(k)^+ = (X^+)(k) for each line X, started from vec(state^+)
    for the forward line and vec(conj A) for the covector; ``_check_skew``
    bounds the difference (SignalRealityError).
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    d = model.dim
    # tr[A rho] = vec(A^T) . vec(rho); the adjoints' starts are vec(state^+) and vec((A^+)^T)
    starts = state.reshape(d * d), observable.T.reshape(d * d)
    adjoints = state.conj().T.reshape(d * d), observable.conj().reshape(d * d)
    blocks = liouvillian_blocks(model)
    kept = [[c for c in blocks if _in_class(c, cls)] for cls in sectors]
    walks = {}  # {sector c: [(line, start on c, out)]}, every walk P_c steps

    def walk(i, c, start, out):  # line i's columns ``out`` of sector c, from ``start``
        x = start[blocks[c]]
        if np.any(x):
            walks.setdefault(c, []).append((i, x, out))
        else:
            out[...] = 0  # a zero start stays zero under the linear P_c
        return out

    index, cols = [], []  # per line: the kept vec indices and {c: the columns of sector c}
    lines = []
    for i, k in enumerate(kept):
        ends = np.cumsum([0] + [blocks[c].size for c in k]).tolist()
        index.append(np.concatenate([blocks[c] for c in k] or [np.zeros(0, np.int64)]))
        cols.append(dict(zip(k, map(slice, ends[:-1], ends[1:]))))
        lines.append(np.empty((n, index[i].size), dtype=complex))
        for c in k:
            walk(i, c, starts[i], lines[i][:, cols[i][c]])

    def hold(i, c, start):  # a check-only line: sector c of line i from ``start``
        return walk(i, c, start, np.empty((n, blocks[c].size), dtype=complex))

    trace = lines[0][:, cols[0][0]] if 0 in cols[0] else hold(0, 0, starts[0])
    largest = [max(k, key=lambda c: blocks[c].size, default=None) for k in kept]
    mirrors = [None if c is None else hold(i, -c, adjoints[i]) for i, c in enumerate(largest)]
    b = max((blocks[c].size for c in walks), default=0)
    _check_budget(_map_bytes(b, model), f"Liouvillian block map ({b}^2)")
    for c in sorted(walks):
        step = expm(liouvillian(model, blocks[c]) * dt)
        for i, x, out in walks[c]:
            m = step.T if i else step  # a covector row steps by P_c from the right
            out[0] = x
            if not np.iscomplexobj(step):  # a real map steps each row as b (re, im) pairs
                pairs = out.view(np.float64).reshape(n, -1, 2)
                assert np.shares_memory(pairs, out)  # a view: each step writes into the line
                out = pairs
            for k in range(1, n):
                np.matmul(m, out[k - 1], out=out[k])
        del step, m  # m may view the map: neither outlives its sector
    vars(model).pop("liouvillian_entries", None)  # every map is built: the entries need not outlive them
    _check_trace_drift(trace[:, np.searchsorted(blocks[0], np.arange(d) * (d + 1))])
    for i, c in enumerate(largest):
        # entries (i, j) of the line's largest kept sector against (j, i) of its adjoint's line
        if c is not None:
            idx = blocks[c]
            _check_skew(lines[i][:, cols[i][c]], mirrors[i][:, np.searchsorted(blocks[-c], idx % d * d + idx // d)])
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

