"""Four-displacement phase-cycled spectroscopy protocol.

The sequence is pulse 1 (phase reference, phi_1 = 0), free evolution t1,
pulses 2 and 3 back to back, free evolution t3, pulse 4, then a measurement
of the probed mode's population.  The probed mode is register slot 0: all
four pulses displace it by the one amplitude |alpha| and the readout counts
its quanta, and every model puts the mode it probes there (the zigzag, in
both scenarios).  A ``PulseSequence`` is the amplitude, the phase counts and
the signature, nothing else.  Every pulse is an entry of one
``fock.displacement`` call over the run's phases, 0 for pulse 1 and then
the phase grids of pulses 2, 3 and 4: one eigensystem and at most one
truncation warning per scan.  Repeating over a uniform grid of pulse phases
and Fourier-extracting a chosen integer phase signature isolates the
coherence-transfer pathways of interest; for a strictly harmonic model the
(1,-1,-1) signature vanishes identically.  Orders congruent to the
signature modulo the phase counts alias onto it, and ``scan`` warns when a
count is too small for its signature component.

Phase cycling is a linear filter (H.-S. Tan, J. Chem. Phys. 129, 124501
(2008)), so ``scan`` applies the Fourier weights to the pulses and the
observable before it contracts anything: one pre-cycled pathway contraction,
no per-phase signal.  That contraction is one loop of n x n GEMM blocks for
every model; an optional chi weight (the ``kerr`` spectators' static shift)
scales each block, and forks nothing.  The free evolutions are the lines of
``dynamics.evolution_lines``, stepped on the charge sectors the cycle keeps
(``_kept_sectors``), one mechanism for every model.  ``run_once`` and
``phase_cycle`` do it the experiment's way, one execution per phase tuple,
each interval one dense map of the full Liouvillian, as the test oracle.

Free evolution is simulated in the rotating frame of the normal modes; the
nominal carrier is reattached as a frequency-axis offset downstream.
"""

import math
import warnings
from collections import Counter
from collections.abc import Callable
from typing import NamedTuple

import numpy as np

from .dynamics import IMAG_TOL, LindbladModel, Propagator, SignalRealityError
from .dynamics import _check_budget, _in_class, _map_bytes, _mode_sum, evolution_lines, expm, liouvillian
from .fock import displacement, embed


class PulseSequence(NamedTuple("PulseSequence", [
    ("alpha", float), ("n_phases", tuple[int, int, int]), ("signature", tuple[int, int, int])
])):
    """A run's three pulse settings: the displacement amplitude |alpha| of
    all four pulses, the phase-cycle counts N_k and the target signature.

    ``n_phases`` and ``signature`` refer to pulses 2..4; the first pulse sets
    the phase reference.  Every pulse drives, and the readout measures, the
    probed mode, register slot 0.  A phase count too small for its
    signature component aliases other orders onto the target, which
    ``scan``, the code that cycles the phases, warns of.  A tuple checked
    where it is built; ``_replace`` and ``_make`` skip the checks (nothing
    in the package calls them).
    """

    __slots__ = ()

    def __new__(cls, alpha=0.25, n_phases=(4, 4, 4), signature=(1, -1, -1)):
        self = super().__new__(cls, alpha, n_phases, signature)
        if len(self.n_phases) != 3 or len(self.signature) != 3:
            raise ValueError("n_phases and signature need three entries, for pulses 2..4")
        if any(n < 1 for n in self.n_phases):
            raise ValueError("n_phases must be >= 1")
        return self

    def phase_grid(self, k: int) -> np.ndarray:
        """Uniform phases 2*pi*j/N for pulse k (k = 2, 3, 4)."""
        n = self.n_phases[k - 2]
        return 2.0 * np.pi * np.arange(n) / n


class SignalGrid(NamedTuple("SignalGrid", [("values", np.ndarray), ("dt", float)])):
    """Phase-cycled complex signal: ``values[k1, k3]`` is s(k1 dt, k3 dt).
    Both time axes start at 0 and share the one step ``dt``, so a grid is
    its values and its step.  A tuple checked where it is built; ``_replace``
    and ``_make`` skip the checks (nothing in the package calls them)."""

    __slots__ = ()

    def __new__(cls, values, dt):
        self = super().__new__(cls, values, dt)
        if not 0 < self.dt < math.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt!r}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("signal grid contains non-finite values")
        return self


def run_once(
    model: LindbladModel,
    rho0: np.ndarray,
    seq: PulseSequence,
    t1: float,
    t3: float,
    phases: tuple[float, float, float],
    prop_cache: dict | None = None,
) -> float:
    """Single protocol execution for one (t1, t3, phase tuple): the test
    oracle of ``scan``.

    Each free evolution applies the exact map of the whole interval t,
    a ``dynamics.Propagator`` holding exp(L t), the dense exponential of the
    model's full Liouvillian, independent of the line engine ``scan`` uses;
    its working set is checked against the memory budget before it is
    built, and a negative interval raises ValueError.  The four pulses are
    the embedded entries of one ``fock.displacement`` call over the phases
    (0, *phases).  Returns the real measured population; a complex residual
    above IMAG_TOL raises.  Propagators are memoized in ``prop_cache`` keyed
    by the interval.
    """
    cache = prop_cache if prop_cache is not None else {}

    def free(rho, t):
        if t < 0:
            raise ValueError("free-evolution intervals must be >= 0")
        if t == 0:
            return rho
        key = round(t * 1e15)
        if key not in cache:
            d = model.dim
            _check_budget(_map_bytes(d * d, model), f"superoperator (dim {d} -> {d * d}^2)")
            cache[key] = Propagator(expm(liouvillian(model) * t))
        rho = cache[key].apply_batch(rho[None])[0]
        return 0.5 * (rho + rho.conj().T)

    pulses = displacement(seq.alpha * np.exp(1j * np.array((0.0, *phases))), model.dims[0])
    d1, d2, d3, d4 = (embed(k, 0, model.dims) for k in pulses)
    rho = d1 @ rho0 @ d1.conj().T
    rho = free(rho, t1)
    d32 = d3 @ d2
    rho = d32 @ rho @ d32.conj().T
    rho = free(rho, t3)
    rho = d4 @ rho @ d4.conj().T
    # the readout: the probed mode's population, slot 0's quanta
    signal = complex(np.trace(embed(np.diag(np.arange(model.dims[0])), 0, model.dims) @ rho))
    if abs(signal.imag) > IMAG_TOL * max(1.0, abs(signal.real)):
        raise SignalRealityError(f"imaginary residual {signal.imag:.3e} on signal {signal.real:.3e}")
    return float(signal.real)


def _cycle_weights(signature, n_phases) -> list[np.ndarray]:
    """Fourier weights exp(-i q phi)/N over the phase grids of pulses 2..4."""
    return [np.exp(-2j * np.pi * q * np.arange(n) / n) / n for q, n in zip(signature, n_phases)]


def phase_cycle(raw: np.ndarray, signature: tuple[int, int, int]) -> np.ndarray:
    """Fourier-extract the signature component from the phase-cycle stack.

    ``raw`` holds real signals with the last three axes running over the
    uniform phase grids of pulses 2..4; the result drops those axes.  Orders
    congruent to the signature modulo the phase counts alias onto it, which
    is controlled experimentally by keeping the pulse amplitudes small.
    """
    return np.einsum("...abc,a,b,c->...", raw, *_cycle_weights(signature, raw.shape[-3:]))


def grid_points(t_max: float, dt: float) -> int:
    """Number of samples 0, dt, ..., covering [0, t_max]."""
    return int(np.floor(t_max / dt * (1.0 + 1e-9))) + 1


def _working_set_bytes(
    dims: tuple[int, ...], n: int, seq: PulseSequence, columns: tuple[int, int, int], span: int | None = None
) -> int:
    """Upper bound on the bytes a scan of the register ``dims`` holds at
    once, with ``columns`` = (K_f, K_c, b) from ``sector_columns``: the
    grid and one contraction block, 2 n^2; a few d x d operators; the
    probed mode's pulse stacks (``_pulse_set``): the one displacement
    call holds all 1 + N2 + N3 + N4 displacements at once, up to four
    copies of them with its temporaries (D1's among the d x d operators),
    and K2, K3 and K4 stay views of that stack while K32 over the N2 N3
    phase pairs, three times, and the pre-cycled pair with its products,
    three d_t^2 x d_t^2, are formed; n (2 K_f + 2 K_c + 3 b) line entries
    at most: the forward and covector lines with up to three check-only
    lines of b columns or fewer (the forward c = 0 and the two adjoint
    mirrors) while the lines are built, then the two lines with the
    contraction's gathers of both; the step map of the largest sector, b
    vec indices, built while the lines are held (``dynamics._map_bytes``);
    and 32 KiB of Python objects and array headers.  The model's Liouvillian entries,
    whose count the dims do not fix, are charged where the model is known:
    ``evolution_lines`` checks ``_map_bytes`` with the model.

    A chi weight (``span`` = max Q - min Q) adds its table, 4 span (n - 1)
    + 1 entries, and one block's weight with its gather index, 2 n^2."""
    (k_f, k_c, b), (n2, n3, n4), d = columns, seq.n_phases, math.prod(dims)  # exact even for huge dims
    stacks = dims[0] ** 2 * (3 * n2 * n3 + 4 * (n2 + n3 + n4) + 3 * dims[0] ** 2)
    need = 16 * (n * (2 * k_f + 2 * k_c + 3 * b) + 2 * n * n + 8 * d * d + stacks) + _map_bytes(b) + 2**15
    if span is not None:
        need += 16 * (4 * span * (n - 1) + 1 + 2 * n * n)
    return need


def check_scan_budget(
    weights: tuple[int, ...], dims: tuple[int, ...], n: int, seq: PulseSequence, chi: bool = False
) -> None:
    """PropagatorSizeError when a scan of the register ``dims`` with the
    charge ``weights`` over n grid points, with a chi weight or not, would
    exceed the memory budget; ``cli.build_config`` calls it too.  The
    operators and the phase-cycle stacks alone are checked first, so that
    huge dims fail before ``sector_columns`` counts their columns."""
    span = sum(abs(w) * (k - 1) for w, k in zip(weights, dims)) if chi else None
    what = f"scan (dim {math.prod(dims)}, {n} grid points)"
    _check_budget(_working_set_bytes(dims, n, seq, (0, 0, 0), span), what)
    _check_budget(_working_set_bytes(dims, n, seq, sector_columns(weights, dims, seq), span), what)


def sector_columns(weights: tuple[int, ...], dims: tuple[int, ...], seq: PulseSequence) -> tuple[int, int, int]:
    """(K_f, K_c, b) of a scan of the register ``dims`` with the charge
    Q = sum_s w_s n_s of the per-mode ``weights``, from the two alone: the
    kept forward and covector columns (``_kept_sectors``) and the largest
    stepped sector, c = 0.

    The sector c = Q_i - Q_j holds sum_q N_q N_(q-c) vec indices, with N_q
    the number of basis states of charge q.  Only the charges that occur
    are counted, at most one per basis state, and each pair of them adds
    N_q N_q' to the sector q - q', so neither the time nor the memory grows
    with the size of the weights.  By Cauchy-Schwarz no sector holds more
    than c = 0."""
    q = _mode_sum(weights, dims)
    # counted without a sort: np.unique(q, return_counts=True) sorts by
    # numpy's default unstable sort, which nothing else in a kerr run loads
    # (liouvillian_blocks takes each charge by a mask, with no numpy sort);
    # that swap raised the peak RSS of a kerr run at grid_scale 0.5 from
    # 32.36-32.45 to 32.57-32.72 MB (numpy 2.4, fresh processes)
    hist = Counter(q.tolist())
    charges, counts = np.array(list(hist)), np.array(list(hist.values()))
    c = np.subtract.outer(charges, charges)
    sizes = np.multiply.outer(counts, counts)
    kept = _kept_sectors(weights[0], seq)
    return (*(int(sizes[_in_class(c, cls)].sum()) for cls in kept), int(counts @ counts))


def _pulse_set(model: LindbladModel, seq: PulseSequence) -> tuple[np.ndarray, ...]:
    """Every operator a scan applies, phase-cycled before any contraction.

    One ``fock.displacement`` call over the phase 0 and the phase grids of
    pulses 2, 3 and 4 builds every pulse of the probed mode; it is split
    into D1 and the kicks K2, K3 and K4, (N_k, d_t, d_t) views of the one
    stack.  Returns the embedded D1; the pre-cycled pulse pair C = sum w2 w3
    K32 kron conj(K32) of the probed mode's displacements K32 = K3 K2, which
    maps the row-major vec of the probed block of rho to that of
    sum w2 w3 D32 rho D32^+ (d_t^2 x d_t^2); and the pre-cycled observable
    A = sum w4 D4^+ M D4, embedded, one complex (d, d) matrix.
    """
    dim, (n2, n3, _) = model.dims[0], seq.n_phases
    w2, w3, w4 = _cycle_weights(seq.signature, seq.n_phases)
    phases = np.concatenate([[0.0], *(seq.phase_grid(k) for k in (2, 3, 4))])
    d1, k2, k3, k4 = np.split(displacement(seq.alpha * np.exp(1j * phases), dim), np.cumsum([1, n2, n3]))
    # K32 over (pulse-2 phase, pulse-3 phase) as rows of (i, k) entries:
    # sum w K32[i, k] conj(K32[j, l]) in one product, reordered to (i j, k l)
    k32 = (k3 @ k2[:, None]).reshape(-1, dim * dim)
    cycled = (np.outer(w2, w3).reshape(-1, 1) * k32).T @ k32.conj()
    cycled = cycled.reshape((dim,) * 4).transpose(0, 2, 1, 3).reshape(dim * dim, dim * dim)
    measured = np.swapaxes(k4.conj(), 1, 2) @ np.diag(np.arange(dim)) @ k4
    return embed(d1[0], 0, model.dims), cycled, embed(np.tensordot(w4, measured, 1), 0, model.dims)


def _kept_sectors(w: int, seq: PulseSequence) -> tuple[tuple[int, int], ...]:
    """The charge sectors c = Q_ket - Q_bra of the forward line and of the
    covector line that reach the signature component, each as (offset,
    step) for c in offset + step Z.

    A pulse changes c by w Dp, with w the probed mode's (slot 0's) charge
    weight (``LindbladModel.charge_weights``; 0 without a declared charge)
    and Dp its change of that mode's coherence order; the phase cycle of
    pulse k keeps Dp_k = q_k mod N_k (pathway selection: Bodenhausen,
    Kogler & Ernst, J. Magn. Reson. 58, 370 (1984)), and the probed
    population is read in c = 0.  So the covector line needs c3 in
    -w q4 + w N4 Z, and the forward line c1 in -w (q2 + q3 + q4) +
    w gcd(N2, N3, N4) Z: every sector when the phase counts are coprime.
    ``scan`` steps and contracts these classes alone
    (``dynamics.evolution_lines``), for ``kerr`` on the zigzag coherence
    orders (weight 1, charge n).
    """
    (q2, q3, q4), (n2, n3, n4) = seq.signature, seq.n_phases
    return (-w * (q2 + q3 + q4), w * math.gcd(n2, n3, n4)), (-w * q4, w * n4)


def scan(
    model: LindbladModel,
    rho0: np.ndarray,
    seq: PulseSequence,
    t_max: float,
    dt: float,
    chi: Callable[[np.ndarray], np.ndarray] | None = None,
) -> SignalGrid:
    """Full (t1, t3) scan of the signature component, phase-cycled before
    contracting.

    Each raw signal is a bilinear form tr[A_j4(t3) D32 rho(t1) D32^+] of the
    forward line rho(t1) = P^k1(D1 rho0 D1^+) and the backward (Heisenberg)
    line A_j4(t3) = (P^+)^k3(D4^+ M D4): the bra/ket pathway picture of the
    nonlinear response (Mukamel, Principles of Nonlinear Optical
    Spectroscopy, 1995).  The signature component is linear in the raw
    signals, so s(k1, k3) = tr[A(k3) S(k1)] with the pre-cycled state
    S = sum w2 w3 D32 rho D32^+ and observable A = sum w4 A_j4
    (``_pulse_set``): only a finite sum is reordered, so the phase-cycle
    aliasing is the experiment's.  A scan first warns of it for each pulse
    whose phase count N_k is below |q_k| + 2, too few to keep the orders
    near its signature component q_k off the target.

    Only the sectors c = Q_ket - Q_bra of the charge the model declares by
    its per-mode weights that the phase cycle keeps reach the signal
    (``_kept_sectors``, on slot 0's weight):
    ``dynamics.evolution_lines`` steps and holds the forward line and A's
    covector line on those alone, one column per kept vec index, and the
    pre-cycled pulse pair, which acts on the probed mode's ket and bra axes,
    is applied to the kept forward entries and read on the kept covector
    entries only, each found through a vec-index-to-column table, one
    spectator charge difference at a time (no embedded d x d pulse is
    formed).  A model without a declared charge is one sector, stepped and
    contracted in full.  The working set (the kept columns and the largest
    sector's step map, counted from the weights and dims by
    ``sector_columns``) is checked against the memory budget
    (``check_scan_budget``) before any operator is built.

    ``chi``, when given, maps an array of tau to the characteristic
    function E[exp(-i sigma tau)] of a static shift sigma Q over an
    ensemble.  The shift turns sector c into exp(-i sigma c t) times itself,
    so the ensemble weights the pathway from forward charge c1 to covector
    charge c3 by chi((c1 k1 + c3 k3) dt), inhomogeneous dephasing (Hamm &
    Zanni, Concepts and Methods of 2D Infrared Spectroscopy, 2011).

    The contraction is one loop for both: per spectator charge difference,
    per forward charge c1 and per covector charge c3, one GEMM of the
    pulsed forward entries against the covector entries gives an n x n
    block, which chi scales by its gather chi((c1 k1 + c3 k3) dt) before
    it is added to the grid.  Without chi every charge is one group and no
    block is scaled.
    """
    for n_k, q in zip(seq.n_phases, seq.signature):
        if n_k < abs(q) + 2:
            warnings.warn(
                f"N_phi = {n_k} is small for signature component {q}; aliasing orders overlap the target",
                stacklevel=2,
            )
    n, d, d_t = grid_points(t_max, dt), model.dim, model.dims[0]
    check_scan_budget(model.charge_weights, model.dims, n, seq, chi is not None)
    d1, cycled, observable = _pulse_set(model, seq)
    w = model.charge_weights[0]
    kept_forward, kept_covector = kept = _kept_sectors(w, seq)
    line, covector, *kept_index = evolution_lines(model, d1 @ rho0 @ d1.conj().T, observable, n, dt, kept)
    column = np.zeros((2, d * d), dtype=np.intp)  # the compact column of each kept vec index
    for col, idx in zip(column, kept_index):
        col[idx] = np.arange(idx.size)
    # vec index of ket (a, r), bra (b, s) with probed indices a, b:
    # base[r, s] + offset[a, b]; its charge is the spectators' difference
    # spread[r, s] plus w (a - b)
    right = d // d_t
    ket = np.arange(right)
    base = np.add.outer(ket * d, ket).ravel()
    offset = np.add.outer(np.arange(d_t) * right * d, np.arange(d_t) * right).ravel()
    spread = np.subtract.outer(model.charge[ket], model.charge[ket]).ravel()
    orders = w * np.subtract.outer(np.arange(d_t), np.arange(d_t)).ravel()
    values, block = np.zeros((n, n), dtype=complex), np.empty((n, n), dtype=complex)
    if chi is not None:
        # chi(m dt) for every |m| <= |c1 k1 + c3 k3| <= 2 (max Q - min Q)(n - 1)
        m_max = 2 * int(model.charge.max() - model.charge.min()) * (n - 1)
        table = chi(np.arange(-m_max, m_max + 1) * dt)
        k = np.arange(n)

    def by_charge(charges):  # {charge: its entries}; without chi, every entry in one group
        return {0: slice(None)} if chi is None else {q: charges == q for q in sorted(set(charges.tolist()))}

    for c in sorted(set(spread.tolist())):
        # C maps the probed block's kept forward entries to its kept
        # covector entries, one spectator charge difference at a time; the
        # pathway from forward charge q1 to covector charge q3 gains
        # chi((q1 k1 + q3 k3) dt)
        pairs = base[spread == c, None]
        src = np.flatnonzero(_in_class(orders + c, kept_forward))
        dst = np.flatnonzero(_in_class(orders + c, kept_covector))
        for q1, g1 in by_charge(orders[src] + c).items():
            states = line[:, column[0, pairs + offset[src[g1]]]] @ cycled[np.ix_(dst, src[g1])].T
            for q3, g3 in by_charge(orders[dst] + c).items():
                entries = covector[:, column[1, pairs + offset[dst[g3]]]].reshape(n, -1)
                np.matmul(states[..., g3].reshape(n, -1), entries.T, out=block)
                if chi is not None:
                    block *= table[np.add.outer(q1 * k, q3 * k + m_max)]
                values += block
    return SignalGrid(values=values, dt=dt)
