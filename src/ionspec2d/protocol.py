"""Four-displacement phase-cycled spectroscopy protocol.

The sequence is pulse 1 (phase reference, phi_1 = 0), free evolution t1,
pulses 2 and 3 back to back, free evolution t3, pulse 4, then a measurement
of the target-mode population.  Repeating over a uniform grid of pulse phases
and Fourier-extracting a chosen integer phase signature isolates the
coherence-transfer pathways of interest; for a strictly harmonic model the
(1,-1,-1) signature vanishes identically.

Free evolution is simulated in the rotating frame of the normal modes; the
nominal carrier is reattached as a frequency-axis offset downstream.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .dynamics import LindbladModel, _check_budget, build_propagator, evolution_lines
from .fock import displacement, embed

IMAG_TOL = 1e-10


class SignalRealityError(RuntimeError):
    """Raw (un-cycled) signal acquired a non-negligible imaginary part."""


@dataclass(frozen=True)
class PulseSequence:
    """Amplitudes |alpha_k|, phase-cycle counts, and the target signature.

    ``n_phases`` and ``signature`` refer to pulses 2..4; the first pulse sets
    the phase reference.  The measured operator is the population of the
    ``target`` mode slot.
    """

    amplitudes: tuple[float, float, float, float] = (0.25, 0.25, 0.25, 0.25)
    n_phases: tuple[int, int, int] = (4, 4, 4)
    signature: tuple[int, int, int] = (1, -1, -1)
    target: int = 0

    def __post_init__(self):
        if len(self.amplitudes) != 4:
            raise ValueError("exactly four pulse amplitudes required")
        if any(n < 1 for n in self.n_phases):
            raise ValueError("phase counts must be >= 1")
        for n, q in zip(self.n_phases, self.signature):
            if n < abs(q) + 2:
                warnings.warn(
                    f"N_phi = {n} is small for signature component {q}; "
                    "aliasing orders overlap the target",
                    stacklevel=2,
                )

    def phase_grid(self, k: int) -> np.ndarray:
        """Uniform phases 2*pi*j/N for pulse k (k = 2, 3, 4)."""
        n = self.n_phases[k - 2]
        return 2.0 * np.pi * np.arange(n) / n


@dataclass(frozen=True)
class SignalGrid:
    """Phase-cycled complex signal s(t1, t3) on uniform time axes."""

    t1: np.ndarray
    t3: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        for ax in (self.t1, self.t3):
            steps = np.diff(ax)
            if len(steps) and not np.allclose(steps, steps[0], rtol=1e-9):
                raise ValueError("time axes must be uniform")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("signal grid contains non-finite values")

    @property
    def dt(self) -> float:
        return float(self.t1[1] - self.t1[0]) if len(self.t1) > 1 else 0.0


def pulse_operator(model: LindbladModel, seq: PulseSequence, k: int, phase: float) -> np.ndarray:
    """Embedded displacement operator for pulse k at the given phase."""
    if model.register is None:
        raise ValueError("model needs a register to embed pulses")
    dim = model.register.dims[seq.target]
    alpha = seq.amplitudes[k - 1] * np.exp(1j * phase)
    return embed(displacement(alpha, dim), seq.target, model.register)


def measurement_operator(model: LindbladModel, seq: PulseSequence) -> np.ndarray:
    dim = model.register.dims[seq.target]
    return embed(np.diag(np.arange(dim)).astype(complex), seq.target, model.register)


def _real_signal(value: complex) -> float:
    if abs(value.imag) > IMAG_TOL * max(1.0, abs(value.real)):
        raise SignalRealityError(
            f"imaginary residual {value.imag:.3e} on signal {value.real:.3e}"
        )
    return float(value.real)


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

    Each free evolution applies the exact one-step map of
    ``dynamics.build_propagator`` for the whole interval, independent of the
    line engine ``scan`` uses.  Returns the real measured population; a
    complex residual above IMAG_TOL raises.  Propagators are memoized in
    ``prop_cache`` keyed by the interval.
    """
    cache = prop_cache if prop_cache is not None else {}

    def free(rho, t):
        if t == 0:
            return rho
        key = round(t * 1e15)
        if key not in cache:
            cache[key] = build_propagator(model, t)
        rho = cache[key].apply(rho)
        return 0.5 * (rho + rho.conj().T)

    d1 = pulse_operator(model, seq, 1, 0.0)
    d2 = pulse_operator(model, seq, 2, phases[0])
    d3 = pulse_operator(model, seq, 3, phases[1])
    d4 = pulse_operator(model, seq, 4, phases[2])
    m = measurement_operator(model, seq)

    rho = d1 @ rho0 @ d1.conj().T
    rho = free(rho, t1)
    d32 = d3 @ d2
    rho = d32 @ rho @ d32.conj().T
    rho = free(rho, t3)
    rho = d4 @ rho @ d4.conj().T
    return _real_signal(complex(np.trace(m @ rho)))


def phase_cycle(raw: np.ndarray, signature: tuple[int, int, int]) -> np.ndarray:
    """Fourier-extract the signature component from the phase-cycle stack.

    ``raw`` holds real signals with the last three axes running over the
    uniform phase grids of pulses 2..4; the result drops those axes.  Orders
    congruent to the signature modulo the phase counts alias onto it, which
    is controlled experimentally by keeping the pulse amplitudes small.
    The phi_4 axis is contracted with the real and imaginary parts of its
    weights separately, so the real stack is never copied to complex.
    """
    n2, n3, n4 = raw.shape[-3:]
    w2, w3, w4 = (
        np.exp(-1j * q * 2.0 * np.pi * np.arange(n) / n) / n
        for q, n in zip(signature, (n2, n3, n4))
    )
    partial = np.empty(raw.shape[:-1], dtype=complex)
    np.matmul(raw, w4.real, out=partial.real)
    np.matmul(raw, w4.imag, out=partial.imag)
    return (partial @ w3) @ w2


def grid_points(t_max: float, dt: float) -> int:
    """Number of samples 0, dt, ..., covering [0, t_max]."""
    return int(np.floor(t_max / dt * (1.0 + 1e-9))) + 1


def _working_set_bytes(d: int, n: int, n_phases: tuple[int, int, int], threads: int) -> int:
    """Upper bound on the bytes a scan holds at once: the forward line, the n4
    covector lines and their hermitized copies, per worker thread two
    branch-state stacks and one contraction result, and the real raw stack
    with the complex partial sums phase_cycle forms over phi_4."""
    n2, n3, n4 = n_phases
    workers = max(1, threads)
    line = 16 * n * d * d
    return (
        line * (1 + 2 * n4 + 2 * workers)
        + 16 * n * n * n4 * workers
        + 8 * n * n * n2 * n3 * (n4 + 2)
    )


def _pulse_set(
    model: LindbladModel, seq: PulseSequence
) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray], np.ndarray]:
    """Every operator a scan applies, each displacement built once.

    Returns D1, the D2 and D3 operators over their phase grids, and the
    stack of measured observables D4^+ M D4, one per phi_4.
    """
    d1 = pulse_operator(model, seq, 1, 0.0)
    pulses2 = [pulse_operator(model, seq, 2, p) for p in seq.phase_grid(2)]
    pulses3 = [pulse_operator(model, seq, 3, p) for p in seq.phase_grid(3)]
    m_op = measurement_operator(model, seq)
    d4s = [pulse_operator(model, seq, 4, p) for p in seq.phase_grid(4)]
    observables = np.stack([d4.conj().T @ m_op @ d4 for d4 in d4s])
    return d1, pulses2, pulses3, observables


def _check_real(raw: np.ndarray, max_imag: float) -> None:
    """SignalRealityError when the largest imaginary residual of a raw stack
    exceeds IMAG_TOL * max(1, max|raw|)."""
    scale = max(1.0, float(np.max(np.abs(raw))))
    if max_imag > IMAG_TOL * scale:
        raise SignalRealityError(
            f"raw signal imaginary residual {max_imag:.3e} "
            f"exceeds {IMAG_TOL * scale:.3e}"
        )


def scan(
    model: LindbladModel,
    rho0: np.ndarray,
    seq: PulseSequence,
    t_max: float,
    dt: float,
    threads: int = 1,
) -> SignalGrid:
    """Full (t1, t3, phase-tuple) scan, phase-cycled to the signature.

    Every raw signal is a bilinear form tr[A_j4(t3) D32 rho(t1) D32^+] of the
    forward line rho(t1) = P^k1(D1 rho0 D1^+) and the backward (Heisenberg)
    line A_j4(t3) = (P^+)^k3(D4^+ M D4), one per phi_4: the bra/ket pathway
    picture of the nonlinear response (Mukamel, Principles of Nonlinear
    Optical Spectroscopy, 1995).  Both lines are computed once
    (``dynamics.evolution_lines``); each (phi_2, phi_3) branch is then one
    (n x d^2) @ (d^2 x n n4) contraction.  Branches are independent work
    items (optionally spread over ``threads``) writing to disjoint slots, so
    the assembled grid is deterministic.  The working set is checked against
    the memory budget (``dynamics._check_budget``) before any operator is
    built.
    """
    n = grid_points(t_max, dt)
    n2, n3, n4 = seq.n_phases
    d = model.dim
    _check_budget(
        _working_set_bytes(d, n, seq.n_phases, threads), f"scan (dim {d}, {n} grid points)"
    )

    d1, pulses2, pulses3, observables = _pulse_set(model, seq)
    basis, line, covectors = evolution_lines(model, d1 @ rho0 @ d1.conj().T, observables, n, dt)
    if basis is not None:
        pulses2 = [basis.conj().T @ p @ basis for p in pulses2]
        pulses3 = [basis.conj().T @ p @ basis for p in pulses3]
    meas = covectors.reshape(n * n4, d * d)  # row k3 * n4 + j4

    raw = np.empty((n, n, n2, n3, n4))
    max_imag = np.zeros(n2 * n3)

    def branch(item: int) -> None:
        j2, j3 = divmod(item, n3)
        d32 = pulses3[j3] @ pulses2[j2]
        states = d32 @ line @ d32.conj().T
        vals = states.reshape(n, d * d) @ meas.T  # (n_t1, n_t3 * n_phi4)
        max_imag[item] = np.max(np.abs(vals.imag))
        raw[:, :, j2, j3, :] = vals.real.reshape(n, n, n4)

    items = range(n2 * n3)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(branch, items))
    else:
        for item in items:
            branch(item)

    _check_real(raw, float(np.max(max_imag)))
    t_axis = np.arange(n) * dt
    return SignalGrid(t1=t_axis, t3=t_axis, values=phase_cycle(raw, seq.signature))
