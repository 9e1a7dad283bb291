"""Four-displacement phase-cycled spectroscopy protocol.

The sequence is pulse 1 (phase reference, phi_1 = 0), free evolution t1,
pulses 2 and 3 back to back, free evolution t3, pulse 4, then a measurement
of the target-mode population.  Repeating over a uniform grid of pulse phases
and Fourier-extracting a chosen integer phase signature isolates the
coherence-transfer pathways of interest; for a strictly harmonic model the
(1,-1,-1) signature vanishes identically.

Phase cycling is a linear filter (H.-S. Tan, J. Chem. Phys. 129, 124501
(2008)), so ``scan`` applies the Fourier weights to the pulses and the
observable before it contracts anything: one pre-cycled pathway contraction,
no per-phase signal.  ``run_once`` and ``phase_cycle`` do it the experiment's
way, one execution per phase tuple, as the test oracle.

Free evolution is simulated in the rotating frame of the normal modes; the
nominal carrier is reattached as a frequency-axis offset downstream.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dynamics import IMAG_TOL, LindbladModel, SignalRealityError  # noqa: F401  (re-exported)
from .dynamics import _check_budget, build_propagator, evolution_lines
from .fock import displacement, embed


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


def _working_set_bytes(d: int, n: int, d_target: int) -> int:
    """Upper bound on the bytes a scan holds at once: 12 (n, d, d) complex
    lines (the forward and two covector lines with the temporaries of their
    rotation and hermitization, then the combined covector and the
    pre-cycled states with their reordering), the grid twice, a few d x d
    operators and the pre-cycled pulse pair with its products.  A Lindblad
    model's block maps are guarded on their own by ``evolution_lines``."""
    return 16 * (12 * n * d * d + 2 * n * n + 8 * d * d + 3 * d_target**4)


def check_scan_budget(dims: tuple[int, ...], n: int, target: int) -> None:
    """PropagatorSizeError when a scan of the register ``dims`` over n grid
    points would exceed the memory budget; ``cli.build_config`` calls it too."""
    d = math.prod(dims)  # exact even for a config's huge dims
    _check_budget(_working_set_bytes(d, n, dims[target]), f"scan (dim {d}, {n} grid points)")


def _pulse_set(model: LindbladModel, seq: PulseSequence) -> tuple[np.ndarray, ...]:
    """Every operator a scan applies, phase-cycled before any contraction.

    Returns the embedded D1; the pre-cycled pulse pair C = sum w2 w3
    K32 kron conj(K32) of the target-mode displacements K32 = K3 K2, which
    maps the row-major vec of the target block of rho to that of
    sum w2 w3 D32 rho D32^+ (d_t^2 x d_t^2); and the pre-cycled observable
    sum w4 D4^+ M D4 = H_R + i H_I as its embedded Hermitian parts (2, d, d).
    """
    d1 = pulse_operator(model, seq, 1, 0.0)
    dim = model.register.dims[seq.target]
    w2, w3, w4 = _cycle_weights(seq.signature, seq.n_phases)

    def kicks(k: int) -> list[np.ndarray]:
        alpha = seq.amplitudes[k - 1]
        return [displacement(alpha * np.exp(1j * p), dim) for p in seq.phase_grid(k)]

    cycled = np.zeros((dim * dim, dim * dim), dtype=complex)
    for a, k2 in zip(w2, kicks(2)):
        for b, k3 in zip(w3, kicks(3)):
            cycled += a * b * np.kron(k3 @ k2, (k3 @ k2).conj())
    measured = np.stack([k4.conj().T @ np.diag(np.arange(dim)) @ k4 for k4 in kicks(4)])
    parts = [np.tensordot(w, measured, 1) for w in (w4.real, w4.imag)]
    return d1, cycled, np.stack([embed(h, seq.target, model.register) for h in parts])


def scan(
    model: LindbladModel,
    rho0: np.ndarray,
    seq: PulseSequence,
    t_max: float,
    dt: float,
) -> SignalGrid:
    """Full (t1, t3) scan of the signature component, phase-cycled before
    contracting.

    Each raw signal is a bilinear form tr[A_j4(t3) D32 rho(t1) D32^+] of the
    forward line rho(t1) = P^k1(D1 rho0 D1^+) and the backward (Heisenberg)
    line A_j4(t3) = (P^+)^k3(D4^+ M D4): the bra/ket pathway picture of the
    nonlinear response (Mukamel, Principles of Nonlinear Optical
    Spectroscopy, 1995).  The signature component is linear in the raw
    signals, so s(k1, k3) = tr[A(k3) S(k1)] with the pre-cycled state
    S = sum w2 w3 D32 rho D32^+ and observable A = sum w4 A_j4 = H_R + i H_I
    (``_pulse_set``): only a finite sum is reordered, so the phase-cycle
    aliasing is the experiment's.  ``dynamics.evolution_lines`` gives the
    forward line and the covector lines of H_R and H_I; the pre-cycled pulse
    pair acts on the target-mode ket and bra axes of the forward line (a
    cost of n d^2 d_t^2; no embedded d x d pulse is formed), and one
    (n x d^2) @ (d^2 x n) product gives the grid.  The working set is
    checked against the memory budget (``check_scan_budget``) before any
    operator is built.
    """
    if model.register is None:
        raise ValueError("model needs a register to embed pulses")
    dims, n, d = model.register.dims, grid_points(t_max, dt), model.dim
    d_t = dims[seq.target]
    check_scan_budget(dims, n, seq.target)
    d1, cycled, observables = _pulse_set(model, seq)
    line, covectors = evolution_lines(model, d1 @ rho0 @ d1.conj().T, observables, n, dt)
    # (k1, left, ket, right, left, bra, right): C acts on the target ket and bra axes
    left = int(np.prod(dims[: seq.target]))
    right = d // (left * d_t)
    line = line.reshape(n, left, d_t, right, left, d_t, right)
    states = np.einsum("ABab,klarmbs->klArmBs", cycled.reshape((d_t,) * 4), line, optimize=True)
    covector = covectors[:, 0] + 1j * covectors[:, 1]  # vec(A(k3)^T), (k3, d^2)
    t_axis = np.arange(n) * dt
    return SignalGrid(t1=t_axis, t3=t_axis, values=states.reshape(n, d * d) @ covector.T)
