"""Wiener-process model of laser phase drift during the pulse sequence.

Pulse 1 sets the phase reference at time 0, pulses 2 and 3 fire together at
t1, and pulse 4 at t1 + t3.  The accumulated phase error of a pathway with
integer signature (p2, p3, p4) is then (p2 + p3) X(t1) + p4 X(t1 + t3) for a
Wiener process X, which to second order attenuates the pathway's signal by
c/2 [(p2 + p3 + p4)^2 t1 + p4^2 t3].
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

# diffusion constant pinned by a 2*pi standard deviation after 10 s
DEFAULT_DIFFUSION = 4.0 * np.pi**2 / 10.0  # rad^2/s
SMALL_FLUCTUATION_LIMIT = 0.1


@dataclass(frozen=True)
class WienerPhaseModel:
    diffusion: float = DEFAULT_DIFFUSION
    seed: int = 0

    def __post_init__(self):
        if self.diffusion < 0:
            raise ValueError("diffusion must be >= 0")


def contrast_loss(
    signature: tuple[int, int, int],
    t1: float | np.ndarray,
    t3: float | np.ndarray,
    diffusion: float = DEFAULT_DIFFUSION,
) -> float | np.ndarray:
    """Fractional signal loss of a pathway due to phase diffusion.

    Second-order (small-fluctuation) result; ``t1`` and ``t3`` may be arrays
    (broadcast together), and a warning is raised when the largest
    c*(t1+t3) leaves that regime.
    """
    worst = float(np.max(diffusion * (np.asarray(t1) + t3)))
    if worst > SMALL_FLUCTUATION_LIMIT:
        warnings.warn(
            f"c*(t1+t3) = {worst:.3f}: outside the "
            "small-fluctuation regime, the quadratic loss formula degrades",
            stacklevel=2,
        )
    p2, p3, p4 = signature
    return 0.5 * diffusion * ((p2 + p3 + p4) ** 2 * t1 + p4**2 * t3)


def sample_paths(
    model: WienerPhaseModel, times: np.ndarray, n_paths: int
) -> np.ndarray:
    """(n_paths, len(times)) Wiener samples with Var = c t, Cov = c min(s, t)."""
    times = np.asarray(times, dtype=float)
    if np.any(np.diff(times) < 0):
        raise ValueError("times must be ascending")
    if np.any(times < 0):
        raise ValueError("times must be >= 0")
    rng = np.random.default_rng(model.seed)
    increments = np.diff(np.concatenate([[0.0], times]))
    steps = rng.standard_normal((n_paths, len(times))) * np.sqrt(
        model.diffusion * increments
    )
    return np.cumsum(steps, axis=1)


def monte_carlo_loss(
    signature: tuple[int, int, int],
    t1: float,
    t3: float,
    diffusion: float = DEFAULT_DIFFUSION,
    n_paths: int = 100_000,
    seed: int = 0,
) -> float:
    """Monte Carlo estimate of the pathway attenuation 1 - <cos(sum p dphi)>."""
    model = WienerPhaseModel(diffusion=diffusion, seed=seed)
    p2, p3, p4 = signature
    paths = sample_paths(model, np.array([t1, t1 + t3]), n_paths)
    total = (p2 + p3) * paths[:, 0] + p4 * paths[:, 1]
    return float(1.0 - np.mean(np.cos(total)))


# the supplement's contrast-loss table: signatures scaling as |alpha|^4, ^6
TABLE_SIGNATURES: list[tuple[int, int, int]] = [
    (1, -1, -1),
    (1, -2, -1),
    (1, -1, -2),
    (2, -2, 1),
    (-1, -1, -1),
]


def loss_table(
    t1: float = 2.5e-3,
    t3: float = 2.5e-3,
    diffusion: float = DEFAULT_DIFFUSION,
    n_paths: int = 0,
    seed: int = 0,
) -> list[dict]:
    """Rows (signature, analytic loss, optional Monte Carlo loss)."""
    rows = []
    for sig in TABLE_SIGNATURES:
        row = {
            "p2": sig[0],
            "p3": sig[1],
            "p4": sig[2],
            "loss": contrast_loss(sig, t1, t3, diffusion),
        }
        if n_paths > 0:
            row["loss_mc"] = monte_carlo_loss(
                sig, t1, t3, diffusion, n_paths=n_paths, seed=seed
            )
        rows.append(row)
    return rows
