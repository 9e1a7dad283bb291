"""Wiener-process model of laser phase drift during the pulse sequence.

Pulse 1 sets the phase reference at time 0, pulses 2 and 3 fire together at
t1, and pulse 4 at t1 + t3.  The accumulated phase error of a pathway with
integer signature (p2, p3, p4) is then (p2 + p3) X(t1) + p4 X(t1 + t3) for a
Wiener process X with Var X(t) = c t: a Gaussian of variance 2L, with
L = c/2 [(p2 + p3 + p4)^2 t1 + p4^2 t3].  Its characteristic function gives
the exact attenuation of the pathway's signal, <exp(i phi)> = exp(-L)
(``attenuation``), which the spectrum scenarios apply to their grids at any
strength.  The supplement's contrast-loss table prints L itself, the
small-fluctuation loss (``contrast_loss``, which warns outside that regime);
only the ``noise-table`` scenario writes it, beside the exact 1 - exp(-L):
``loss_table``'s rows under the header ``LOSS_COLUMNS``.
"""

import warnings

import numpy as np

# diffusion constant pinned by a 2*pi standard deviation after 10 s
DEFAULT_DIFFUSION = 4.0 * np.pi**2 / 10.0  # rad^2/s
SMALL_FLUCTUATION_LIMIT = 0.1


def _half_variance(signature, t1, t3, diffusion):
    """L = c/2 [(p2 + p3 + p4)^2 t1 + p4^2 t3], half the pathway's phase variance."""
    p2, p3, p4 = signature
    return 0.5 * diffusion * ((p2 + p3 + p4) ** 2 * t1 + p4**2 * t3)


def attenuation(
    signature: tuple[int, int, int],
    t1: float | np.ndarray,
    t3: float | np.ndarray,
    diffusion: float = DEFAULT_DIFFUSION,
) -> float | np.ndarray:
    """Exact factor exp(-L) on a pathway's signal; ``t1`` and ``t3`` may be
    arrays (broadcast together).  It lies in (0, 1] at any diffusion."""
    return np.exp(-_half_variance(signature, t1, t3, diffusion))


def contrast_loss(
    signature: tuple[int, int, int],
    t1: float | np.ndarray,
    t3: float | np.ndarray,
    diffusion: float = DEFAULT_DIFFUSION,
) -> float | np.ndarray:
    """Small-fluctuation (published) fractional signal loss L of a pathway.

    ``t1`` and ``t3`` may be arrays (broadcast together), and a warning is
    raised when the largest c*(t1+t3) leaves that regime.
    """
    worst = float(np.max(diffusion * (np.asarray(t1) + t3)))
    if worst > SMALL_FLUCTUATION_LIMIT:
        warnings.warn(
            f"c*(t1+t3) = {worst:.3f}: outside the "
            "small-fluctuation regime, the quadratic loss formula degrades",
            stacklevel=2,
        )
    return _half_variance(signature, t1, t3, diffusion)


# the supplement's contrast-loss table: signatures scaling as |alpha|^4, ^6
TABLE_SIGNATURES: list[tuple[int, int, int]] = [
    (1, -1, -1),
    (1, -2, -1),
    (1, -1, -2),
    (2, -2, 1),
    (-1, -1, -1),
]


# the contrast-loss table's columns, the header of ``noise_loss.csv``
LOSS_COLUMNS = ("p2", "p3", "p4", "loss_analytic", "loss_exact")


def loss_table(t1: float, t3: float, diffusion: float) -> list[list]:
    """One row per ``TABLE_SIGNATURES`` entry, in ``LOSS_COLUMNS`` order:
    the signature, the published quadratic loss L and the exact loss
    1 - exp(-L), at delays ``t1`` and ``t3`` (s) and diffusion constant
    ``diffusion`` (rad^2/s)."""
    return [
        [*sig, contrast_loss(sig, t1, t3, diffusion), 1.0 - attenuation(sig, t1, t3, diffusion)]
        for sig in TABLE_SIGNATURES
    ]
