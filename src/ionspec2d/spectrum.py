"""2D spectra from signal grids: FFT, 1D projections, peak identification.

Axis conventions: a signal component exp(-i w t) lands at frequency -w, so
coherences rotating at positive effective energies show up below the carrier.
The carrier itself (the rotating-frame origin) is reattached as a pure axis
offset; magnitudes carry the raw DFT normalization.  A signal grid has one
time step, so both frequency axes come from it.  ``fft2`` is the one
transform: a 1D projection is the mean of its spectrum over one axis, a
plain complex array on the other axis, ``omega1`` or ``omega3``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.fft  # numpy loads it lazily: import it here, not inside a run

from .protocol import SignalGrid


@dataclass(frozen=True)
class Spectrum2D:
    """Complex 2D spectrum with labeled angular-frequency axes (rad/s)."""

    omega1: np.ndarray
    omega3: np.ndarray
    values: np.ndarray
    carrier: float = 0.0

    @property
    def magnitude(self) -> np.ndarray:
        return np.abs(self.values)

    @property
    def bin_width(self) -> float:
        return float(self.omega1[1] - self.omega1[0])


@dataclass
class Peak:
    omega1: float
    omega3: float
    magnitude: float
    label: str = ""


def _window(n: int, kind: str) -> np.ndarray:
    if kind == "none":
        return np.ones(n)
    if kind == "cosine":
        if n == 1:
            return np.ones(1)
        return np.cos(0.5 * np.pi * np.arange(n) / (n - 1))
    raise ValueError(f"unknown window {kind!r}")


def fft2(
    grid: SignalGrid,
    window: str = "none",
    zero_pad: int = 1,
    carrier_offset: float = 0.0,
) -> Spectrum2D:
    """2D DFT of the phase-cycled signal with labeled axes.

    An axis of n samples at the grid's one step dt, zero-padded to
    n ``zero_pad`` bins, is 2 pi fftfreq(n zero_pad, dt): its spacing is
    2 pi / (n zero_pad dt), so a grid of unequal sides has unequal
    spacings, and a one-point grid is one bin at the carrier.
    ``zero_pad`` multiplies the grid size (interpolating the spectrum without
    moving peak positions); ``carrier_offset`` is added to both axes.
    """
    if zero_pad < 1:
        raise ValueError("zero_pad must be >= 1")
    n1, n3 = grid.values.shape
    w = np.outer(_window(n1, window), _window(n3, window))
    padded = (n1 * zero_pad, n3 * zero_pad)
    f = np.fft.fftshift(np.fft.fft2(grid.values * w, s=padded))
    omega1, omega3 = (2 * np.pi * np.fft.fftshift(np.fft.fftfreq(m, grid.dt)) + carrier_offset for m in padded)
    return Spectrum2D(omega1=omega1, omega3=omega3, values=f, carrier=carrier_offset)


def project_1d(spec: Spectrum2D, axis: str) -> np.ndarray:
    """The 1D-experiment spectrum on ``axis`` ("omega1" or "omega3"): the
    complex mean of the 2D spectrum over the other axis, a plain array
    whose frequencies are ``spec.omega1`` or ``spec.omega3``.

    By the projection-slice theorem this is the DFT of the t3 = 0 (or
    t1 = 0) slice of the grid, windowed and zero-padded as in ``fft2``
    (every window is 1 at t = 0).  Take it before ``notch_carrier``, whose
    zeroed carrier bins would otherwise drop out of the sum.
    """
    if axis not in ("omega1", "omega3"):
        raise ValueError("axis must be 'omega1' or 'omega3'")
    return spec.values.mean(axis=1 if axis == "omega1" else 0)


def find_peaks(spec: Spectrum2D, threshold: float = 0.1) -> list[Peak]:
    """Local maxima above threshold * max, centroid-refined on 3x3 patches,
    largest first: magnitudes are compared rounded to 1e-12 of the maximum,
    and ties are ordered by ascending (omega1, omega3)."""
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must be in (0, 1)")
    mag = spec.magnitude
    cut = threshold * mag.max()
    padded = np.pad(mag, 1, constant_values=-np.inf)
    core = padded[1:-1, 1:-1]
    is_max = core > cut
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di == 0 and dj == 0:
                continue
            is_max &= core >= padded[1 + di : padded.shape[0] - 1 + di,
                                     1 + dj : padded.shape[1] - 1 + dj]
    d1 = spec.omega1[1] - spec.omega1[0]
    d3 = spec.omega3[1] - spec.omega3[0]
    # the 3x3 patch around every maximum at once, zero outside the grid
    i, j = np.nonzero(is_max)
    window = np.arange(3)
    patches = np.pad(mag, 1)[i[:, None, None] + window[:, None], j[:, None, None] + window]
    step = window - 1
    total = patches.sum(axis=(1, 2))
    off_i = (patches * step[:, None]).sum(axis=(1, 2)) / total
    off_j = (patches * step).sum(axis=(1, 2)) / total
    w1, w3, m = spec.omega1[i] + off_i * d1, spec.omega3[j] + off_j * d3, mag[i, j]
    # largest magnitude first, rounded to 1e-12 of the maximum so that peaks
    # tied to rounding (mirror pairs) keep one order: ascending (omega1, omega3)
    order = np.lexsort((w3, w1, -np.round(m / (1e-12 * mag.max()))))
    return [Peak(omega1=float(w1[k]), omega3=float(w3[k]), magnitude=float(m[k])) for k in order]


def notch_carrier(spec: Spectrum2D, width_bins: int = 1) -> Spectrum2D:
    """Zero out the bins around the carrier point (baseline removal)."""
    i = int(np.argmin(np.abs(spec.omega1 - spec.carrier)))
    j = int(np.argmin(np.abs(spec.omega3 - spec.carrier)))
    values = spec.values.copy()
    sl1 = slice(max(i - width_bins, 0), i + width_bins + 1)
    sl3 = slice(max(j - width_bins, 0), j + width_bins + 1)
    values[sl1, sl3] = 0.0
    return Spectrum2D(
        omega1=spec.omega1, omega3=spec.omega3, values=values, carrier=spec.carrier
    )

