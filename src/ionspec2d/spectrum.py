"""2D spectra from signal grids: FFT, 1D projections, peak identification.

Axis conventions: a signal component exp(-i w t) lands at frequency -w, so
coherences rotating at positive effective energies show up below the carrier.
The carrier itself (the rotating-frame origin) is reattached as a pure axis
offset; magnitudes carry the raw DFT normalization.  A spectrum is its
values, the grid's one time step and its carrier: both frequency axes are
derived from them, never stored.  ``fft2`` is the one transform: a 1D
projection is the mean of its spectrum over one axis, a plain complex array
on the other axis, ``omega1`` or ``omega3``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import numpy.fft  # numpy loads it lazily: import it here, not inside a run

from .protocol import SignalGrid


@dataclass(frozen=True)
class Spectrum2D:
    """Complex 2D spectrum of a grid sampled at step ``dt`` (s), its bins
    fftshifted so that the carrier (rad/s) sits at bin (m1 // 2, m3 // 2).
    An axis of m bins is 2 pi fftshift(fftfreq(m, dt)) + carrier: its bins
    are 2 pi / (m dt) apart, and a one-bin axis is the carrier alone."""

    values: np.ndarray
    dt: float
    carrier: float = 0.0

    def _axis(self, m: int) -> np.ndarray:
        return 2 * np.pi * np.fft.fftshift(np.fft.fftfreq(m, self.dt)) + self.carrier

    @property
    def omega1(self) -> np.ndarray:
        return self._axis(self.values.shape[0])

    @property
    def omega3(self) -> np.ndarray:
        return self._axis(self.values.shape[1])

    @property
    def magnitude(self) -> np.ndarray:
        return np.abs(self.values)

    @property
    def bin_width(self) -> float:
        """The omega1 bin spacing, 2 pi / (m1 dt)."""
        return 2 * np.pi / (self.values.shape[0] * self.dt)


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
    """2D DFT of the phase-cycled signal, fftshifted, at the grid's step.

    ``zero_pad`` multiplies the grid size (interpolating the spectrum without
    moving peak positions): a side of n samples becomes n ``zero_pad`` bins,
    2 pi / (n zero_pad dt) apart, so a grid of unequal sides has unequal
    spacings, and a one-point grid is one bin at the carrier.
    ``carrier_offset`` is the spectrum's carrier, the offset of both axes.
    """
    if zero_pad < 1:
        raise ValueError("zero_pad must be >= 1")
    n1, n3 = grid.values.shape
    w = np.outer(_window(n1, window), _window(n3, window))
    padded = (n1 * zero_pad, n3 * zero_pad)
    f = np.fft.fftshift(np.fft.fft2(grid.values * w, s=padded))
    return Spectrum2D(values=f, dt=grid.dt, carrier=carrier_offset)


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


def find_peaks(spec: Spectrum2D, threshold: float) -> list[Peak]:
    """Local maxima above threshold * max, centroid-refined on 3x3 patches
    in bins of 2 pi / (m dt) on each axis, largest first.  A maximum
    exceeds its 4 neighbours earlier in raster order and is >= the 4 later
    ones, so of two tied neighbours only the earlier is a peak: a 2-bin or
    2 x 2 plateau is one peak, refined to its centre.  Magnitudes are
    compared rounded to 1e-12 of the maximum, and ties are ordered by
    ascending (omega1, omega3).  A one-bin spectrum is one peak at the
    carrier."""
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
            neighbour = padded[1 + di : padded.shape[0] - 1 + di, 1 + dj : padded.shape[1] - 1 + dj]
            is_max &= core > neighbour if (di, dj) < (0, 0) else core >= neighbour
    d1, d3 = (2 * np.pi / (m * spec.dt) for m in mag.shape)
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


def notch_carrier(spec: Spectrum2D) -> Spectrum2D:
    """Zero the 3x3 bins around the carrier, bin (m1 // 2, m3 // 2), where
    fftshift puts the zero frequency (baseline removal)."""
    i, j = (m // 2 for m in spec.values.shape)
    values = spec.values.copy()
    values[max(i - 1, 0) : i + 2, max(j - 1, 0) : j + 2] = 0.0
    return replace(spec, values=values)
