import numpy as np
import pytest

from ionspec2d.dynamics import LindbladModel
from ionspec2d.fock import thermal_state
from ionspec2d.protocol import PulseSequence, SignalGrid, scan
from ionspec2d.spectrum import (
    Peak,
    Spectrum2D,
    _window,
    find_peaks,
    fft2,
    notch_carrier,
    project_1d,
)
from oracles import centroid_peaks, fwhm

TWO_PI = 2 * np.pi


def _tone_grid(n=64, dt=2.5e-5, w1=-TWO_PI * 4e3, w3=-TWO_PI * 4e3, decay=0.0):
    t = np.arange(n) * dt
    t1, t3 = np.meshgrid(t, t, indexing="ij")
    values = np.exp(1j * (w1 * t1 + w3 * t3)) * np.exp(-decay * (t1 + t3))
    return SignalGrid(values=values, dt=dt)


class TestFFT2:
    def test_short_cosine_windows_keep_their_values(self):
        # one formula for every length: the one- and two-point windows are
        # bit for bit [1] and [1, cos(pi/2)]
        assert _window(1, "cosine").tobytes() == np.array([1.0]).tobytes()
        assert _window(2, "cosine").tobytes() == np.array([1.0, np.cos(0.5 * np.pi)]).tobytes()

    def test_pure_tone_lands_on_expected_bin(self):
        w0 = TWO_PI * 4e3
        grid = _tone_grid(w1=-w0, w3=-w0)
        spec = fft2(grid)
        i, j = np.unravel_index(np.argmax(spec.magnitude), spec.magnitude.shape)
        assert spec.omega1[i] == pytest.approx(-w0, abs=spec.bin_width / 2)
        assert spec.omega3[j] == pytest.approx(-w0, abs=spec.bin_width / 2)

    def test_carrier_offset_is_pure_relabeling(self):
        grid = _tone_grid()
        base = fft2(grid)
        offset = fft2(grid, carrier_offset=-TWO_PI * 1e5)
        assert np.array_equal(base.values, offset.values)
        np.testing.assert_allclose(
            offset.omega1, base.omega1 - TWO_PI * 1e5, rtol=1e-12
        )

    def test_bin_width_of_reference_grid(self):
        # 80 samples at 25.3 us cover about 2 ms: bins of 2*pi * ~0.5 kHz
        grid = _tone_grid(n=80, dt=25.3e-6)
        spec = fft2(grid)
        assert spec.bin_width == pytest.approx(TWO_PI * 500.0, rel=0.02)

    @pytest.mark.parametrize("zero_pad", [1, 4])
    def test_parseval(self, zero_pad):
        rng = np.random.default_rng(8)
        n = 32
        values = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        grid = SignalGrid(values=values, dt=1e-5)
        spec = fft2(grid, zero_pad=zero_pad)
        time_energy = np.sum(np.abs(values) ** 2)
        freq_energy = np.sum(np.abs(spec.values) ** 2) / spec.values.size
        assert freq_energy == pytest.approx(time_energy, rel=1e-9)

    def test_zero_padding_does_not_move_the_peak(self):
        w0 = TWO_PI * 3.7e3
        grid = _tone_grid(w1=-w0, w3=-w0, decay=600.0)
        p_raw = list(find_peaks(fft2(grid), threshold=0.5))[0]
        p_pad = list(find_peaks(fft2(grid, zero_pad=4), threshold=0.5))[0]
        bin_raw = fft2(grid).bin_width
        assert abs(p_raw.omega1 - p_pad.omega1) < bin_raw
        assert abs(p_raw.omega3 - p_pad.omega3) < bin_raw

    def test_windowed_peak_within_one_bin_of_unwindowed(self):
        w0 = TWO_PI * 5.1e3
        grid = _tone_grid(w1=-w0, w3=-w0, decay=400.0)
        none = fft2(grid, window="none")
        cos = fft2(grid, window="cosine")
        p_none = list(find_peaks(none, threshold=0.5))[0]
        p_cos = list(find_peaks(cos, threshold=0.5))[0]
        assert abs(p_none.omega1 - p_cos.omega1) <= none.bin_width
        assert abs(p_none.omega3 - p_cos.omega3) <= none.bin_width

    def test_one_point_grid_is_one_bin_at_the_carrier(self):
        # the grid that scan returns for t_max < dt: one sample, at t1 = t3 = 0
        dt = 1e-5
        model = LindbladModel(hamiltonian=np.diag([0.0, TWO_PI * 20e3]).astype(complex), dims=(2,))
        grid = scan(model, thermal_state(0.5, 2), PulseSequence(), t_max=dt / 2, dt=dt)
        spec = fft2(grid, carrier_offset=-TWO_PI * 1e5)
        assert spec.values.shape == (1, 1)
        assert spec.omega1.tolist() == spec.omega3.tolist() == [-TWO_PI * 1e5]
        assert spec.values[0, 0] == grid.values[0, 0]
        assert spec.bin_width == TWO_PI / dt
        [peak] = find_peaks(spec, threshold=0.1)
        assert (peak.omega1, peak.omega3, peak.magnitude) == (-TWO_PI * 1e5, -TWO_PI * 1e5, abs(grid.values[0, 0]))

    def test_unequal_sides_share_the_step(self):
        # (4, 6) samples at one step dt: bins 2 pi / (4 dt) apart on omega1
        # and 2 pi / (6 dt) on omega3
        dt = 1e-5
        spec = fft2(SignalGrid(values=np.ones((4, 6), dtype=complex), dt=dt))
        np.testing.assert_allclose(np.diff(spec.omega1), TWO_PI / (4 * dt), rtol=1e-12)
        np.testing.assert_allclose(np.diff(spec.omega3), TWO_PI / (6 * dt), rtol=1e-12)

    def test_rejects_bad_arguments(self):
        grid = _tone_grid(n=8)
        with pytest.raises(ValueError):
            fft2(grid, zero_pad=0)
        with pytest.raises(ValueError):
            fft2(grid, window="hann")


class TestProjection:
    @pytest.mark.parametrize("zero_pad", [1, 2])
    @pytest.mark.parametrize("window", ["none", "cosine"])
    @pytest.mark.parametrize("axis", ["omega1", "omega3"])
    def test_projection_is_fft_of_zero_slice(self, axis, window, zero_pad):
        # projection-slice theorem: the mean over the other frequency axis is
        # the spectrum of the windowed, zero-padded t3 = 0 (t1 = 0) slice
        rng = np.random.default_rng(3)
        n1, n3 = 24, 20
        values = rng.standard_normal((n1, n3)) + 1j * rng.standard_normal((n1, n3))
        grid = SignalGrid(values=values, dt=1e-5)
        proj = project_1d(fft2(grid, window=window, zero_pad=zero_pad), axis)
        slice_ = values[:, 0] if axis == "omega1" else values[0, :]
        n = len(slice_)
        taper = np.cos(0.5 * np.pi * np.arange(n) / (n - 1)) if window == "cosine" else 1.0
        manual = np.fft.fftshift(np.fft.fft(slice_ * taper, n=n * zero_pad))
        np.testing.assert_allclose(proj, manual, rtol=1e-12)

    def test_pure_tone_projection_peak(self):
        w0 = TWO_PI * 6e3
        grid = _tone_grid(w1=-w0, w3=-w0)
        spec = fft2(grid)
        k = np.argmax(np.abs(project_1d(spec, "omega3")))
        assert spec.omega3[k] == pytest.approx(-w0, abs=TWO_PI * 700)

    def test_axis_validation(self):
        with pytest.raises(ValueError):
            project_1d(fft2(_tone_grid(n=8)), "t1")


class TestFindPeaks:
    def _two_bump_spec(self):
        n = 64
        t = np.arange(n) * 1e-5
        w_a, w_b = -TWO_PI * 8e3, TWO_PI * 13e3
        values = (
            np.exp(1j * w_a * (t[:, None] + t[None, :]))
            + 0.5 * np.exp(1j * w_b * (t[:, None] + t[None, :]))
        ) * np.exp(-900.0 * (t[:, None] + t[None, :]))
        return fft2(SignalGrid(values=values, dt=1e-5))

    def test_two_peaks_found_sorted(self):
        spec = self._two_bump_spec()
        peaks = find_peaks(spec, threshold=0.2)
        assert len(peaks) >= 2
        mags = [p.magnitude for p in peaks]
        assert mags == sorted(mags, reverse=True)
        top = list(peaks)[0]
        assert top.omega1 == pytest.approx(-TWO_PI * 8e3, abs=spec.bin_width)
        second = list(peaks)[1]
        assert second.omega1 == pytest.approx(TWO_PI * 13e3, abs=spec.bin_width)

    def test_centroid_beats_bin_quantization(self):
        # tone placed off-bin: centroid refinement should recover it better
        # than half a bin
        n, dt = 48, 1e-5
        w0 = TWO_PI * (4e3 + 0.4 / (n * dt))  # 0.4 bins off-grid
        t = np.arange(n) * dt
        values = np.exp(-1j * w0 * (t[:, None] + t[None, :])) * np.exp(
            -500.0 * (t[:, None] + t[None, :])
        )
        spec = fft2(SignalGrid(values=values, dt=dt))
        p = list(find_peaks(spec, threshold=0.5))[0]
        assert abs(p.omega1 - (-w0)) < 0.5 * spec.bin_width

    @pytest.mark.parametrize("threshold", [0.01, 0.2])
    def test_centroids_match_per_peak_loop(self, threshold):
        # a rough spectrum with maxima on its edges and corners too
        rng = np.random.default_rng(3)
        values = rng.standard_normal((24, 20)) + 1j * rng.standard_normal((24, 20))
        spec = Spectrum2D(values=values, dt=0.05, carrier=-7.0)
        got = [(p.omega1, p.omega3, p.magnitude) for p in find_peaks(spec, threshold)]
        ref = centroid_peaks(spec.omega1, spec.omega3, spec.magnitude, threshold)
        assert len(got) == len(ref) > 10
        np.testing.assert_allclose(got, ref, rtol=1e-15, atol=0)

    def test_rounding_keeps_the_order_of_mirror_pairs(self):
        # a point-symmetric spectrum: each peak at (w1, w3) has a mirror at
        # (-w1, -w3) of equal magnitude, and a perturbation of 1e-16 of the
        # maximum must not swap the rows of any pair
        rng = np.random.default_rng(5)
        half = rng.standard_normal((21, 21)) + 1j * rng.standard_normal((21, 21))
        values = half + half[::-1, ::-1]
        dt = np.pi / 21  # axes of 21 bins 2.0 apart, from -20 to 20
        noise = 1e-16 * np.max(np.abs(values)) * rng.standard_normal(values.shape)
        rows = [
            [(p.omega1, p.omega3) for p in find_peaks(Spectrum2D(values=v, dt=dt), 0.2)]
            for v in (values, values + noise)
        ]
        mags = [p.magnitude for p in find_peaks(Spectrum2D(values=values, dt=dt), 0.2)]
        assert sum(a == b for a, b in zip(mags, mags[1:])) > 10  # mirror pairs tie
        np.testing.assert_allclose(rows[0], rows[1], rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "plateau",
        [
            [(3, 3), (3, 4)],
            [(3, 3), (4, 3)],
            [(3, 3), (3, 4), (4, 3), (4, 4)],
            [(3, 2), (3, 3), (3, 4)],  # refined on its middle bin, not its first
            [(3, 3), (4, 2), (4, 1)],  # (4, 1) has no tied bin before it in raster order
        ],
    )
    def test_plateau_is_one_peak_at_its_centre(self, plateau):
        # tied connected bins of an 8 x 8 spectrum: one peak, centroid-refined
        # to the plateau's centre, as the per-bin oracle finds it
        values = np.zeros((8, 8), dtype=complex)
        for i, j in plateau:
            values[i, j] = 1.0
        spec = Spectrum2D(values=values, dt=0.05, carrier=-7.0)
        peaks = find_peaks(spec, threshold=0.5)
        assert len(peaks) == 1
        rows, cols = np.array(plateau).T
        assert peaks[0].omega1 == pytest.approx(spec.omega1[rows].mean(), abs=1e-12)
        assert peaks[0].omega3 == pytest.approx(spec.omega3[cols].mean(), abs=1e-12)
        ref = centroid_peaks(spec.omega1, spec.omega3, spec.magnitude, 0.5)
        np.testing.assert_allclose([(p.omega1, p.omega3, p.magnitude) for p in peaks], ref, rtol=1e-15, atol=0)

    def test_tied_shoulder_is_no_peak(self):
        # two tied bins beside a larger one lean on it: one peak, the larger
        values = np.zeros((8, 8), dtype=complex)
        values[3, 3:6] = 1.0, 1.0, 2.0
        spec = Spectrum2D(values=values, dt=0.05)
        peaks = find_peaks(spec, threshold=0.2)
        assert [p.magnitude for p in peaks] == [2.0]
        ref = centroid_peaks(spec.omega1, spec.omega3, spec.magnitude, 0.2)
        np.testing.assert_allclose([(p.omega1, p.omega3, p.magnitude) for p in peaks], ref, rtol=1e-15, atol=0)

    def test_threshold_validation(self):
        spec = self._two_bump_spec()
        with pytest.raises(ValueError):
            find_peaks(spec, threshold=0.0)


class TestNotchAndWidth:
    def test_notch_zeroes_carrier_bin(self):
        grid = _tone_grid(w1=0.0, w3=0.0)
        spec = fft2(grid, carrier_offset=-TWO_PI * 2e3)
        # tone at offset 2 kHz above carrier... notch the carrier bin itself
        notched = notch_carrier(spec)
        i = np.argmin(np.abs(spec.omega1 - spec.carrier))
        j = np.argmin(np.abs(spec.omega3 - spec.carrier))
        assert notched.values[i, j] == 0.0
        # energy elsewhere untouched
        mask = np.ones_like(spec.magnitude, dtype=bool)
        mask[i - 1 : i + 2, j - 1 : j + 2] = False
        assert np.array_equal(notched.values[mask], spec.values[mask])

    def test_fwhm_matches_lorentzian_width(self):
        # exponential decay rate g in time gives |S| ~ 1/sqrt(w^2+g^2):
        # half max of |S|^1 at sqrt(3) g... measure against the numeric profile
        # g*t_max ~ 10 so the window contributes little to the line shape
        n, dt, g = 512, 5e-6, 4e3
        t = np.arange(n) * dt
        values = np.exp(-g * (t[:, None] + t[None, :]))
        spec = fft2(SignalGrid(values=values.astype(complex), dt=dt), zero_pad=2)
        p = list(find_peaks(spec, threshold=0.5))[0]
        width = fwhm(spec, p, "omega1")
        # |FT of e^{-gt} theta(t)| = 1/sqrt(w^2+g^2): FWHM = 2*sqrt(3)*g
        assert width == pytest.approx(2 * np.sqrt(3) * g, rel=0.08)

    def test_fwhm_axis_validation(self):
        spec = fft2(_tone_grid(n=16))
        p = Peak(omega1=0.0, omega3=0.0, magnitude=1.0)
        with pytest.raises(ValueError):
            fwhm(spec, p, "w1")
