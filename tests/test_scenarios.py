import csv
import dataclasses

import numpy as np
import pytest

from ionspec2d import dynamics, protocol, scenarios
from ionspec2d.cli import build_config, run_scenario
from ionspec2d.dynamics import LindbladModel, PropagatorSizeError
from ionspec2d.fock import FockRegister, thermal_state
from ionspec2d.protocol import PulseSequence, SignalRealityError, grid_points, scan
from ionspec2d.spectrum import Peak
from test_protocol import ASYMMETRIC, _heated_exchange

OMEGA_ZZ = 2 * np.pi * 130e3
OMEGA_T = 2 * np.pi * 6e3


class TestPredictedResonancePeaks:
    def test_labels_and_carrier_without_mirror(self):
        pred = scenarios.predicted_resonance_peaks(OMEGA_ZZ, OMEGA_T)
        assert sorted(pred) == sorted(
            ["a", "b", "b'", "c", "c'", "d", "d'", "e", "e'", "f", "f'"]
        )
        assert pred["a"] == (-OMEGA_ZZ, -OMEGA_ZZ)

    def test_primed_peaks_mirror_through_the_carrier(self):
        pred = scenarios.predicted_resonance_peaks(OMEGA_ZZ, OMEGA_T)
        carrier = pred["a"]
        for label in "bcdef":
            (x1, x3), (m1, m3) = pred[label], pred[label + "'"]
            assert x1 + m1 == pytest.approx(2 * carrier[0], abs=1e-6)
            assert x3 + m3 == pytest.approx(2 * carrier[1], abs=1e-6)
            assert (x1, x3) != (m1, m3)

    def test_sign_of_coupling_does_not_move_peaks(self):
        assert scenarios.predicted_resonance_peaks(
            OMEGA_ZZ, -OMEGA_T
        ) == scenarios.predicted_resonance_peaks(OMEGA_ZZ, OMEGA_T)


class TestLabelPeaks:
    def test_tolerance_edge_is_inclusive(self):
        inside = Peak(omega1=1.5, omega3=-1.0, magnitude=1.0)
        outside = Peak(omega1=100.0, omega3=1.5000001, magnitude=2.0)
        scenarios.label_peaks(
            [inside, outside], {"x": (0.0, 0.0), "y": (100.0, 0.0)}, tol=1.5
        )
        assert (inside.label, outside.label) == ("x", "")

    def test_nearest_peak_within_tolerance_wins(self):
        far = Peak(omega1=1.0, omega3=0.0, magnitude=5.0)
        near = Peak(omega1=0.2, omega3=-0.3, magnitude=1.0)
        scenarios.label_peaks([far, near], {"x": (0.0, 0.0)}, tol=1.5)
        assert (far.label, near.label) == ("", "x")

    def test_one_label_per_peak(self):
        # both predictions are nearest to the same peak: the first keeps it,
        # the second is not moved onto another peak
        shared = Peak(omega1=0.0, omega3=0.0, magnitude=1.0)
        other = Peak(omega1=1.2, omega3=0.0, magnitude=1.0)
        scenarios.label_peaks(
            [shared, other], {"x": (0.1, 0.0), "y": (0.3, 0.0)}, tol=1.5
        )
        assert (shared.label, other.label) == ("x", "")


class TestResonanceReference:
    def test_paper_peaks_assigned(self, tmp_path):
        # reference settings: dims (9, 6), heating (0.2, 0.1) quanta/ms, 189x189
        manifest = run_scenario(
            build_config({"scenario": "resonance", "out_dir": str(tmp_path)})
        )
        assert manifest["status"] == "ok"
        with open(tmp_path / "peaks.csv") as fh:
            peaks = {r["label"]: r for r in csv.DictReader(fh) if r["label"]}
        derived = manifest["derived"]
        pred = scenarios.predicted_resonance_peaks(
            2 * np.pi * derived["omega_zz_hz"], 2 * np.pi * derived["omega_t_hz"]
        )
        cfg = build_config({"scenario": "resonance"})
        n = grid_points(cfg.t_max_s, cfg.dt_s)
        assert n == 189
        bin_width = 2 * np.pi / (n * cfg.dt_s)
        # f and f' are not found at the 0.05 peak threshold, so they are not pinned
        expected = ["a", "b", "b'", "c", "c'", "d", "d'", "e", "e'"]
        assert set(expected) <= set(peaks)
        for label in expected:
            w1, w3 = pred[label]
            got = peaks[label]
            assert abs(float(got["omega1_rad_s"]) - w1) <= 1.5 * bin_width, label
            assert abs(float(got["omega3_rad_s"]) - w3) <= 1.5 * bin_width, label


KHZ = 2 * np.pi * 1e3
DT = 25.3e-6


def _kerr_model():
    """Small register with unequal, non-commensurate spectator rates, so no
    two sector shifts coincide and the shift distribution has no symmetry."""
    return scenarios.KerrModel(
        omega_si=2.6 * KHZ,
        delta_zz=0.9 * KHZ,
        rate_y=1.234 * KHZ,
        rate_eg=-0.5 * np.sqrt(3.0) * KHZ,
        dims=(5, 3, 4),
        nbar=(0.8, 1.5, 2.5),
    )


def _sector_loop(model, seq, t_max, dt):
    """The thermal sector average term by term: one protocol.scan of the
    shifted zigzag Hamiltonian per spectator occupation (n_y, n_eg)."""
    d = model.dims[0]
    n = np.arange(d)
    reg = FockRegister(dims=(d,), labels=("zz",))
    rho0, _ = thermal_state(model.nbar[0], d)
    p_y = np.diag(thermal_state(model.nbar[1], model.dims[1])[0]).real
    p_eg = np.diag(thermal_state(model.nbar[2], model.dims[2])[0]).real
    total = 0.0
    for n_y in range(model.dims[1]):
        for n_eg in range(model.dims[2]):
            shift = model.delta_zz + model.rate_y * n_y + model.rate_eg * n_eg
            h = np.diag(0.5 * model.omega_si * n * (n - 1) + shift * n).astype(complex)
            grid = scan(LindbladModel(hamiltonian=h, register=reg), rho0, seq, t_max, dt)
            total = total + p_y[n_y] * p_eg[n_eg] * grid.values
    return total


class TestKerrSpectators:
    @pytest.mark.parametrize(
        "n_ions, omega_x_hz, omega_y_hz", [(3, 3.1012e6, 5e6), (4, 5e6, 6e6), (5, 5e6, 6e6)]
    )
    def test_rates_of_y_zigzag_and_highest_axial_mode(
        self, n_ions, omega_x_hz, omega_y_hz, tmp_path
    ):
        # the tables name the modes: y_N is the y zigzag and z_N the highest
        # axial mode (the Egyptian mode at N = 3), whatever the ion number
        trap = {"n_ions": n_ions, "omega_x_hz": omega_x_hz, "omega_y_hz": omega_y_hz}
        run_scenario(build_config({"scenario": "tables", "out_dir": str(tmp_path), **trap}))
        with open(tmp_path / "dephasing_rates_khz.csv") as fh:
            table = {row["order"]: row for row in csv.DictReader(fh)}["effective"]
        data = scenarios.derive_modes(build_config({"scenario": "kerr", **trap}).trap())
        model = scenarios.kerr_model_from_params(scenarios.kerr_parameters(data))
        assert model.rate_y / KHZ == pytest.approx(float(table[f"od_y{n_ions}"]), rel=1e-12)
        assert model.rate_eg / KHZ == pytest.approx(float(table[f"od_z{n_ions}"]), rel=1e-12)


class TestKerrSectorAverage:
    def test_matches_sector_loop(self):
        # the asymmetric cycle catches swapped or conjugated phase weights,
        # which the default (1, -1, -1) on a 4 x 4 x 4 grid cannot
        for seq in (PulseSequence(), ASYMMETRIC):
            fast = scenarios.kerr_scan_fast(_kerr_model(), seq, 10 * DT, DT)
            oracle = _sector_loop(_kerr_model(), seq, 10 * DT, DT)
            assert fast.values.shape == (11, 11)
            scale = np.max(np.abs(oracle))
            assert scale > 1e-6  # a signal to compare
            assert np.max(np.abs(fast.values - oracle)) <= 1e-12 * scale

    def test_one_point_grid(self):
        model, seq = _kerr_model(), PulseSequence()
        fast = scenarios.kerr_scan_fast(model, seq, 0.5 * DT, DT)
        oracle = _sector_loop(model, seq, 0.5 * DT, DT)
        assert fast.values.shape == (1, 1)
        assert abs(fast.values[0, 0] - oracle[0, 0]) <= 1e-12 * abs(oracle[0, 0])

    def test_spectator_in_ground_state(self):
        # nbar = 0 puts the y zigzag in |0>: its factor of chi is exactly 1
        model = dataclasses.replace(_kerr_model(), nbar=(0.8, 0.0, 2.5))
        seq = PulseSequence()
        fast = scenarios.kerr_scan_fast(model, seq, 6 * DT, DT)
        oracle = _sector_loop(model, seq, 6 * DT, DT)
        scale = np.max(np.abs(oracle))
        assert scale > 1e-6
        assert np.max(np.abs(fast.values - oracle)) <= 1e-12 * scale

    def test_million_level_spectator(self):
        # at nbar = 0.5 the thermal weight beyond 30 levels is 3^-30 ~ 5e-15,
        # so a 10^6-level y zigzag must match the 30-level sector loop
        model = dataclasses.replace(_kerr_model(), dims=(5, 10**6, 4), nbar=(0.8, 0.5, 2.5))
        seq = PulseSequence()
        fast = scenarios.kerr_scan_fast(model, seq, 2 * DT, DT)
        oracle = _sector_loop(dataclasses.replace(model, dims=(5, 30, 4)), seq, 2 * DT, DT)
        scale = np.max(np.abs(oracle))
        assert scale > 1e-6
        assert np.max(np.abs(fast.values - oracle)) <= 1e-12 * scale

    @pytest.mark.parametrize("engine", ["kerr_scan_fast", "scan"])
    def test_non_hermitian_state_raises(self, engine, monkeypatch):
        # every pulse acts by conjugation and the lines are Hermitian up to
        # rounding, so the skew is injected into each line just before
        # dynamics._hermitize, which bounds it and then removes it
        exact = dynamics._hermitize

        def skewed(ops):
            ops = ops.copy()
            ops[..., 0, 1] += 1e-3j
            return exact(ops)

        monkeypatch.setattr(dynamics, "_hermitize", skewed)
        with pytest.raises(SignalRealityError, match="imaginary"):
            if engine == "kerr_scan_fast":
                scenarios.kerr_scan_fast(_kerr_model(), PulseSequence(), 6 * DT, DT)
            else:
                model, rho0 = _heated_exchange()
                scan(model, rho0, PulseSequence(), 6 * DT, DT)

    def test_memory_guard_trips_before_any_work(self, monkeypatch):
        def no_pulses(*args, **kwargs):
            pytest.fail("pulse operators built before the memory guard")

        monkeypatch.setattr(protocol, "pulse_operator", no_pulses)
        # 6001 grid points: the chi tables of one order alone need ~11 GiB
        with pytest.raises(PropagatorSizeError, match="GiB"):
            scenarios.kerr_scan_fast(_kerr_model(), PulseSequence(), 6000 * DT, DT)
