import csv

import numpy as np
import pytest

from ionspec2d import dynamics, fock, matio, protocol, scenarios, spectrum
from ionspec2d.cli import build_config, run_scenario
from ionspec2d.dynamics import LindbladModel, PropagatorSizeError
from ionspec2d.fock import thermal_state
from ionspec2d.protocol import PulseSequence, SignalRealityError, grid_points, scan
from ionspec2d.spectrum import Peak, Spectrum2D, find_peaks
from oracles import fwhm, resonant_manifolds, tilt
from test_protocol import ASYMMETRIC, _heated_exchange

OMEGA_ZZ = 2 * np.pi * 130e3
OMEGA_T = 2 * np.pi * 6e3


def _exchange_peaks(omega_t, dims=(9, 6)):
    model = scenarios.resonance_model(omega_t, dims, (200.0, 100.0))
    return scenarios.predicted_peaks(model, OMEGA_ZZ, scenarios.RESONANCE_LETTERS)


PEAK_AXES = ("omega1_rad_s", "omega3_rad_s")


@pytest.mark.parametrize(
    "raw",
    [
        {"scenario": "kerr"},
        {"scenario": "resonance"},
        {"scenario": "tables", "n_ions": 20, "omega_x_hz": 2.0e7, "omega_y_hz": 2.2e7},
    ],
    ids=["kerr", "resonance", "tables-n20"],
)
def test_zigzag_frequency_is_the_radial_formula(raw):
    # omega_zz is the x zigzag's entry of NormalModes.omega_radial_x, bit for
    # bit the sqrt(gamma_x[-1]) omega_z it used to restate
    data = scenarios.derive_modes(build_config(raw).trap())
    assert data.omega_zz == float(np.sqrt(data.modes.gamma_x[-1]) * data.trap.omega_z)
    assert type(data.omega_zz) is float


def _nearest_peaks(peaks, reference, step):
    """[(peak, nearest reference peak, distance in bins)] over ``peaks``,
    rows of peaks.csv, the distance the larger of the two axes' offsets
    over their bin ``step`` (omega1, omega3)."""
    def bins(p, q):
        return max(abs(float(p[axis]) - float(q[axis])) / h for axis, h in zip(PEAK_AXES, step))

    return [(p, *min(((q, bins(p, q)) for q in reference), key=lambda m: m[1])) for p in peaks]


class TestPredictedResonancePeaks:
    def test_labels_and_carrier_without_mirror(self):
        pred = _exchange_peaks(OMEGA_T)
        # in table order, each letter before its prime: label_peaks gives
        # a shared peak to the first
        assert list(pred) == ["a", "b", "b'", "c", "c'", "d", "d'", "e", "e'", "f", "f'"]
        assert pred["a"] == (-OMEGA_ZZ, -OMEGA_ZZ)

    def test_primed_peaks_mirror_through_the_carrier(self):
        pred = _exchange_peaks(OMEGA_T)
        carrier = pred["a"]
        for label in "bcdef":
            (x1, x3), (m1, m3) = pred[label], pred[label + "'"]
            assert x1 + m1 == pytest.approx(2 * carrier[0], abs=1e-6)
            assert x3 + m3 == pytest.approx(2 * carrier[1], abs=1e-6)
            assert (x1, x3) != (m1, m3)

    def test_sign_of_coupling_does_not_move_peaks(self):
        plus, minus = _exchange_peaks(OMEGA_T), _exchange_peaks(-OMEGA_T)
        assert list(minus) == list(plus)
        np.testing.assert_allclose(list(minus.values()), list(plus.values()), rtol=0, atol=1e-6)

    def test_closed_form_at_zero_detuning(self):
        # the exactly resonant blocks Q = 2, 3, 4 hold +-sqrt2, +-sqrt6 and
        # (-4, 0, 4) in units of |Omega_T|; primes are point reflections
        s2, s6, t = np.sqrt(2.0), np.sqrt(6.0), abs(OMEGA_T)
        shifts = {
            "a": (0.0, 0.0),
            "b": (0.0, s2),
            "c": (s6 - s2, s6 - s2),
            "d": (s2, s2),
            "e": (s6 - s2, 4.0 - s6),
            "f": (s6 + s2, s6 + s2),
        }
        expected = {}
        for label, (x1, x3) in shifts.items():
            expected[label] = (-OMEGA_ZZ + x1 * t, -OMEGA_ZZ + x3 * t)
            if label != "a":
                expected[label + "'"] = (-OMEGA_ZZ - x1 * t, -OMEGA_ZZ - x3 * t)
        for dims in ((9, 6), (5, 3)):
            pred = _exchange_peaks(OMEGA_T, dims)
            assert pred.keys() == expected.keys(), dims
            for label, pos in expected.items():
                np.testing.assert_allclose(pred[label], pos, rtol=1e-14, atol=1e-9 * t, err_msg=label)

    def test_blocks_match_the_manifold_oracle(self):
        # the same letters read from the hand-built blocks of the oracle,
        # with the trivial blocks Q = 0, 1 added
        levels = {0: np.zeros(1), 1: np.zeros(1)}
        levels |= {m.charge: m.eigenvalues for m in resonant_manifolds(OMEGA_T, 5)}
        pred = _exchange_peaks(OMEGA_T)
        for letter, moves in scenarios.RESONANCE_LETTERS.items():
            for name, order in ((letter, 1), (letter + "'", -1)):
                if name in pred:
                    pos = [-OMEGA_ZZ + levels[q][::order][j] - levels[q + 1][::order][i] for q, i, j in moves]
                    np.testing.assert_allclose(pred[name], pos, rtol=1e-14, err_msg=name)
        assert len(pred) == 2 * len(scenarios.RESONANCE_LETTERS) - 1  # all but a'

    def test_truncated_register_drops_the_letters_its_blocks_cannot_hold(self):
        # at dims (2, 2) the charge blocks Q = 0..3 hold one state each
        # (|2_zz> and |3_zz> are cut) and Q = 4 is empty: e and f need a
        # second state or the Q = 4 block, and with one state per block a
        # prime names the same transitions as its letter.  The exchange
        # a_zz^2 vanishes, so what is left sits at the carrier
        pred = _exchange_peaks(OMEGA_T, (2, 2))
        assert list(pred) == ["a", "b", "c", "d"]
        for pos in pred.values():
            assert pos == (-OMEGA_ZZ, -OMEGA_ZZ)


class TestResonanceFrame:
    def test_paper_frame_model_gives_the_same_scan_and_peaks(self, resonance_data):
        # the paper's H = Omega_T (a^2 c^+ + h.c.), whose generator is
        # complex, against resonance_model's real frame S = diag(i^n_str):
        # the same jumps and charge weights, the same run at dims (5, 3)
        cfg = build_config({"scenario": "resonance", "dims": [5, 3], "grid_scale": 0.25})
        omega_t = scenarios.resonance_parameters(resonance_data).omega_t
        rates = tuple(1e3 * r for r in cfg.heating_quanta_per_ms)
        model = scenarios.resonance_model(omega_t, (5, 3), rates)
        a = fock.embed(fock.destroy(5), 0, model.dims)
        c = fock.embed(fock.destroy(3), 1, model.dims)
        paper = LindbladModel(
            hamiltonian=omega_t * (a @ a @ c.conj().T + a.conj().T @ a.conj().T @ c),
            dims=model.dims,
            collapse_ops=model.collapse_ops,
            charge_weights=(1, 2),
        )
        assert paper.generator[0].dtype == np.complex128
        assert model.generator[0].dtype == np.float64
        rho0 = scenarios.resonance_initial_state((5, 3), tuple(cfg.nbar))
        grids = [scan(m, rho0, cfg.sequence(), cfg.effective_t_max, cfg.dt_s).values for m in (paper, model)]
        assert np.max(np.abs(grids[1] - grids[0])) <= 1e-12 * np.max(np.abs(grids[0]))
        peaks = [scenarios.predicted_peaks(m, OMEGA_ZZ, scenarios.RESONANCE_LETTERS) for m in (paper, model)]
        assert peaks[1] == peaks[0]


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
        cfg = build_config({"scenario": "resonance"})
        model = scenarios.resonance_model(2 * np.pi * derived["omega_t_hz"], cfg.dims, (200.0, 100.0))
        pred = scenarios.predicted_peaks(model, 2 * np.pi * derived["omega_zz_hz"], scenarios.RESONANCE_LETTERS)
        n = grid_points(cfg.effective_t_max, cfg.dt_s)
        assert n == 189
        bin_width = 2 * np.pi / (n * cfg.dt_s)
        # f and f' (1.1 % of max) are below the run's 0.05 peak threshold
        expected = ["a", "b", "b'", "c", "c'", "d", "d'", "e", "e'"]
        assert set(expected) <= set(peaks)
        for label in expected:
            w1, w3 = pred[label]
            got = peaks[label]
            assert abs(float(got["omega1_rad_s"]) - w1) <= 1.5 * bin_width, label
            assert abs(float(got["omega3_rad_s"]) - w3) <= 1.5 * bin_width, label
        # so they are found as local maxima of the written spectrum at 0.008,
        # whose step and carrier (the middle bin) the manifest's axis records
        axis = manifest["spectrum_axes"]["omega1_rad_s"]
        spec = Spectrum2D(
            values=matio.read_matrix(tmp_path / "spectrum.bin"),
            dt=2 * np.pi / (axis["count"] * axis["step"]),
            carrier=axis["start"] + axis["count"] // 2 * axis["step"],
        )
        faint = find_peaks(spec, threshold=0.008)
        scenarios.label_peaks(faint, pred, 1.5 * bin_width)
        found = {p.label: p for p in faint if p.label}
        for label in ("f", "f'"):
            w1, w3 = pred[label]
            assert abs(found[label].omega1 - w1) <= 1.5 * bin_width, label
            assert abs(found[label].omega3 - w3) <= 1.5 * bin_width, label

    def test_peaks_converged_against_a_finer_truncation(self, tmp_path):
        # the reference (9, 6) against (11, 8): each finer peak matched to
        # the nearest reference peak, by Chebyshev distance in bins as
        # label_peaks measures it; measured 19 peaks each, a largest shift of
        # 0.00084 bins and |S| ratios (reference over finer) 0.9983-1.0012,
        # every label kept; (5, 3) against (9, 6) reads 0.059 bins and 0.79-1.03
        runs, steps = {}, set()
        for dims in ((9, 6), (11, 8)):
            out = tmp_path / "x".join(map(str, dims))
            raw = {"scenario": "resonance", "dims": list(dims), "out_dir": str(out)}
            manifest = run_scenario(build_config(raw))
            assert manifest["status"] == "ok"
            steps.add(tuple(manifest["spectrum_axes"][axis]["step"] for axis in PEAK_AXES))
            with open(out / "peaks.csv") as fh:
                runs[dims] = list(csv.DictReader(fh))
        (step,) = steps  # one grid for both truncations
        pairs = _nearest_peaks(runs[(11, 8)], runs[(9, 6)], step)
        assert len(runs[(11, 8)]) == len(runs[(9, 6)]) > 0
        shifts = [shift for _, _, shift in pairs]
        assert max(shifts) <= 1.5, "a finer peak has no partner within 1.5 bins"
        assert max(shifts) <= 0.01
        ratios = [float(ref["magnitude"]) / float(fine["magnitude"]) for fine, ref, _ in pairs]
        assert 0.99 <= min(ratios) and max(ratios) <= 1.01, (min(ratios), max(ratios))
        assert [fine["label"] for fine, _, _ in pairs] == [ref["label"] for _, ref, _ in pairs]

    def test_small_run_makes_no_complex_solve(self, tmp_path, monkeypatch):
        # the exchange is written where its generator is real, so every
        # sector map is exponentiated in float64 with a real Pade solve
        solve, real_solves = np.linalg.solve, []

        def real_only(a, b):
            if np.iscomplexobj(a) or np.iscomplexobj(b):
                pytest.fail("complex LU solve in a resonance run")
            real_solves.append(a.shape)
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", real_only)
        raw = {"scenario": "resonance", "dims": [5, 3], "grid_scale": 0.1, "out_dir": str(tmp_path)}
        assert run_scenario(build_config(raw))["status"] == "ok"
        assert real_solves


# anisotropy 1e-4 above the three-ion resonance 20/63: 2 omega_zz - omega_str
# is -2291.5 Hz, 0.39 Omega_T, which the exchange model omits
DETUNED_OMEGA_X_HZ = 2.0e6 / np.sqrt(20.0 / 63.0 + 1e-4)


class TestDecoherenceSignatures:
    """The paper's reading of the decoherence channels from the 2D peak
    shapes (ROADMAP item 8): a static spread of shifts, the kerr
    spectators' dephasing, stretches the strongest peak along the diagonal;
    heating widens it round; laser phase noise at 300 rad^2/s costs
    contrast, not shape.  The reference widths are near one grid bin, so
    every run is read at ``zero_pad`` 2: widths (``oracles.fwhm`` through
    the strongest peak) in padded bins, the tilt (``oracles.tilt``) in a
    window of +-6 grid bins."""

    ZERO_PAD = 2

    def _shape(self, tmp_path, monkeypatch, **raw) -> tuple[float, float, float]:
        """(tilt, omega1 width, omega3 width) of the run's final spectrum."""
        seen = []
        find_peaks = spectrum.find_peaks
        monkeypatch.setattr(spectrum, "find_peaks", lambda spec, **kw: seen.append(spec) or find_peaks(spec, **kw))
        run_scenario(build_config(dict(raw, zero_pad=self.ZERO_PAD, out_dir=str(tmp_path))))
        monkeypatch.undo()
        (spec,) = seen
        strongest = find_peaks(spec, threshold=0.05)[0]
        widths = (fwhm(spec, strongest, axis) / spec.bin_width for axis in ("omega1", "omega3"))
        return (tilt(spec, 6 * self.ZERO_PAD), *widths)

    def test_spectators_tilt_the_kerr_peak(self, tmp_path, monkeypatch):
        # 0.70 with the reference spectators (nbar 4), 0.004 without
        assert self._shape(tmp_path / "a", monkeypatch, scenario="kerr")[0] > 0.5
        assert abs(self._shape(tmp_path / "b", monkeypatch, scenario="kerr", nbar=[1, 0, 0])[0]) < 0.1

    def test_heating_widens_the_resonance_peak_round(self, tmp_path, monkeypatch):
        # 2.43 padded bins on both axes heating-free; 11.3 and 11.7 with
        # heating (2.0, 1.0) quanta/ms, at tilt 0.034
        _, *free = self._shape(tmp_path / "a", monkeypatch, scenario="resonance", heating_quanta_per_ms=[0, 0])
        lean, *heated = self._shape(tmp_path / "b", monkeypatch, scenario="resonance", heating_quanta_per_ms=[2, 1])
        assert all(w > 3 * w0 for w, w0 in zip(heated, free))
        assert abs(lean) < 0.1

    def test_phase_noise_keeps_the_resonance_width(self, tmp_path, monkeypatch):
        # 2.43 against 2.47 padded bins: a contrast loss, not a shape
        raw = {"scenario": "resonance", "heating_quanta_per_ms": [0, 0]}
        _, *free = self._shape(tmp_path / "a", monkeypatch, **raw)
        _, *noisy = self._shape(tmp_path / "b", monkeypatch, **raw, phase_noise_diffusion=300.0)
        assert noisy == pytest.approx(free, rel=0.05)


class TestDetuningGuard:
    """A resonance run warns when the detuning that its exchange model omits
    exceeds the peak-label tolerance, 1.5 bins of its own spectrum."""

    @staticmethod
    def _run(tmp_path, **raw):
        cfg = {"scenario": "resonance", "dims": [5, 3], "grid_scale": 0.25, "out_dir": str(tmp_path)}
        return run_scenario(build_config(cfg | raw))

    def _assert_warns_with_detuning(self, tmp_path, **raw):
        with pytest.warns(UserWarning, match="detuning") as record:
            manifest = self._run(tmp_path, **raw)
        detuning = f"{manifest['derived']['detuning_hz']:.1f} Hz"
        assert any(detuning in str(w.message) for w in record)
        assert any(detuning in w["message"] for w in manifest["warnings"])

    def test_detuned_run_warns(self, tmp_path):
        # 2291.5 Hz against 1.5 bins of 500 Hz at the full grid
        self._assert_warns_with_detuning(tmp_path, omega_x_hz=DETUNED_OMEGA_X_HZ, grid_scale=1.0)

    def test_two_ion_run_warns(self, tmp_path):
        # 20/63 is the three-ion resonance: two ions are 2.40 MHz off
        self._assert_warns_with_detuning(tmp_path, n_ions=2)

    def test_reference_trap_does_not_warn(self, tmp_path):
        # the reference detuning is rounding of 20/63, about 1e-9 Hz
        assert self._run(tmp_path)["warnings"] == []
        assert self._run(tmp_path, grid_scale=1.0)["warnings"] == []

    def test_tolerance_is_the_runs_bin_width(self, tmp_path):
        # the same 2291.5 Hz is within 1.5 bins of 1965 Hz on the coarser
        # quarter grid, where the labels cannot tell it apart
        manifest = self._run(tmp_path, omega_x_hz=DETUNED_OMEGA_X_HZ)
        assert manifest["warnings"] == []
        assert abs(manifest["derived"]["detuning_hz"]) == pytest.approx(2291.5, abs=0.1)


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
    rho0 = thermal_state(model.nbar[0], d)
    p_y = np.diag(thermal_state(model.nbar[1], model.dims[1])).real
    p_eg = np.diag(thermal_state(model.nbar[2], model.dims[2])).real
    total = 0.0
    for n_y in range(model.dims[1]):
        for n_eg in range(model.dims[2]):
            shift = model.delta_zz + model.rate_y * n_y + model.rate_eg * n_eg
            h = np.diag(0.5 * model.omega_si * n * (n - 1) + shift * n).astype(complex)
            grid = scan(LindbladModel(hamiltonian=h, dims=(d,)), rho0, seq, t_max, dt)
            total = total + p_y[n_y] * p_eg[n_eg] * grid.values
    return total


def _all_orders_scan(model, seq, t_max, dt):
    """kerr_scan_fast contracting every coherence order D1 and D3, the
    2d - 1 on each side, with no pathway selection: the reference of the
    kept-order contraction."""
    d = model.dims[0]
    n = grid_points(t_max, dt)
    zz = LindbladModel(hamiltonian=model.zz_hamiltonian(), dims=(d,))
    rho0 = thermal_state(model.nbar[0], d)
    d1, cycled, observable = protocol._pulse_set(zz, seq)
    line, covector, _, _ = dynamics.evolution_lines(
        zz, d1 @ rho0 @ d1.conj().T, observable, n, dt, ((0, 1), (0, 1))
    )
    m_max = (d - 1) * (2 * n - 2)
    m_dt = np.arange(-m_max, m_max + 1) * dt
    chi = (
        np.exp(-1j * model.delta_zz * m_dt)
        * scenarios._thermal_characteristic(model.nbar[1], model.dims[1], model.rate_y * m_dt)
        * scenarios._thermal_characteristic(model.nbar[2], model.dims[2], model.rate_eg * m_dt)
    )
    orders = np.arange(1 - d, d)
    entry_order = np.subtract.outer(np.arange(d), np.arange(d)).ravel()
    k = np.arange(n)
    values = np.zeros((n, n), dtype=complex)
    for o1 in orders:
        cols1 = entry_order == o1
        states = line[:, cols1] @ cycled[:, cols1].T  # (k1, entry)
        for o3 in orders:
            cols3 = entry_order == o3
            values += chi[np.add.outer(o1 * k, o3 * k) + m_max] * (states[:, cols3] @ covector[:, cols3].T)
    return values


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
        model = scenarios.kerr_model_from_params(
            scenarios.kerr_parameters(data), dims=(9, 15, 15), nbar=(1.0, 4.0, 4.0)
        )
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

    @pytest.mark.parametrize("seq", [PulseSequence(), ASYMMETRIC], ids=["default", "asymmetric"])
    def test_kept_orders_match_all_orders(self, seq):
        # only the orders the cycle keeps are contracted (default: 4 of 17 on
        # each side; ASYMMETRIC keeps every forward order, gcd(3, 4, 5) = 1);
        # the others hold only rounding
        model = _kerr_model()._replace(dims=(9, 15, 15), nbar=(1.0, 4.0, 4.0))
        fast = scenarios.kerr_scan_fast(model, seq, 8 * DT, DT)
        reference = _all_orders_scan(model, seq, 8 * DT, DT)
        scale = np.max(np.abs(reference))
        assert scale > 1e-6
        assert np.max(np.abs(fast.values - reference)) <= 1e-12 * scale

    def test_cycle_keeping_no_covector_order(self):
        # D3 in -5 + 11Z holds no order of a 5-level zigzag: nothing reaches
        # the signature, and the sector loop reads rounding alone
        model, seq = _kerr_model(), PulseSequence(n_phases=(4, 4, 11), signature=(1, -1, 5))
        fast = scenarios.kerr_scan_fast(model, seq, 6 * DT, DT)
        assert fast.values.shape == (7, 7)
        assert not np.any(fast.values)
        assert np.max(np.abs(_sector_loop(model, seq, 6 * DT, DT))) <= 1e-15

    def test_one_point_grid(self):
        model, seq = _kerr_model(), PulseSequence()
        fast = scenarios.kerr_scan_fast(model, seq, 0.5 * DT, DT)
        oracle = _sector_loop(model, seq, 0.5 * DT, DT)
        assert fast.values.shape == (1, 1)
        assert abs(fast.values[0, 0] - oracle[0, 0]) <= 1e-12 * abs(oracle[0, 0])

    def test_spectator_in_ground_state(self):
        # nbar = 0 puts the y zigzag in |0>: its factor of chi is exactly 1
        model = _kerr_model()._replace(nbar=(0.8, 0.0, 2.5))
        seq = PulseSequence()
        fast = scenarios.kerr_scan_fast(model, seq, 6 * DT, DT)
        oracle = _sector_loop(model, seq, 6 * DT, DT)
        scale = np.max(np.abs(oracle))
        assert scale > 1e-6
        assert np.max(np.abs(fast.values - oracle)) <= 1e-12 * scale

    def test_characteristic_of_a_huge_nbar_is_uniform(self):
        # q = nbar/(1 + nbar) rounds to 1 at nbar >= 1e16: the truncated
        # thermal law is then the uniform one over the D levels
        phase = np.linspace(-7.0, 7.0, 201)
        for dim in (4, 15):
            uniform = np.exp(-1j * np.outer(phase, np.arange(dim))).mean(axis=1)
            chi = scenarios._thermal_characteristic(1e17, dim, phase)
            assert np.max(np.abs(chi - uniform)) <= 1e-10
        # and the ground state's factor stays exactly 1
        assert np.all(scenarios._thermal_characteristic(0.0, 15, phase) == 1.0)

    def test_reference_grid_against_the_geometric_closed_form(self, monkeypatch):
        # the characteristic in r = 1/(1 + nbar) moves the reference kerr
        # grid by rounding alone from (1 - q)/(1 - q^D) (1 - x^D)/(1 - x),
        # x = q exp(-i phase)
        def geometric(nbar, dim, phase):
            q = nbar / (1.0 + nbar)
            x, x_dim = q * np.exp(-1j * phase), q**dim * np.exp(-1j * dim * phase)
            return (1.0 - q) / (1.0 - q**dim) * (1.0 - x_dim) / (1.0 - x)

        cfg = build_config({"scenario": "kerr"})
        model = scenarios.kerr_model_from_params(
            scenarios.kerr_parameters(scenarios.derive_modes(cfg.trap())), dims=cfg.dims, nbar=cfg.nbar
        )
        args = (model, cfg.sequence(), cfg.effective_t_max, cfg.dt_s)
        grid = scenarios.kerr_scan_fast(*args).values
        monkeypatch.setattr(scenarios, "_thermal_characteristic", geometric)
        closed = scenarios.kerr_scan_fast(*args).values
        assert np.max(np.abs(grid - closed)) <= 1e-15 * np.max(np.abs(closed))

    def test_million_level_spectator(self):
        # at nbar = 0.5 the thermal weight beyond 30 levels is 3^-30 ~ 5e-15,
        # so a 10^6-level y zigzag must match the 30-level sector loop
        model = _kerr_model()._replace(dims=(5, 10**6, 4), nbar=(0.8, 0.5, 2.5))
        seq = PulseSequence()
        fast = scenarios.kerr_scan_fast(model, seq, 2 * DT, DT)
        oracle = _sector_loop(model._replace(dims=(5, 30, 4)), seq, 2 * DT, DT)
        scale = np.max(np.abs(oracle))
        assert scale > 1e-6
        assert np.max(np.abs(fast.values - oracle)) <= 1e-12 * scale

    @pytest.mark.parametrize("engine", ["kerr_scan_fast", "scan"])
    def test_non_hermitian_state_raises(self, engine, monkeypatch):
        # every pulse acts by conjugation, so each line equals its conjugate
        # transpose up to rounding; the skew is injected into the entries
        # that dynamics._check_skew compares with their mirrors (the largest
        # live kept sector of each line)
        exact = dynamics._check_skew

        def skewed(ops, mirror):
            ops = ops.copy()
            ops[..., 0, 1] += 1e-3j
            exact(ops, mirror)

        monkeypatch.setattr(dynamics, "_check_skew", skewed)
        with pytest.raises(SignalRealityError, match="imaginary"):
            if engine == "kerr_scan_fast":
                scenarios.kerr_scan_fast(_kerr_model(), PulseSequence(), 6 * DT, DT)
            else:
                model, rho0 = _heated_exchange()
                scan(model, rho0, PulseSequence(), 6 * DT, DT)

    def test_reference_run_needs_no_solve_and_no_einsum(self, monkeypatch):
        # every Kerr sector Liouvillian is diagonal, so each sector map is
        # exp of its diagonal with no LU solve; the couplings are summed from
        # the pair rows in a fixed order with no einsum path search
        cfg = build_config({"scenario": "kerr"})

        def forbidden(*args, **kwargs):
            pytest.fail("forbidden call in a reference kerr run")

        with monkeypatch.context() as patch:
            patch.setattr(np, "einsum", forbidden)
            data = scenarios.derive_modes(cfg.trap())
        model = scenarios.kerr_model_from_params(
            scenarios.kerr_parameters(data), dims=tuple(cfg.dims), nbar=tuple(cfg.nbar)
        )
        monkeypatch.setattr(np.linalg, "solve", forbidden)
        grid = scenarios.kerr_scan_fast(model, cfg.sequence(), cfg.effective_t_max, cfg.dt_s)
        assert grid.values.shape == (80, 80)
        assert np.all(np.isfinite(grid.values)) and np.any(grid.values)

    def test_memory_guard_trips_before_any_work(self, monkeypatch):
        def no_pulses(*args, **kwargs):
            pytest.fail("pulse operators built before the memory guard")

        monkeypatch.setattr(protocol, "displacement", no_pulses)
        # 12,001 grid points: the grid, one block and its chi weight need ~8.6 GiB
        with pytest.raises(PropagatorSizeError, match="GiB"):
            scenarios.kerr_scan_fast(_kerr_model(), PulseSequence(), 12000 * DT, DT)
