import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ionspec2d import matio
from ionspec2d.cli import build_config, run_scenario
from ionspec2d.phasenoise import (
    DEFAULT_DIFFUSION,
    LOSS_COLUMNS,
    TABLE_SIGNATURES,
    attenuation,
    contrast_loss,
    loss_table,
)
from oracles import WienerPhaseModel, monte_carlo_loss, sample_paths

# published loss table at t1 = t3 = 2.5 ms, c = 4 pi^2 / 10 (percent,
# rounded to one decimal as printed)
PUBLISHED_LOSS = {
    (1, -1, -1): 1.0,
    (1, -2, -1): 2.5,
    (1, -1, -2): 4.0,
    (2, -2, 1): 1.0,
    (-1, -1, -1): 5.0,
}


class TestContrastLoss:
    def test_published_table_within_rounding(self):
        for sig, published in PUBLISHED_LOSS.items():
            loss = 100 * contrast_loss(sig, 2.5e-3, 2.5e-3)
            assert abs(loss - published) <= 0.1, sig

    def test_diffusion_constant_definition(self):
        # standard deviation 2*pi after 10 s pins c = 4 pi^2 / 10
        assert DEFAULT_DIFFUSION * 10.0 == pytest.approx((2 * np.pi) ** 2, rel=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(
        sig=st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3)),
        t1=st.floats(0.0, 5e-3),
        t3=st.floats(0.0, 5e-3),
    )
    def test_zero_diffusion_is_lossless(self, sig, t1, t3):
        assert contrast_loss(sig, t1, t3, diffusion=0.0) == 0.0

    def test_formula_structure(self):
        # only (p2+p3+p4)^2 weights t1 and p4^2 weights t3
        c = 2.0
        with pytest.warns(UserWarning, match="small-fluctuation"):
            assert contrast_loss((1, -1, 0), 1.0, 0.0, c) == pytest.approx(0.0)
            assert contrast_loss((1, -1, -1), 0.0, 1.0, c) == pytest.approx(c / 2)
            assert contrast_loss((2, -1, -1), 1.0, 0.0, c) == pytest.approx(0.0)

    def test_regime_warning(self):
        with pytest.warns(UserWarning, match="small-fluctuation"):
            contrast_loss((1, -1, -1), 1.0, 1.0, diffusion=1.0)

    def test_array_times_pointwise_and_warn_on_largest(self):
        t = np.array([0.0, 1e-3, 0.2])
        with pytest.warns(UserWarning, match="0.600"):
            loss = contrast_loss((1, -2, -1), t, 2 * t, diffusion=1.0)
        # 0.5 c [(p2+p3+p4)^2 t1 + p4^2 t3] = 0.5 (4 t + 2 t)
        np.testing.assert_allclose(loss, 3.0 * t, rtol=1e-15)


class TestAttenuation:
    def test_exact_factor_without_warning_at_any_strength(self):
        # c*(t1+t3) reaches 6, sixty times the small-fluctuation limit
        t = np.array([0.0, 1e-3, 2e-3])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            factor = attenuation((1, -2, -1), t, 2 * t, diffusion=1e3)
        # exp(-0.5 c [(p2+p3+p4)^2 t1 + p4^2 t3]) = exp(-0.5 c (4 t + 2 t))
        np.testing.assert_allclose(factor, np.exp(-3e3 * t), rtol=1e-14)
        assert factor[0] == 1.0 and factor[-1] > 0.0  # in (0, 1]: no sign flip

    @pytest.mark.parametrize("diffusion", [40.0, 300.0])
    @pytest.mark.parametrize("sig", TABLE_SIGNATURES)
    def test_matches_monte_carlo(self, sig, diffusion):
        # at 40 rad^2/s the quadratic loss is 0.1-0.5 against an exact
        # 0.095-0.39, at 300 rad^2/s 0.75-3.75 against 0.53-0.98
        t1 = t3 = 2.5e-3
        n, seed = 200_000, 17
        mc = monte_carlo_loss(sig, t1, t3, diffusion, n_paths=n, seed=seed)
        # the sample standard error of <cos(phi)>, over the same paths
        paths = sample_paths(WienerPhaseModel(diffusion, seed), np.array([t1, t1 + t3]), n)
        cos = np.cos((sig[0] + sig[1]) * paths[:, 0] + sig[2] * paths[:, 1])
        se = cos.std(ddof=1) / np.sqrt(n)
        assert abs(mc - (1.0 - attenuation(sig, t1, t3, diffusion))) < 4 * se
        # the published quadratic is off by more than that here
        with pytest.warns(UserWarning, match="small-fluctuation"):
            assert abs(mc - contrast_loss(sig, t1, t3, diffusion)) > 4 * se


class TestSamplePaths:
    def test_wiener_statistics(self):
        model = WienerPhaseModel(diffusion=DEFAULT_DIFFUSION, seed=42)
        times = np.array([2.0, 7.0, 10.0])
        n = 100_000
        paths = sample_paths(model, times, n)
        assert paths.shape == (n, 3)
        # mean 0 within 3 standard errors
        for k, t in enumerate(times):
            se = np.sqrt(DEFAULT_DIFFUSION * t / n)
            assert abs(paths[:, k].mean()) < 3 * se
        # Var[X(10)] = 10 c = (2 pi)^2
        var10 = paths[:, 2].var()
        assert var10 == pytest.approx((2 * np.pi) ** 2, rel=0.02)
        # Cov[X(2), X(7)] = 2 c
        cov = np.mean(paths[:, 0] * paths[:, 1])
        assert cov == pytest.approx(2 * DEFAULT_DIFFUSION, rel=0.03)

    def test_seed_reproducibility(self):
        model = WienerPhaseModel(seed=7)
        t = np.array([1.0, 2.0])
        a = sample_paths(model, t, 1000)
        b = sample_paths(model, t, 1000)
        assert np.array_equal(a, b)
        c = sample_paths(WienerPhaseModel(seed=8), t, 1000)
        assert not np.array_equal(a, c)

    def test_time_validation(self):
        model = WienerPhaseModel()
        with pytest.raises(ValueError):
            sample_paths(model, np.array([2.0, 1.0]), 10)
        with pytest.raises(ValueError):
            sample_paths(model, np.array([-1.0, 1.0]), 10)

    def test_negative_diffusion_rejected(self):
        with pytest.raises(ValueError):
            WienerPhaseModel(diffusion=-1.0)


class TestMonteCarlo:
    @pytest.mark.parametrize("sig", TABLE_SIGNATURES)
    def test_attenuation_matches_analytic(self, sig):
        # within 0.2 percentage points at 1e5 paths; the residual is the
        # second-order expansion error, not Monte Carlo noise
        mc = 100 * monte_carlo_loss(sig, 2.5e-3, 2.5e-3, n_paths=100_000, seed=1)
        analytic = 100 * contrast_loss(sig, 2.5e-3, 2.5e-3)
        assert abs(mc - analytic) < 0.2

    def test_gaussian_closed_form(self):
        # the exact attenuation is 1 - exp(-Var/2); Monte Carlo should match
        # it tighter than the quadratic formula
        sig = (-1, -1, -1)
        t1 = t3 = 2.5e-3
        var = DEFAULT_DIFFUSION * (sum(sig) ** 2 * t1 + sig[2] ** 2 * t3)
        exact = 1.0 - np.exp(-var / 2)
        mc = monte_carlo_loss(sig, t1, t3, n_paths=200_000, seed=3)
        assert mc == pytest.approx(exact, abs=5e-4)


class TestLossTable:
    def test_rows_and_exact_column(self):
        # one row per signature, read by position in LOSS_COLUMNS order
        rows = loss_table(2.5e-3, 2.5e-3, DEFAULT_DIFFUSION)
        assert LOSS_COLUMNS == ("p2", "p3", "p4", "loss_analytic", "loss_exact")
        assert [tuple(row[:3]) for row in rows] == TABLE_SIGNATURES
        for row in rows:
            assert len(row) == len(LOSS_COLUMNS)
            assert row[3] == contrast_loss(tuple(row[:3]), 2.5e-3, 2.5e-3)
            assert row[4] == 1.0 - np.exp(-row[3])

    def test_csv_is_the_columns_over_the_rows(self, tmp_path):
        # noise_loss.csv is the header LOSS_COLUMNS over loss_table's rows at
        # the config's delays and diffusion, byte for byte
        raw = {"scenario": "noise-table", "noise_t1_s": 1e-3, "phase_noise_diffusion": 7.0}
        run_scenario(build_config(raw | {"out_dir": str(tmp_path / "run")}))
        expected = matio.write_csv(tmp_path / "expected.csv", LOSS_COLUMNS, loss_table(1e-3, 2.5e-3, 7.0))
        assert (tmp_path / "run" / "noise_loss.csv").read_bytes() == expected
