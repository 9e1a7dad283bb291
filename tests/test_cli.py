import csv
import json
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ionspec2d import matio
from ionspec2d.cli import SCENARIOS, ConfigError, RunConfig, build_config, main, run_scenario

# any value json.loads can return (NaN, infinities and big ints included), with
# leaves biased toward plausible settings so that the later checks are reached
PLAUSIBLE = st.integers(-1, 16) | st.floats(-0.5, 1.5) | st.sampled_from(
    [0.0, 1e-9, 25.3e-6, 2e-3, 2e6, 1e400, float("nan"), 10**400]
)
JSON_VALUES = st.recursive(
    PLAUSIBLE | st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8,
)


class TestBinaryFormat:
    def test_real_round_trip(self, tmp_path):
        m = np.random.default_rng(0).standard_normal((7, 5))
        path = tmp_path / "m.bin"
        matio.write_matrix(path, m)
        assert np.array_equal(matio.read_matrix(path), m)

    def test_complex_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((4, 9)) + 1j * rng.standard_normal((4, 9))
        path = tmp_path / "m.bin"
        matio.write_matrix(path, m)
        assert np.array_equal(matio.read_matrix(path), m)

    def test_header_layout(self, tmp_path):
        path = tmp_path / "m.bin"
        matio.write_matrix(path, np.zeros((2, 3)))
        blob = path.read_bytes()
        assert blob[:8] == b"ISPEC2D\x00"
        assert int.from_bytes(blob[8:12], "little") == 1  # version
        assert int.from_bytes(blob[12:16], "little") == 0  # real dtype
        assert int.from_bytes(blob[16:24], "little") == 2
        assert int.from_bytes(blob[24:32], "little") == 3
        assert len(blob) == 32 + 6 * 8

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOTMAGIC" + bytes(64))
        with pytest.raises(ValueError, match="magic"):
            matio.read_matrix(path)


class TestConfigValidation:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            build_config({"scenario": "kerr", "bogus_knob": 1})

    def test_scenario_required_and_checked(self):
        with pytest.raises(ConfigError, match="scenario"):
            build_config({})
        with pytest.raises(ConfigError, match="scenario"):
            build_config({"scenario": "sideband"})

    def test_type_checks(self):
        with pytest.raises(ConfigError, match="dims"):
            build_config({"scenario": "kerr", "dims": 9})
        with pytest.raises(ConfigError, match="threads"):
            build_config({"scenario": "kerr", "threads": 1.5})
        with pytest.raises(ConfigError, match="baseline_notch"):
            build_config({"scenario": "kerr", "baseline_notch": "yes"})
        with pytest.raises(ConfigError, match="grid_scale"):
            build_config({"scenario": "kerr", "grid_scale": -0.5})
        with pytest.raises(ConfigError, match="window"):
            build_config({"scenario": "kerr", "window": "hann"})
        with pytest.raises(ConfigError, match="matching"):
            build_config({"scenario": "kerr", "dims": [9, 15], "nbar": [1.0, 4.0, 4.0]})
        with pytest.raises(ConfigError, match="dt_s"):
            build_config({"scenario": "kerr", "dt_s": -25.3e-6})

    @pytest.mark.parametrize(
        "raw, match",
        [
            ({"scenario": "kerr", "dims": [9, 15], "nbar": [1.0, 4.0]}, "3 dims"),
            ({"scenario": "resonance", "dims": [9, 6, 6], "nbar": [0.7, 0.2, 0.2]}, "2 dims"),
            ({"scenario": "tables", "n_ions": 1}, "n_ions"),
            ({"scenario": "kerr", "n_ions": 2}, "n_ions"),
            ({"scenario": "kerr", "t_max_s": 20e-6, "dt_s": 25.3e-6}, "one-point grid"),
            ({"scenario": "resonance", "grid_scale": 0.001}, "one-point grid"),
            ({"scenario": "kerr", "dims": [9, 1, 15]}, "dim"),
            ({"scenario": "resonance", "nbar": [0.7, -0.2]}, "nbar"),
            ({"scenario": "resonance", "heating_quanta_per_ms": [0.2, 0.1, 0.1]}, "heating"),
            ({"scenario": "kerr", "n_phases": [4, 4]}, "n_phases"),
            ({"scenario": "kerr", "dims": ["a", 3, 3]}, "dims entry"),
            ({"scenario": "kerr", "dims": [None, 3, 3]}, "dims entry"),
            ({"scenario": "kerr", "t_max_s": float("inf")}, "t_max_s"),
            ({"scenario": "kerr", "dt_s": float("nan")}, "dt_s"),
            ({"scenario": "resonance", "grid_scale": float("nan")}, "grid_scale"),
            ({"scenario": "kerr", "dims": [9.5, 15, 15]}, "dims entry"),
            ({"scenario": "kerr", "signature": [1, -1, -1.7]}, "signature entry"),
            ({"scenario": "kerr", "zero_pad": 0}, "zero_pad"),
            ({"scenario": "kerr", "peak_threshold": 1.5}, "peak_threshold"),
            ({"scenario": "kerr", "mass_amu": -1}, "mass_amu"),
            ({"scenario": "noise-table", "mc_paths": -1}, "mc_paths"),
            ({"scenario": "kerr", "phase_noise_diffusion": -1.0}, "phase_noise_diffusion"),
            ({"scenario": "kerr", "threads": 0}, "threads"),
            # kerr_scan_fast is dissipation-free: heating would be ignored silently
            ({"scenario": "kerr", "heating_quanta_per_ms": [5, 5, 5]}, "heating"),
            # the scan's working set (~27 GiB on the 189-point grid) is checked
            # before resonance_model builds its 900 x 900 operators
            ({"scenario": "resonance", "dims": [30, 30]}, "budget"),
        ],
    )
    def test_rejected_before_any_work(self, raw, match, tmp_path, capsys):
        with pytest.raises(ConfigError, match=match):
            build_config(raw)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(dict(raw, out_dir=str(tmp_path / "out"))))
        assert main(["--config", str(cfg_path)]) == 2
        assert match in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @settings(max_examples=300, deadline=None)
    @given(
        scenario=st.sampled_from(SCENARIOS),
        rest=st.dictionaries(
            st.sampled_from([f.name for f in fields(RunConfig)]), JSON_VALUES, max_size=4
        ),
    )
    def test_any_json_config_builds_or_raises_config_error(self, scenario, rest):
        raw = {"scenario": scenario, **rest}  # an arbitrary scenario in rest wins
        try:
            cfg = build_config(raw)
        except ConfigError:
            return
        assert isinstance(cfg, RunConfig)

    def test_scenario_defaults(self):
        kerr = build_config({"scenario": "kerr"})
        assert kerr.dims == (9, 15, 15)
        assert kerr.nbar == (1.0, 4.0, 4.0)
        assert kerr.dt_s == pytest.approx(25.3e-6)
        res = build_config({"scenario": "resonance"})
        assert res.dims == (9, 6)
        assert res.nbar == (0.7, 0.2)
        assert res.dt_s == pytest.approx(10.6e-6)
        assert res.heating_quanta_per_ms == (0.2, 0.1)
        assert res.omega_x_hz == pytest.approx(2e6 * np.sqrt(63 / 20), rel=1e-12)
        assert res.alpha == 0.25 and res.n_phases == (4, 4, 4)

    def test_overrides_survive(self):
        cfg = build_config({"scenario": "resonance", "dims": [7, 5], "nbar": [0.5, 0.1]})
        assert cfg.dims == (7, 5)


class TestTablesScenario:
    def test_artifacts_and_speed(self, tmp_path):
        import time

        cfg = build_config({"scenario": "tables", "out_dir": str(tmp_path)})
        t0 = time.time()
        manifest = run_scenario(cfg)
        assert time.time() - t0 < 5.0
        assert manifest["status"] == "ok"
        assert (tmp_path / "freq_shifts_khz.csv").exists()
        assert (tmp_path / "dephasing_rates_khz.csv").exists()
        with open(tmp_path / "dephasing_rates_khz.csv") as fh:
            rows = {r["order"]: r for r in csv.DictReader(fh)}
        assert float(rows["effective"]["osi_half"]) == pytest.approx(2.5615, rel=0.01)
        assert manifest["derived"]["omega_zz_hz"] == pytest.approx(131.95e3, abs=200)

    def test_two_ion_chain_tables(self, tmp_path):
        # N=2 has only COM + stretch: no other x mode, so no x cross-Kerr
        cfg = build_config(
            {"scenario": "tables", "out_dir": str(tmp_path), "n_ions": 2,
             "omega_x_hz": 4.0e6}
        )
        manifest = run_scenario(cfg)
        assert manifest["status"] == "ok"
        with open(tmp_path / "dephasing_rates_khz.csv") as fh:
            header = fh.readline().strip().split(",")
        assert "od_x2" not in header[1:]  # column absent for N=2
        assert np.isfinite(manifest["derived"]["omega_si_hz"])


class TestNoiseTableScenario:
    def test_csv_rows(self, tmp_path):
        cfg = build_config(
            {"scenario": "noise-table", "out_dir": str(tmp_path), "mc_paths": 5000}
        )
        manifest = run_scenario(cfg)
        assert manifest["status"] == "ok"
        with open(tmp_path / "noise_loss.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 5
        published = [1.0, 2.5, 4.0, 1.0, 5.0]
        for row, pub in zip(rows, published):
            assert abs(100 * float(row["loss_analytic"]) - pub) <= 0.1


class TestManifest:
    def _tiny_kerr(self, out_dir, threads=1):
        return build_config(
            {
                "scenario": "kerr",
                "out_dir": str(out_dir),
                "dims": [5, 3, 3],
                "nbar": [0.8, 2.0, 2.0],
                "grid_scale": 0.15,
                "threads": threads,
            }
        )

    def test_reproducible_outputs(self, tmp_path):
        # threads is validated but has no effect: each scan is one contraction
        m1, m2 = (
            run_scenario(build_config(
                {"scenario": "resonance", "out_dir": str(tmp_path / str(threads)),
                 "dims": [4, 3], "nbar": [0.3, 0.1], "grid_scale": 0.1, "threads": threads}
            ))
            for threads in (1, 2)
        )
        assert m1["outputs"] == m2["outputs"]  # sha256 of every artifact

    def test_rwa_ratio_recorded(self, tmp_path):
        kerr = run_scenario(self._tiny_kerr(tmp_path / "k"))
        tables = run_scenario(build_config({"scenario": "tables", "out_dir": str(tmp_path / "t")}))
        for manifest in (kerr, tables):
            ratio = manifest["regime"]["rwa_max_nonsecular_ratio"]
            assert ratio == pytest.approx(8.13e-3, rel=0.02)  # the table trap
        assert json.loads((tmp_path / "t" / "manifest.json").read_text())["regime"] == tables["regime"]

    def test_config_round_trip(self, tmp_path):
        m1 = run_scenario(self._tiny_kerr(tmp_path / "a"))
        resolved = m1["resolved_config"]
        resolved["out_dir"] = str(tmp_path / "b")
        m2 = run_scenario(build_config(resolved))
        assert m1["outputs"] == m2["outputs"]

    def test_baseline_notch_spares_projections(self, tmp_path):
        # the projections average the spectrum before the carrier notch
        plain = run_scenario(self._tiny_kerr(tmp_path / "a"))["outputs"]
        cfg = self._tiny_kerr(tmp_path / "b")
        cfg.baseline_notch = True
        notched = run_scenario(cfg)["outputs"]
        assert notched["spectrum.bin"] != plain["spectrum.bin"]
        for name in ("signal_grid.bin", "projection_omega1.csv", "projection_omega3.csv"):
            assert notched[name] == plain[name]

    def test_manifest_written_on_failure(self, tmp_path):
        # radial confinement below the three-ion zigzag threshold: a valid
        # config whose chain solve raises ChainUnstableError
        cfg = build_config(
            {"scenario": "tables", "out_dir": str(tmp_path), "omega_x_hz": 2.5e6}
        )
        with pytest.raises(Exception):
            run_scenario(cfg)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["status"] == "error"
        assert "error" in manifest

    def test_truncation_kept_weight(self, tmp_path):
        def kept(nbar, dim):  # geometric thermal weight on levels 0 .. dim-1
            return 1.0 - (nbar / (1.0 + nbar)) ** dim

        kerr = run_scenario(self._tiny_kerr(tmp_path / "k"))
        assert kerr["truncation"]["kept_weight"] == pytest.approx(
            {"zz": kept(0.8, 5), "yzz": kept(2.0, 3), "eg": kept(2.0, 3)}, rel=1e-12
        )
        res = run_scenario(build_config(
            {"scenario": "resonance", "out_dir": str(tmp_path / "r"), "dims": [4, 3],
             "nbar": [0.3, 0.1], "grid_scale": 0.05}
        ))
        assert res["truncation"]["kept_weight"] == pytest.approx(
            {"zz": kept(0.3, 4), "str": kept(0.1, 3)}, rel=1e-12
        )

    def test_dissipation_free_flag(self, tmp_path):
        cfg = build_config(
            {"scenario": "resonance", "out_dir": str(tmp_path), "dims": [4, 3],
             "nbar": [0.3, 0.1], "heating_quanta_per_ms": [0.0, 0.0],
             "grid_scale": 0.05}
        )
        manifest = run_scenario(cfg)
        assert manifest["dissipation_free"] is True
        cfg2 = build_config(
            {"scenario": "resonance", "out_dir": str(tmp_path / "h"), "dims": [4, 3],
             "nbar": [0.3, 0.1], "heating_quanta_per_ms": [0.2, 0.1],
             "grid_scale": 0.05}
        )
        manifest2 = run_scenario(cfg2)
        assert manifest2["dissipation_free"] is False

    def test_grid_scale_sets_grid_size(self, tmp_path):
        cfg = self._tiny_kerr(tmp_path)
        run_scenario(cfg)
        grid = matio.read_matrix(tmp_path / "signal_grid.bin")
        from ionspec2d.protocol import grid_points

        n = grid_points(cfg.t_max_s * cfg.grid_scale, cfg.dt_s)
        assert grid.shape == (n, n)


class TestMainEntry:
    def test_cli_flags_override_config(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"scenario": "tables", "out_dir": "ignored"}))
        rc = main(["--config", str(cfg_path), "--out-dir", str(tmp_path / "out")])
        assert rc == 0
        assert (tmp_path / "out" / "manifest.json").exists()
        assert json.loads(capsys.readouterr().out)["status"] == "ok"

    def test_missing_scenario_errors(self, capsys):
        assert main([]) == 2
        assert "scenario" in capsys.readouterr().err

    def test_bad_config_key_errors(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"scenario": "tables", "wat": 1}))
        assert main(["--config", str(cfg_path)]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_invalid_json_errors(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("{not json")
        assert main(["--config", str(cfg_path)]) == 2

    def test_failing_run_exits_nonzero(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(
                {"scenario": "tables", "omega_x_hz": 2.5e6,
                 "out_dir": str(tmp_path / "out")}
            )
        )
        assert main(["--config", str(cfg_path)]) == 1
        assert (tmp_path / "out" / "manifest.json").exists()


class TestPhaseNoiseAttenuation:
    def test_grid_attenuated_pointwise(self, tmp_path):
        base = build_config(
            {"scenario": "kerr", "out_dir": str(tmp_path / "a"), "dims": [5, 3, 3],
             "nbar": [0.8, 2.0, 2.0], "grid_scale": 0.15}
        )
        run_scenario(base)
        noisy_cfg = build_config(
            {"scenario": "kerr", "out_dir": str(tmp_path / "b"), "dims": [5, 3, 3],
             "nbar": [0.8, 2.0, 2.0], "grid_scale": 0.15,
             "phase_noise_diffusion": 3.9478}
        )
        run_scenario(noisy_cfg)
        clean = matio.read_matrix(tmp_path / "a" / "signal_grid.bin")
        noisy = matio.read_matrix(tmp_path / "b" / "signal_grid.bin")
        dt = base.dt_s
        n = clean.shape[0]
        t = np.arange(n) * dt
        t1, t3 = np.meshgrid(t, t, indexing="ij")
        q = base.signature
        loss = 0.5 * 3.9478 * ((q[0] + q[1] + q[2]) ** 2 * t1 + q[2] ** 2 * t3)
        np.testing.assert_allclose(noisy, clean * (1 - loss), rtol=1e-12, atol=1e-18)

    def test_sign_flipping_loss_rejected(self, tmp_path, capsys):
        # 2000 rad^2/s reaches a loss of ~4 at the end of the 2 ms grid
        with pytest.raises(ConfigError, match="flip"):
            build_config({"scenario": "resonance", "phase_noise_diffusion": 2000.0})
        # on a 0.2 ms grid the same diffusion loses at most ~0.38
        build_config(
            {"scenario": "resonance", "phase_noise_diffusion": 2000.0, "grid_scale": 0.1}
        )
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps({"scenario": "kerr", "phase_noise_diffusion": 2000.0,
                        "out_dir": str(tmp_path / "out")})
        )
        assert main(["--config", str(cfg_path)]) == 2
        assert "flip" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
