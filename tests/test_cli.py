import contextlib
import csv
import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ionspec2d
from ionspec2d import cli, crystal, dynamics, fock, matio, phasenoise, protocol, scenarios, spectrum
from ionspec2d.cli import SCENARIOS, ConfigError, RunConfig, build_config, main, run_scenario
from ionspec2d.crystal import CHECKED_IONS
from oracles import mode_operators

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


# a valid resonance config whose heating of 1e20 quanta per ms overflows
# its lines, so that the run fails after it starts
OVERFLOWING_HEATING = {
    "scenario": "resonance", "dims": [7, 5], "grid_scale": 0.25, "heating_quanta_per_ms": [1e20, 0.0],
}
# a NaN with a payload: the quiet-NaN exponent and mantissa bits 0x12345
_NAN_PAYLOAD = np.array([0x7FF8000000012345], dtype=np.uint64).view(np.float64)[0]
REFERENCE_GRIDS = sorted((Path(__file__).resolve().parents[1] / "perfbench" / "reference").glob("*/signal_grid.bin"))


def _assert_bitwise_round_trip(m, path):
    matio.write_matrix(path, m)
    got = matio.read_matrix(path)
    assert got.dtype == m.dtype and got.shape == m.shape
    assert np.array_equal(got.view(np.uint64), m.view(np.uint64))


class TestBinaryFormat:
    def test_real_round_trip(self, tmp_path):
        m = np.random.default_rng(0).standard_normal((7, 5))
        m[0, :4] = -0.0, np.inf, -np.inf, _NAN_PAYLOAD
        _assert_bitwise_round_trip(m, tmp_path / "m.bin")

    def test_complex_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((4, 9)) + 1j * rng.standard_normal((4, 9))
        m[0, :4] = complex(1, np.inf), complex(-0.0, 2), complex(-0.0, -0.0), complex(_NAN_PAYLOAD, -np.inf)
        _assert_bitwise_round_trip(m, tmp_path / "m.bin")

    @pytest.mark.parametrize("path", REFERENCE_GRIDS, ids=lambda p: p.parent.name)
    def test_committed_reference_grids_rewrite_byte_for_byte(self, path, tmp_path):
        # the benchmark's recorded grids: read and written back, every byte stays
        assert matio.write_matrix(tmp_path / "m.bin", matio.read_matrix(path)) == path.read_bytes()

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
        # the right magic, but shorter than the 32-byte header
        path.write_bytes(b"ISPEC2D\x00" + bytes(8))
        with pytest.raises(ValueError, match="short header"):
            matio.read_matrix(path)
        # a shape the payload does not hold: truncated, padded, or past any index
        blob = matio.write_matrix(path, np.ones((2, 3), complex))
        for bad in (blob[:-1], blob + b"\x00", blob[:16] + (2**62).to_bytes(8, "little") + blob[24:]):
            path.write_bytes(bad)
            with pytest.raises(ValueError, match="does not hold"):
                matio.read_matrix(path)


def _csv_writer_reference(path, header, rows):
    """The CSV bytes ``matio.write_csv`` is held to: ``csv.writer`` with
    every float formatted ``.17g`` and every other value by ``str``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([format(v, ".17g") if isinstance(v, float) else str(v) for v in row])


_INF, _NAN = float("inf"), float("nan")
_CSV_CASES = {
    "floats": (
        ["a", "b", "c"],
        [
            [-0.0, 1e-300, _INF],
            [_NAN, -_INF, 0.1],
            [5e-324, 1 / 3, -1.7976931348623157e308],
            [np.float64(2.5), np.float64(-0.0), 1e22],
        ],
    ),
    # noise_loss.csv's columns: ints and floats, with some fields empty
    "noise_loss": (
        ["p2", "p3", "p4", "loss_analytic", "loss_exact"],
        [
            [1, 0, 0, 0.01, ""],
            [1, 1, 0, 0.025, 0.02498],
            [2, -1, 3, 0.04, ""],
            [np.int64(1), 0, 0, 0.01, 0.0101],
            [10**20, 0, 0, 10**20, 1e-300],
        ],
    ),
    # peaks.csv: three floats and a label
    "peaks": (
        ["omega1_rad_s", "omega3_rad_s", "magnitude", "label"],
        [
            [-1e6, 2.5e5, 0.125, ""],
            [-1e6, 2.5e5, 0.125, "b'"],
            [0.0, -0.0, _NAN, "a, the carrier"],
            [1.0, 2.0, 3.0, "Ωsi/2 ä"],
            [1.0, 2.0, 3.0, 'say "x"'],
            [1.0, 2.0, 3.0, "two\nlines"],
            [1.0, 2.0, 3.0, "cr\r"],
            [1.0, 2.0, 3.0, 7],
        ],
    ),
    "lone_field": (["label"], [["x"], [""], ["y,z"], [0.5]]),
    "no_rows": (["a", "b"], []),
}


class TestCsvFormat:
    @pytest.mark.parametrize("case", sorted(_CSV_CASES))
    def test_bytes_match_csv_writer(self, case, tmp_path):
        header, rows = _CSV_CASES[case]
        matio.write_csv(tmp_path / "new.csv", header, rows)
        _csv_writer_reference(tmp_path / "old.csv", header, rows)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
        with open(tmp_path / "new.csv", newline="") as fh:
            read = list(csv.reader(fh))[1:]
        assert len(read) == len(rows)
        for row, fields_ in zip(rows, read):
            for value, field in zip(row, fields_):
                if isinstance(value, float):  # every float reads back exactly, -0.0 included
                    assert float(field) == value or (math.isnan(value) and math.isnan(float(field)))
                    assert math.copysign(1.0, float(field)) == math.copysign(1.0, value)


class TestConfigValidation:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            build_config({"scenario": "kerr", "bogus_knob": 1})

    def test_scenario_required_and_checked(self):
        with pytest.raises(ConfigError, match="scenario"):
            build_config({})
        with pytest.raises(ConfigError, match="scenario"):
            build_config({"scenario": "sideband"})

    @pytest.mark.parametrize("raw", [[], ["scenario"], None])
    def test_non_object_rejected(self, raw):
        # the benchmark's worker calls build_config directly, without main's check
        with pytest.raises(ConfigError, match="JSON object"):
            build_config(raw)

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

    def test_every_field_parses_as_its_default_kind(self):
        # a field's kind is its RunConfig default's, a tuple's its first
        # entry's: each field refuses a value of another kind
        bad = {int: (2.5, "an integer"), float: ("2", "a number"), str: (1, "a string"), bool: (1, "a boolean")}
        for name, default in RunConfig._field_defaults.items():  # every field but scenario, checked on its own
            value, kind = bad[type(default[0] if isinstance(default, tuple) else default)]
            if isinstance(default, tuple):
                value = [value] * len(default)
            with pytest.raises(ConfigError, match=f"^{name}( entry)? must be {kind}$"):
                build_config({"scenario": "tables", name: value})

    @pytest.mark.parametrize(
        "raw, match",
        [
            ({"scenario": "kerr", "dims": [9, 15], "nbar": [1.0, 4.0]}, "3 dims"),
            ({"scenario": "resonance", "dims": [9, 6, 6], "nbar": [0.7, 0.2, 0.2]}, "2 dims"),
            ({"scenario": "tables", "n_ions": 1}, "n_ions"),
            ({"scenario": "kerr", "n_ions": 2}, "n_ions"),
            ({"scenario": "kerr", "grid_scale": 0.01, "dt_s": 25.3e-6}, "one-point grid"),
            ({"scenario": "resonance", "grid_scale": 0.001}, "one-point grid"),
            ({"scenario": "kerr", "dims": [9, 1, 15]}, "dim"),
            ({"scenario": "resonance", "nbar": [0.7, -0.2]}, "nbar"),
            ({"scenario": "resonance", "heating_quanta_per_ms": [0.2, 0.1, 0.1]}, "heating"),
            ({"scenario": "kerr", "n_phases": [4, 4]}, "n_phases"),
            ({"scenario": "kerr", "dims": ["a", 3, 3]}, "dims entry"),
            ({"scenario": "kerr", "dims": [None, 3, 3]}, "dims entry"),
            # a grid spans 2 ms times grid_scale, the one length knob: t_max_s
            # is an unknown key, which the message names
            ({"scenario": "kerr", "t_max_s": 1e-3}, "t_max_s"),
            ({"scenario": "kerr", "dt_s": float("nan")}, "dt_s"),
            ({"scenario": "resonance", "grid_scale": float("nan")}, "grid_scale"),
            ({"scenario": "kerr", "dims": [9.5, 15, 15]}, "dims entry"),
            ({"scenario": "kerr", "signature": [1, -1, -1.7]}, "signature entry"),
            ({"scenario": "kerr", "zero_pad": 0}, "zero_pad"),
            ({"scenario": "kerr", "peak_threshold": 1.5}, "peak_threshold"),
            ({"scenario": "kerr", "mass_amu": -1}, "mass_amu"),
            ({"scenario": "noise-table", "mc_paths": 5000}, "unknown"),
            ({"scenario": "kerr", "phase_noise_diffusion": -1.0}, "phase_noise_diffusion"),
            ({"scenario": "kerr", "threads": 0}, "threads"),
            # kerr_scan_fast is dissipation-free: heating would be ignored silently
            ({"scenario": "kerr", "heating_quanta_per_ms": [5, 5, 5]}, "heating"),
            # the scan's working set (~21 GiB on the 189-point grid) is checked
            # before resonance_model builds its 900 x 900 operators
            ({"scenario": "resonance", "dims": [30, 30]}, "budget"),
            # kerr_scan_fast's working set on a 200-level zigzag (~72 GiB)
            ({"scenario": "kerr", "dims": [200, 2, 2]}, "budget"),
            # a heated scan's largest charge sector, c = 0 of Q = n_zz + 2 n_str,
            # has 6,760 vec indices: its step map (6.8 GiB) dwarfs the lines
            ({"scenario": "resonance", "dims": [30, 20], "grid_scale": 0.011}, "budget"),
            # the spectrum stage on a 16,000^2 zero-padded grid (~15 GiB)
            ({"scenario": "kerr", "zero_pad": 200}, "budget"),
            # seed has no effect, but is still validated; a grid longer than
            # any array index, an integer past 64 bits, an integer past the
            # float range, and a pulse without a phase
            ({"scenario": "kerr", "seed": -1}, "seed"),
            ({"scenario": "kerr", "grid_scale": 1e300}, "grid index"),
            ({"scenario": "kerr", "seed": 2**64}, "64 bits"),
            ({"scenario": "kerr", "dt_s": 10**400}, "finite"),
            ({"scenario": "kerr", "n_phases": [0, 4, 4]}, "n_phases"),
            # the phase-cycle stacks of K32 over 10^10 phase pairs (~35 TiB)
            ({"scenario": "kerr", "n_phases": [100000, 100000, 4]}, "budget"),
            # the couplings of 400 ions (~6.7 GiB; 386 fit), before any mode is solved
            ({"scenario": "tables", "n_ions": 400, "omega_x_hz": 2e8, "omega_y_hz": 2.2e8}, "budget"),
            ({"scenario": "kerr", "n_ions": 400, "omega_x_hz": 2e8, "omega_y_hz": 2.2e8}, "budget"),
            ({"scenario": "kerr", "grid_scale": float("inf")}, "grid_scale"),
            # the pulse sequence is checked for every scenario, those without a scan too
            ({"scenario": "tables", "n_phases": [4, 4]}, "n_phases"),
            ({"scenario": "noise-table", "n_phases": [0, 4, 4]}, "n_phases"),
            # an SI mass that underflows to 0, and an m omega_z^2 that
            # underflows or overflows: the trap is built, and so checked, here
            ({"scenario": "kerr", "mass_amu": 1e-300}, "mass must be positive"),
            ({"scenario": "tables", "omega_z_hz": 1e-300}, "length scale"),
            ({"scenario": "tables", "omega_z_hz": 1e200, "omega_x_hz": 1e201, "omega_y_hz": 2e201}, "length scale"),
            # an anisotropy (omega_z/omega)^2 that underflows to 0, which
            # normal_modes divides by, or whose square overflows
            ({"scenario": "tables", "omega_x_hz": 1e300, "omega_y_hz": 1e300}, "anisotropy"),
            ({"scenario": "kerr", "omega_x_hz": 1e300, "omega_y_hz": 1e300}, "anisotropy"),
            ({"scenario": "kerr", "omega_y_hz": 1e300}, "anisotropy"),
            ({"scenario": "tables", "omega_x_hz": 1e-300}, "anisotropy"),
            # radial confinement below the three-ion zigzag threshold: the
            # trap's chain is solved here, and its zigzag mode is unstable
            ({"scenario": "kerr", "omega_x_hz": 2.2e6}, "zigzag mode unstable"),
            ({"scenario": "tables", "omega_x_hz": 1.5e6}, "zigzag mode unstable"),
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

    def test_ion_count_capped_at_the_solvers_checked_range(self, monkeypatch):
        # the couplings' budget admits exactly the chains the equilibrium
        # solver is checked for; under a larger budget the cap names them.
        # The radial frequencies hold 386 ions in a stable linear chain
        raw = {"scenario": "tables", "omega_x_hz": 3e8, "omega_y_hz": 3.3e8}
        assert build_config(dict(raw, n_ions=CHECKED_IONS)).n_ions == CHECKED_IONS
        with pytest.raises(ConfigError, match="coupling tensors"):
            build_config(dict(raw, n_ions=CHECKED_IONS + 1))
        monkeypatch.setattr(dynamics, "DEFAULT_MEMORY_BUDGET", 2**40)
        with pytest.raises(ConfigError, match=f"checked for 1 to {CHECKED_IONS} ions"):
            build_config(dict(raw, n_ions=CHECKED_IONS + 1))

    def test_unsolved_chain_refused(self, monkeypatch):
        # one Newton pass leaves the five-ion chain's residual far above its
        # bound: build_config refuses the config, as it does an unstable chain
        monkeypatch.setattr(crystal, "_NEWTON_MAX_ITER", 1)
        with pytest.raises(ConfigError, match="no equilibrium for N=5"):
            build_config({"scenario": "tables", "n_ions": 5, "omega_x_hz": 2e7, "omega_y_hz": 2.2e7})

    def test_noise_table_builds_no_trap(self):
        # noise-table reads no trap setting, so a chain of no ions or an SI
        # mass that underflows cannot fail its run
        cfg = build_config({"scenario": "noise-table", "n_ions": 0, "mass_amu": 1e-300})
        assert (cfg.n_ions, cfg.mass_amu) == (0, 1e-300)

    def test_resonance_ion_count_capped_without_the_census_budget(self):
        # resonance takes no RWA census, so no coupling bytes are charged to
        # it; the solver's checked range still caps its ion number
        raw = {"scenario": "resonance", "omega_x_hz": 3e8, "omega_y_hz": 3.3e8}
        assert build_config(dict(raw, n_ions=CHECKED_IONS)).n_ions == CHECKED_IONS
        with pytest.raises(ConfigError, match=f"checked for 1 to {CHECKED_IONS} ions"):
            build_config(dict(raw, n_ions=CHECKED_IONS + 1))

    @pytest.mark.parametrize("scenario", ["kerr", "resonance"])
    def test_budget_check_does_not_warn(self, scenario):
        # build_config checks the pulse sequence and the scan's budget; the
        # small-N_phi warning comes from the run's scan, into the manifest
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert build_config({"scenario": scenario, "n_phases": [2, 2, 2]}).n_phases == (2, 2, 2)

    @pytest.mark.parametrize(
        "raw, stage",
        [
            ({"scenario": "kerr", "grid_scale": 0.125, "zero_pad": 60}, "spectrum"),
            (
                {"scenario": "kerr", "grid_scale": 0.125, "zero_pad": 60, "window": "cosine", "baseline_notch": True},
                "spectrum",
            ),
            ({"scenario": "resonance", "grid_scale": 0.06, "zero_pad": 50, "baseline_notch": True}, "spectrum"),
            ({"scenario": "tables", "n_ions": 20, "omega_x_hz": 2e7, "omega_y_hz": 2.2e7}, "coupling tensors"),
            ({"scenario": "tables", "n_ions": 40, "omega_x_hz": 2e8, "omega_y_hz": 2.2e8}, "coupling tensors"),
        ],
    )
    def test_stage_bound_covers_the_traced_run(self, raw, stage, tmp_path, monkeypatch):
        # runs on a 10- or 12-point grid padded to 600^2 bins, or with 20 or
        # 40 ions, so that the stage dominates the run:
        # the bytes build_config charges for it cover the whole run's traced
        # peak, and the stage is over half of them
        charged = []
        exact = dynamics._check_budget

        def record(need, what):
            if what.startswith(stage):
                charged.append(need)
            exact(need, what)

        monkeypatch.setattr(dynamics, "_check_budget", record)
        cfg = build_config(dict(raw, out_dir=str(tmp_path)))
        [need] = charged
        run_scenario(cfg)  # lazy imports
        tracemalloc.start()
        try:
            run_scenario(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert need / 2 < peak <= need

    def test_long_kerr_grid_is_accepted(self):
        # 4,744 grid points: the chi weight adds its table and one block's
        # weight, ~1.3 GiB in all, not a weight per forward charge
        assert build_config({"scenario": "kerr", "grid_scale": 60}).grid_scale == 60

    def test_heated_resonance_charged_for_its_kept_columns(self):
        # 378 grid points on a 400-level register: five full (n, d^2) lines
        # and the c = 0 sector's map would need 6.2 GiB, past the budget; the
        # kept sectors' columns, the check-only lines and that map fit
        cfg = build_config({"scenario": "resonance", "dims": [20, 20], "grid_scale": 2.0})
        assert any(cfg.heating_quanta_per_ms)

    @settings(max_examples=300, deadline=None)
    @given(
        scenario=st.sampled_from(SCENARIOS),
        rest=st.dictionaries(
            st.sampled_from(RunConfig._fields), JSON_VALUES, max_size=4
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

    def test_kerr_grows_toward_the_transition(self, tmp_path):
        # the paper's structural-transition signature in its perturbative
        # parameters (third plus fourth order): Omega_SI/2pi grows more than
        # 20x as omega_x/2pi falls from 3.15 MHz to the reference 3.1012
        # MHz, near the zigzag instability (3.09 MHz raises
        # ChainUnstableError).  The exact ladder grows 19x over the same
        # window (test_anharmonic.py, TestExactLadder).  The growth is not
        # monotone over a wider sweep: Omega_SI changes sign near 3.3 MHz,
        # where it reads -0.41 Hz.
        omega_si_hz = [
            run_scenario(build_config(
                {"scenario": "tables", "omega_x_hz": omega_x_hz, "out_dir": str(tmp_path / str(omega_x_hz))}
            ))["derived"]["omega_si_hz"]
            for omega_x_hz in (3.15e6, 3.1012e6)
        ]
        assert omega_si_hz == pytest.approx([234.0, 5114.3], abs=0.05)
        assert omega_si_hz[1] > 20 * omega_si_hz[0]

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


class TestKerrLadder:
    @pytest.mark.parametrize(
        "omega_x_hz, grid_scale, omega_si_hz", [(3.1012e6, 1, 5114.3), (3.12e6, 4, 627.1), (3.15e6, 16, 234.0)]
    )
    def test_ladder_peaks_track_omega_si(self, tmp_path, omega_x_hz, grid_scale, omega_si_hz):
        # the kerr spectrum's ladder along the approach to the zigzag
        # transition, the spectators in their ground state (chi weight 1):
        # each rung -(delta_zz + n Omega_SI), n = 0..4, from the carrier
        # -omega_zz and folded into the spectrum's window, has a diagonal
        # peak within half a bin (worst misses 0.21, 0.24 and 0.22 bins).
        # The rungs are the run's perturbative parameters, read from its
        # manifest, not the exact ladder; the grid grows with 1/Omega_SI
        # so that the rungs stay a few bins apart
        manifest = run_scenario(build_config({
            "scenario": "kerr", "omega_x_hz": omega_x_hz, "grid_scale": grid_scale,
            "nbar": [1, 0, 0], "out_dir": str(tmp_path),
        }))
        derived, axes = manifest["derived"], manifest["spectrum_axes"]
        assert derived["omega_si_hz"] == pytest.approx(omega_si_hz, abs=0.05)
        axis = axes["omega1_rad_s"]
        assert axes["omega3_rad_s"] == axis
        step, start = axis["step"], axis["start"]
        with open(tmp_path / "peaks.csv") as fh:
            peaks = [(float(r["omega1_rad_s"]), float(r["omega3_rad_s"])) for r in csv.DictReader(fh)]
        diagonal = np.array([w1 for w1, w3 in peaks if abs(w1 - w3) < 1.5 * step])
        omega_si, delta_zz, omega_zz = (
            2 * np.pi * derived[key] for key in ("omega_si_hz", "delta_omega_zz_hz", "omega_zz_hz")
        )
        rungs = -omega_zz - (delta_zz + np.arange(5) * omega_si)
        folded = start + (rungs - start) % (axis["count"] * step)
        misses = np.min(np.abs(diagonal[:, None] - folded), axis=0) / step
        assert np.all(misses < 0.5), misses


class TestNoiseTableScenario:
    def test_csv_rows(self, tmp_path):
        cfg = build_config(
            {"scenario": "noise-table", "out_dir": str(tmp_path)}
        )
        manifest = run_scenario(cfg)
        assert manifest["status"] == "ok"
        with open(tmp_path / "noise_loss.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 5
        published = [1.0, 2.5, 4.0, 1.0, 5.0]
        for row, pub in zip(rows, published):
            assert abs(100 * float(row["loss_analytic"]) - pub) <= 0.1

    def test_diffusion_is_the_one_resolved(self, tmp_path):
        # the default is a config default, so the manifest's resolved and
        # derived diffusions agree, and an explicit value, 0 included, is
        # the one the table uses
        runs = {}
        for name, extra in (
            ("default", {}),
            ("explicit-default", {"phase_noise_diffusion": phasenoise.DEFAULT_DIFFUSION}),
            ("zero", {"phase_noise_diffusion": 0.0}),
            ("seven", {"phase_noise_diffusion": 7.0}),
        ):
            manifest = run_scenario(build_config({"scenario": "noise-table", "out_dir": str(tmp_path / name)} | extra))
            resolved = manifest["resolved_config"]["phase_noise_diffusion"]
            assert manifest["derived"]["diffusion_rad2_s"] == resolved
            runs[name] = (resolved, (tmp_path / name / "noise_loss.csv").read_bytes())
        assert runs["default"] == runs["explicit-default"]
        assert [runs[name][0] for name in ("default", "zero", "seven")] == [phasenoise.DEFAULT_DIFFUSION, 0.0, 7.0]
        with open(tmp_path / "zero" / "noise_loss.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert all(float(row[col]) == 0.0 for row in rows for col in ("loss_analytic", "loss_exact"))
        assert runs["seven"][1] != runs["default"][1]


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

    def test_output_digests_are_sha256(self, tmp_path):
        # the built-in SHA-256 gives hashlib's digests of every artifact
        runs = (
            self._tiny_kerr(tmp_path / "kerr"),
            build_config({"scenario": "resonance", "out_dir": str(tmp_path / "resonance"),
                          "dims": [4, 3], "nbar": [0.3, 0.1], "grid_scale": 0.1}),
        )
        for cfg in runs:
            outputs = run_scenario(cfg)["outputs"]
            assert outputs
            for name, digest in outputs.items():
                assert digest == hashlib.sha256((Path(cfg.out_dir) / name).read_bytes()).hexdigest()

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
        cfg = cfg._replace(baseline_notch=True)
        notched = run_scenario(cfg)["outputs"]
        assert notched["spectrum.bin"] != plain["spectrum.bin"]
        for name in ("signal_grid.bin", "projection_omega1.csv", "projection_omega3.csv"):
            assert notched[name] == plain[name]

    @pytest.mark.parametrize(
        "raw, names",
        [
            (
                {"scenario": "kerr", "dims": [5, 3, 3], "nbar": [0.8, 2.0, 2.0], "grid_scale": 0.15},
                {"freq_shifts_khz.csv", "dephasing_rates_khz.csv", "signal_grid.bin",
                 "spectrum.bin", "projection_omega1.csv", "projection_omega3.csv", "peaks.csv"},
            ),
            (
                {"scenario": "resonance", "dims": [4, 3], "nbar": [0.3, 0.1], "grid_scale": 0.1},
                {"signal_grid.bin", "spectrum.bin", "projection_omega1.csv",
                 "projection_omega3.csv", "peaks.csv"},
            ),
            ({"scenario": "tables"}, {"freq_shifts_khz.csv", "dephasing_rates_khz.csv"}),
            ({"scenario": "noise-table"}, {"noise_loss.csv"}),
        ],
        ids=SCENARIOS,
    )
    def test_output_set(self, raw, names, tmp_path):
        # no artifact is added or dropped silently; the manifest lists every file
        manifest = run_scenario(build_config(dict(raw, out_dir=str(tmp_path))))
        assert set(manifest["outputs"]) == names
        assert {p.name for p in tmp_path.iterdir()} == names | {"manifest.json"}

    @pytest.mark.parametrize("notch", [False, True])
    def test_spectrum_rebuilt_from_bin_and_axes(self, notch, tmp_path, monkeypatch):
        # spectrum.bin and the manifest's affine axes rebuild every
        # (omega1, omega3, magnitude) of the spectrum; find_peaks sees the
        # run's final spectrum
        seen = []
        find_peaks = spectrum.find_peaks
        monkeypatch.setattr(
            spectrum, "find_peaks", lambda spec, **kw: seen.append(spec) or find_peaks(spec, **kw)
        )
        cfg = self._tiny_kerr(tmp_path)
        cfg = cfg._replace(baseline_notch=notch)
        run_scenario(cfg)
        (spec,) = seen
        axes = json.loads((tmp_path / "manifest.json").read_text())["spectrum_axes"]
        for name, omega in (("omega1_rad_s", spec.omega1), ("omega3_rad_s", spec.omega3)):
            axis = axes[name]
            assert axis["count"] == omega.size
            assert axis["step"] == 2 * np.pi / (axis["count"] * cfg.dt_s)
            rebuilt = axis["start"] + axis["step"] * np.arange(axis["count"])
            np.testing.assert_allclose(rebuilt, omega, rtol=1e-12, atol=1e-12 * np.abs(omega).max())
        assert np.array_equal(np.abs(matio.read_matrix(tmp_path / "spectrum.bin")), spec.magnitude)

    def test_manifest_written_on_failure(self, tmp_path):
        # a valid config whose run fails: heating that overflows the lines
        cfg = build_config(dict(OVERFLOWING_HEATING, out_dir=str(tmp_path)))
        with pytest.raises(dynamics.PropagatorAccuracyError), pytest.warns(RuntimeWarning):
            run_scenario(cfg)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["status"] == "error"
        assert "error" in manifest

    @pytest.mark.parametrize("fails", [False, True])
    def test_warnings_recorded_and_reemitted(self, fails, tmp_path, monkeypatch):
        # two phases on pulse 2 alias its signature component 1 onto the
        # target: the warning is in the manifest, on the error manifest too,
        # and still reaches the caller
        cfg = self._tiny_kerr(tmp_path)
        cfg = cfg._replace(n_phases=(2, 4, 4))
        if fails:
            monkeypatch.setattr(spectrum, "fft2", lambda *a, **kw: 1 / 0)
        failure = pytest.raises(ZeroDivisionError) if fails else contextlib.nullcontext()
        with pytest.warns(UserWarning, match="aliasing"), failure:
            run_scenario(cfg)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["status"] == ("error" if fails else "ok")
        (warning,) = manifest["warnings"]
        assert warning["category"] == "UserWarning"
        assert "N_phi = 2" in warning["message"]

    def test_large_alpha_records_one_truncation_warning(self, tmp_path):
        # every pulse of the scan comes from one displacement call, so the
        # run warns once, on one line that names the largest |alpha|; at
        # 1e300 the truncation test itself must not overflow
        for alpha, shown in ((2.0, "2"), (1e300, "1e+300")):
            out = tmp_path / shown
            cfg = build_config({"scenario": "kerr", "alpha": alpha, "grid_scale": 0.25, "out_dir": str(out)})
            with pytest.warns(UserWarning, match="truncation"):
                manifest = run_scenario(cfg)
            (warning,) = manifest["warnings"]
            message = f"displacement |alpha| = {shown} is large for dim = 9; truncation error may be significant"
            assert warning["message"] == message

    def test_spectator_at_a_huge_nbar_runs_clean(self, tmp_path):
        # at nbar = 1e300 the spectator's kept weight, 15 / (1 + nbar), is
        # formed without a product that underflows, so its characteristic is
        # the uniform one, not 0 / 0
        cfg = build_config({"scenario": "kerr", "nbar": [1.0, 1e300, 1.0], "grid_scale": 0.25, "out_dir": str(tmp_path)})
        manifest = run_scenario(cfg)
        assert manifest["status"] == "ok" and manifest["warnings"] == []
        assert manifest["truncation"]["kept_weight"]["yzz"] == pytest.approx(15 / (1 + 1e300), rel=1e-14)
        assert np.all(np.isfinite(matio.read_matrix(tmp_path / "signal_grid.bin")))

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
        # the reference kerr dims, nbar = 0 and a million levels
        reference = cli._truncation(build_config({"scenario": "kerr"}))["kept_weight"]
        assert reference == pytest.approx({"zz": 0.998, "yzz": 0.9648, "eg": 0.9648}, abs=5e-4)
        assert reference == pytest.approx({"zz": 1.0 - 2.0**-9, "yzz": 1.0 - 0.8**15, "eg": 1.0 - 0.8**15}, rel=1e-12)
        cold = RunConfig(scenario="resonance", dims=(9, 10**6), nbar=(0.0, 4.0))
        assert cli._truncation(cold)["kept_weight"] == {"zz": 1.0, "str": 1.0}

    def test_huge_spectator_nbar_runs(self, tmp_path):
        # q = nbar/(1 + nbar) rounds to 1 at nbar = 1e17: the kept weight
        # 1 - q^15 and the chi weight are taken in r = 1/(1 + nbar)
        manifest = run_scenario(build_config(
            {"scenario": "kerr", "nbar": [1.0, 1e17, 4.0], "grid_scale": 0.1, "out_dir": str(tmp_path)}
        ))
        assert manifest["status"] == "ok"
        assert manifest["truncation"]["kept_weight"]["yzz"] == pytest.approx(15 / (1 + 1e17), rel=1e-9)

    def test_tiny_spectator_nbar_runs_as_zero(self, tmp_path):
        # 1 + 1e-17 rounds to 1, so r = 1: the thermal sums are those of
        # nbar = 0, with no log1p(-1) and no divide-by-zero warning
        runs = [
            run_scenario(build_config(
                {"scenario": "kerr", "nbar": [1.0, nbar, 4.0], "grid_scale": 0.1, "out_dir": str(tmp_path / name)}
            ))
            for name, nbar in (("tiny", 1e-17), ("zero", 0.0))
        ]
        assert runs[0]["warnings"] == []
        assert runs[0]["truncation"] == runs[1]["truncation"]
        tiny, zero = (matio.read_matrix(tmp_path / name / "signal_grid.bin") for name in ("tiny", "zero"))
        assert np.array_equal(tiny, zero)

    def test_huge_spectator_dim_runs(self, tmp_path):
        # the chi weight and the kept weight are closed forms, so a kerr run
        # never holds a spectator's levels
        manifest = run_scenario(build_config(
            {"scenario": "kerr", "dims": [9, 10**12, 2], "grid_scale": 0.1, "out_dir": str(tmp_path)}
        ))
        assert manifest["status"] == "ok"
        assert manifest["truncation"]["kept_weight"]["yzz"] == 1.0

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

        n = grid_points(cfg.effective_t_max, cfg.dt_s)
        assert grid.shape == (n, n)


class TestRealOperators:
    """Every operator that is real in the Fock basis is built as float64, and
    the resonance generator is real in the frame its exchange is written in,
    so ``eigh`` sees only real matrices.  ``predicted_peaks`` takes
    ``eigvalsh`` of the complex Hermitian blocks of that exchange."""

    def test_no_complex_matrix_reaches_eigh(self, tmp_path, monkeypatch):
        # and the only matrices diagonalized are the three-ion chain's axial
        # potential (3 x 3) and the pulses' quadrature a + a^+ of the target
        # mode (d x d): no run takes a closed form of its Hamiltonian
        seen = []
        eigh = np.linalg.eigh

        def recording(a, *args, **kwargs):
            seen.append(np.asarray(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", recording)
        for name, raw in (
            ("kerr", {"scenario": "kerr", "dims": [5, 3, 3], "nbar": [0.8, 2.0, 2.0], "grid_scale": 0.15}),
            ("heated", {"scenario": "resonance", "dims": [4, 3], "nbar": [0.3, 0.1],
                        "heating_quanta_per_ms": [0.2, 0.1], "grid_scale": 0.05}),
            ("heating-free", {"scenario": "resonance", "dims": [4, 3], "nbar": [0.3, 0.1],
                              "heating_quanta_per_ms": [0.0, 0.0], "grid_scale": 0.05}),
        ):
            seen.clear()
            manifest = run_scenario(build_config(dict(raw, out_dir=str(tmp_path / name))))
            assert manifest["status"] == "ok"
            assert seen and {a.dtype for a in seen} == {np.dtype(np.float64)}
            quadrature = fock.destroy(raw["dims"][0]) + fock.destroy(raw["dims"][0]).T
            pulses = [a for a in seen if a.shape != (3, 3)]
            assert pulses and all(np.array_equal(a, quadrature) for a in pulses)

    def test_fock_operators_are_real(self):
        assert fock.destroy(5).dtype == np.float64
        assert {op.dtype for op in mode_operators(5)} == {np.dtype(np.float64)}
        assert fock.thermal_state(0.5, 4).dtype == np.float64

    def test_model_operators_are_real(self, monkeypatch):
        kerr = scenarios.KerrModel(
            omega_si=1.0, delta_zz=0.1, rate_y=0.2, rate_eg=0.3, dims=(4, 3, 3), nbar=(0.5, 1.0, 1.0)
        )
        assert kerr.zz_hamiltonian().dtype == np.float64
        # the product-register Hamiltonian, captured where kerr_scan_full builds its model
        built, exact = [], dynamics.LindbladModel

        def recording(hamiltonian, **kwargs):
            built.append(hamiltonian)
            return exact(hamiltonian, **kwargs)

        monkeypatch.setattr(dynamics, "LindbladModel", recording)
        scenarios.kerr_scan_full(kerr, protocol.PulseSequence(), 2e-5, 1e-5)
        assert [h.dtype for h in built] == [np.float64]
        model = scenarios.resonance_model(1.0, dims=(4, 3), heating_quanta_per_s=(200.0, 100.0))
        k, jumps = model.generator
        assert k.dtype == np.float64
        assert jumps
        assert {c.dtype for c, _ in jumps} == {np.dtype(np.float64)}


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
        assert f"error: cannot read config {cfg_path}: " in capsys.readouterr().err

    def test_non_object_config_errors(self, tmp_path, capsys):
        # build_config's own check, reached with the flags not merged in
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("[1, 2]")
        assert main(["--config", str(cfg_path), "--scenario", "tables"]) == 2
        assert capsys.readouterr().err == "error: config must be a JSON object\n"

    @pytest.mark.parametrize("case", ["missing", "directory", "not_utf8"])
    def test_unreadable_config_errors(self, tmp_path, capsys, case):
        cfg_path = tmp_path / "cfg.json"
        if case == "directory":
            cfg_path.mkdir()
        elif case == "not_utf8":
            cfg_path.write_bytes(b'{"scenario": "tables", "out_dir": "\xff"}')
        assert main(["--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read config {cfg_path}: ")

    def test_failing_run_exits_nonzero(self, tmp_path, capsys):
        # the lines overflow to inf, then NaN: the trace check, which raises
        # unless the drift is at most its bound, refuses the NaN drift
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(dict(OVERFLOWING_HEATING, out_dir=str(tmp_path / "out"))))
        with pytest.warns(RuntimeWarning):
            assert main(["--config", str(cfg_path)]) == 1
        assert "error: PropagatorAccuracyError: forward-line trace drift nan" in capsys.readouterr().err
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["status"] == "error"
        assert manifest["error"].startswith("PropagatorAccuracyError")


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
        np.testing.assert_allclose(noisy, clean * np.exp(-loss), rtol=1e-12, atol=1e-18)

    def test_strong_noise_runs_with_exact_attenuation(self, tmp_path):
        # 2000 rad^2/s reaches L = 4 at the end of the 2 ms grid, where the
        # quadratic 1 - L would have flipped the sign; exp(-L) stays in (0, 1]
        build_config({"scenario": "resonance", "phase_noise_diffusion": 2000.0})
        for name, diffusion in (("clean", 0.0), ("noisy", 2000.0)):
            cfg_path = tmp_path / f"{name}.json"
            cfg_path.write_text(json.dumps({"scenario": "kerr", "phase_noise_diffusion": diffusion,
                                            "out_dir": str(tmp_path / name)}))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main(["--config", str(cfg_path)]) == 0
            assert json.loads((tmp_path / name / "manifest.json").read_text())["warnings"] == []
        clean = matio.read_matrix(tmp_path / "clean" / "signal_grid.bin")
        noisy = matio.read_matrix(tmp_path / "noisy" / "signal_grid.bin")
        ref = build_config({"scenario": "kerr"})
        t = np.arange(clean.shape[0]) * ref.dt_s
        t1, t3 = np.meshgrid(t, t, indexing="ij")
        q = ref.signature
        loss = 0.5 * 2000.0 * ((q[0] + q[1] + q[2]) ** 2 * t1 + q[2] ** 2 * t3)
        assert loss.max() == pytest.approx(4.0, rel=0.02)
        np.testing.assert_allclose(noisy, clean * np.exp(-loss), rtol=1e-12, atol=1e-18)

    def test_resonance_peaks_lose_the_grid_mean_attenuation(self, tmp_path):
        # heating-free reference resonance: the six strongest peaks keep
        # 0.740-0.746 of their magnitude under 300 rad^2/s, and exp(-L)
        # averages 0.747 over the grid
        peaks = {}
        for name, diffusion in (("clean", 0.0), ("noisy", 300.0)):
            cfg = build_config(
                {"scenario": "resonance", "heating_quanta_per_ms": [0, 0],
                 "phase_noise_diffusion": diffusion, "out_dir": str(tmp_path / name)}
            )
            run_scenario(cfg)
            with open(tmp_path / name / "peaks.csv", newline="") as fh:
                peaks[name] = list(csv.DictReader(fh))
        noisy = {}
        for row in peaks["noisy"]:  # strongest first: keep each label's first
            noisy.setdefault(row["label"], float(row["magnitude"]))
        strongest = peaks["clean"][:6]
        assert all(row["label"] for row in strongest)
        ratios = [noisy[row["label"]] / float(row["magnitude"]) for row in strongest]
        t = np.arange(matio.read_matrix(tmp_path / "clean" / "signal_grid.bin").shape[0]) * cfg.dt_s
        mean = phasenoise.attenuation(cfg.signature, t[:, None], t, 300.0).mean()
        assert mean == pytest.approx(0.747, abs=5e-4)
        assert ratios == pytest.approx([mean] * 6, rel=0.015)


# run in a fresh interpreter, since the suite itself imports scipy and
# numpy.random for its oracles: build the configs, then list the scipy
# modules loaded, the modules the runs added, which of numpy.random and
# secrets (which imports hashlib), which of hashlib (OpenSSL's libcrypto)
# and whether argparse were loaded
_RUN_AND_LIST_MODULES = """
import json, sys
from ionspec2d import cli
configs = [cli.build_config(raw) for raw in json.loads(sys.argv[1])]
before = set(sys.modules)
for cfg in configs:
    cli.run_scenario(cfg)
print(json.dumps({
    "scipy": sorted(name for name in sys.modules if name.split(".")[0] == "scipy"),
    "added": sorted(set(sys.modules) - before),
    "random": sorted({"numpy.random", "secrets"} & set(sys.modules)),
    "hashlib": sorted({"hashlib", "_hashlib"} & set(sys.modules)),
    "argparse": "argparse" in sys.modules,
}))
"""


def test_runs_import_no_scipy_and_load_no_module(tmp_path):
    configs = [
        {"scenario": "kerr", "dims": [5, 3, 3], "nbar": [0.8, 2.0, 2.0],
         "grid_scale": 0.15, "out_dir": str(tmp_path / "kerr")},
        {"scenario": "resonance", "dims": [3, 3], "nbar": [0.3, 0.1],
         "grid_scale": 0.1, "out_dir": str(tmp_path / "resonance")},
        {"scenario": "noise-table", "out_dir": str(tmp_path / "noise-table")},
    ]
    src = str(Path(ionspec2d.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_AND_LIST_MODULES, json.dumps(configs)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    hashlib_loaded = loaded.pop("hashlib")
    if any(map(importlib.util.find_spec, ("_sha2", "_sha256"))):  # else cli falls back to hashlib
        assert hashlib_loaded == []
    assert loaded == {"scipy": [], "added": [], "random": [], "argparse": False}
    for name in ("kerr", "resonance", "noise-table"):
        assert json.loads((tmp_path / name / "manifest.json").read_text())["status"] == "ok"


# the package loads no numpy, and cli pins the BLAS threads before it does
_BLAS_THREADS = """
import json, os, sys
import ionspec2d
bare = "numpy" in sys.modules
from ionspec2d import cli
print(json.dumps({"numpy_before_cli": bare, "env": {
    var: os.environ.get(var) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
}}))
"""


@pytest.mark.parametrize("caller", [{}, {"OPENBLAS_NUM_THREADS": "2"}], ids=["unset", "caller-set"])
def test_cli_pins_blas_threads_unless_the_caller_set_them(caller):
    src = str(Path(ionspec2d.__file__).resolve().parents[1])
    blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    env = {key: value for key, value in os.environ.items() if key not in blas}
    env.update(caller, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _BLAS_THREADS], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result == {
        "numpy_before_cli": False,
        "env": {var: caller.get(var, "1") for var in blas},
    }
