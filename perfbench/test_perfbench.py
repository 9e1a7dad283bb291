"""Tests of the benchmark itself, on tiny configs outside the timed path.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import layertrace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from ionspec2d import cli, dynamics, matio, protocol, scenarios  # noqa: E402

TINY = {
    "kerr": {"scenario": "kerr", "dims": [5, 3, 3], "grid_scale": 0.1},
    "resonance": {"scenario": "resonance", "dims": [3, 3], "grid_scale": 0.05},
    "tables": {"scenario": "tables"},
}


def _lookup_sites() -> dict:
    sites = {
        (mod.__name__, attr): obj
        for mod in layertrace.package_modules()
        for attr, obj in vars(mod).items()
    }
    sites[("Propagator", "apply_batch")] = dynamics.Propagator.apply_batch
    return sites


def _assert_unpatched(before: dict) -> None:
    after = _lookup_sites()
    changed = [key for key, obj in before.items() if after.get(key) is not obj]
    assert not changed, f"wrappers left behind: {changed}"


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_is_bit_identical_and_leaves_no_wrapper(name, tmp_path):
    before = _lookup_sites()
    plain = cli.run_scenario(cli.build_config(dict(TINY[name], out_dir=str(tmp_path / "a"))))
    tracer = layertrace.Tracer()
    with tracer.installed():
        assert cli.run_scenario is not before[("ionspec2d.cli", "run_scenario")]
        traced = cli.run_scenario(
            cli.build_config(dict(TINY[name], out_dir=str(tmp_path / "b")))
        )
    _assert_unpatched(before)
    # equal sha256 of every artifact, signal grid included: bit-identical
    assert traced["outputs"] == plain["outputs"]
    if name != "tables":
        np.testing.assert_array_equal(
            matio.read_matrix(tmp_path / "a" / "signal_grid.bin"),
            matio.read_matrix(tmp_path / "b" / "signal_grid.bin"),
        )
    layers = layertrace.layer_metrics(tracer)
    assert layers["cli.run_scenario.self_s"] > 0
    if name == "kerr":
        # fock.displacement is reached only through protocol's own binding
        assert layers["scenarios.sectors"] == 9
        assert layers["fock.displacement.calls"] == 9 * 17
        assert layers["protocol.scan.calls"] == 9


def test_wrappers_restored_after_error():
    before = _lookup_sites()
    with pytest.raises(KeyError):
        with layertrace.Tracer().installed():
            raise KeyError("boom")
    _assert_unpatched(before)


def test_self_time_subtracts_direct_children():
    tracer = layertrace.Tracer()
    tracer.spans[:] = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 4.0, 0],
        ["c", 2.0, 3.0, 1],
        ["b", 5.0, 6.0, 0],
    ]
    agg = tracer.aggregate()
    assert agg["a"] == {"calls": 1, "s": 10.0, "self_s": 6.0}
    assert agg["b"] == {"calls": 2, "s": 4.0, "self_s": 3.0}
    assert agg["c"] == {"calls": 1, "s": 1.0, "self_s": 1.0}


def test_scan_matches_run_once_oracle():
    cfg = cli.build_config({"scenario": "resonance", "dims": [3, 3]})
    data = scenarios.derive_modes(cfg.trap())
    model = scenarios.resonance_model(
        scenarios.resonance_parameters(data).omega_t, dims=(3, 3),
        heating_quanta_per_s=(200.0, 100.0),
    )
    rho0 = scenarios.resonance_initial_state((3, 3), (0.7, 0.2))
    seq = cfg.sequence()
    dt = cfg.dt_s
    grid = protocol.scan(model, rho0, seq, 5 * dt, dt)
    scale = np.max(np.abs(grid.values))
    cache: dict = {}
    for k1, k3 in ((0, 0), (2, 3), (5, 1), (5, 5)):
        raw = np.array([
            [
                [
                    protocol.run_once(model, rho0, seq, k1 * dt, k3 * dt, (p2, p3, p4), cache)
                    for p4 in seq.phase_grid(4)
                ]
                for p3 in seq.phase_grid(3)
            ]
            for p2 in seq.phase_grid(2)
        ])
        oracle = protocol.phase_cycle(raw, seq.signature)
        assert abs(oracle - grid.values[k1, k3]) <= 1e-9 * scale


def test_kerr_fast_path_matches_full_register_oracle():
    cfg = cli.build_config({"scenario": "kerr"})
    params = scenarios.kerr_parameters(scenarios.derive_modes(cfg.trap()))
    model = scenarios.kerr_model_from_params(params, dims=(5, 3, 3), nbar=cfg.nbar)
    seq = cfg.sequence()
    fast = scenarios.kerr_scan_fast(model, seq, 6 * cfg.dt_s, cfg.dt_s)
    full = scenarios.kerr_scan_full(model, seq, 6 * cfg.dt_s, cfg.dt_s)
    assert np.max(np.abs(fast.values - full.values)) <= 1e-12 * np.max(np.abs(full.values))


def _copy_reference(workload: str, out: Path) -> Path:
    out.mkdir()
    for name in workloads.reference_files(workload):
        shutil.copyfile(workloads.REFERENCE / workload / name, out / name)
    (out / "manifest.json").write_text(json.dumps({"status": "ok"}))
    return out


def _perturb_grid(out: Path, share: float) -> None:
    grid = matio.read_matrix(out / workloads.GRID)
    grid[3, 4] += share * np.max(np.abs(grid))
    matio.write_matrix(out / workloads.GRID, grid)


def _relabel_first_peak(out: Path) -> None:
    lines = (out / workloads.PEAKS).read_text().splitlines()
    lines[1] = lines[1].rsplit(",", 1)[0] + ",z"
    (out / workloads.PEAKS).write_text("\n".join(lines) + "\n")


def _perturb_table(out: Path) -> None:
    """Move the table's largest entry by 1e-10 of itself."""
    path = out / workloads.TABLES[0]
    rows = [line.split(",") for line in path.read_text().splitlines()]
    i, j = max(
        ((i, j) for i in range(1, len(rows)) for j in range(1, len(rows[i]))),
        key=lambda ij: abs(float(rows[ij[0]][ij[1]])),
    )
    rows[i][j] = repr(float(rows[i][j]) * (1 + 1e-10))
    path.write_text("\n".join(",".join(r) for r in rows) + "\n")


@pytest.mark.parametrize(
    "workload, damage",
    [
        ("resonance-lindblad", lambda out: _perturb_grid(out, 1e-8)),
        ("kerr-sectors", lambda out: _perturb_grid(out, 1e-11)),
        ("resonance-lindblad", _relabel_first_peak),
        ("tables-n20", _perturb_table),
        ("kerr-sectors", lambda out: (out / "manifest.json").write_text('{"status": "error"}')),
    ],
)
def test_broken_output_counts_as_failed(workload, damage, tmp_path):
    out = _copy_reference(workload, tmp_path / "out")
    assert workloads.check(workload, out) == []
    damage(out)
    problems = workloads.check(workload, out)
    assert problems
    good = {"run_s": 1.0, "setup_s": 0.5, "peak_rss_mb": 60.0, "problems": []}
    result, lines = run.summarize([good, dict(good, problems=problems)], [], trace=False)
    assert (result["attempted"], result["failed"], result["correct"]) == (2, 1, False)
    assert any(line.startswith("failed_frac") and "1/2" in line for line in lines)


def test_deviation_within_tolerance_passes(tmp_path):
    out = _copy_reference("resonance-lindblad", tmp_path / "out")
    _perturb_grid(out, 1e-10)
    assert workloads.check("resonance-lindblad", out) == []


def test_measure_reports_every_declared_metric(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "REFERENCE", tmp_path / "reference")
    monkeypatch.setitem(workloads.WORKLOADS, "tiny", {"config": TINY["tables"], "table_rtol": 1e-12})
    rec = tmp_path / "record"
    cli.run_scenario(cli.build_config(workloads.config("tiny", rec, 0)))
    workloads.record("tiny", rec)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            env, setups, samples = run.measure(ROOT, "tiny", 3, 0.1, trace)
            result, _ = run.summarize(samples, setups, trace)
            assert result["correct"] and result["failed"] == 0
            assert env["blas_threads"] == str(run.BLAS_THREADS) and env["nproc"] >= 1
            assert {m["name"]: m["unit"] for m in declared[key]} == {
                name: m["unit"] for name, m in result["metrics"].items()
            }
    finally:
        shutil.rmtree(ROOT / ".perfbench_out" / "tiny", ignore_errors=True)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copyfile(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tables-n20",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
