"""What the benchmark under ``perfbench/`` reads from the package.

The benchmark's own tests are not collected with this suite, so this test
fails here when a change breaks a config, a name or a call that the
benchmark's workloads and tracer rely on.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np

from ionspec2d import cli, dynamics, protocol, scenarios

ROOT = Path(__file__).resolve().parent.parent


def _bench_module(name: str):
    """A module of ``perfbench/``, loaded from its file under a name of its
    own, so that nothing else on the import path is shadowed."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_configs_names_and_kerr_call_structure(tmp_path):
    workloads, layertrace = _bench_module("workloads"), _bench_module("layertrace")
    # every gated workload's config, as the benchmark's worker builds it
    gated = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    assert gated
    for name in gated:
        cli.build_config(workloads.config(name, tmp_path / name, seed=1))
    # the package names the benchmark calls or wraps
    for fn in (
        scenarios.kerr_scan_fast,
        scenarios.kerr_scan_full,
        protocol.run_once,
        protocol.phase_cycle,
        dynamics.Propagator.apply_batch,
    ):
        assert callable(fn)
    # a traced kerr run: kerr_scan_fast is one protocol.scan call
    tracer = layertrace.Tracer()
    raw = {"scenario": "kerr", "dims": [5, 3, 3], "grid_scale": 0.1, "out_dir": str(tmp_path / "kerr")}
    cfg = cli.build_config(raw)
    with tracer.installed():
        cli.run_scenario(cfg)
    names = [span[0] for span in tracer.spans]
    [fast] = [i for i, name in enumerate(names) if name == "scenarios.kerr_scan_fast"]
    assert [span[3] for span in tracer.spans if span[0] == "protocol.scan"] == [fast]


def test_gated_models_take_the_expected_step_map_path(tmp_path, monkeypatch):
    # resonance-lindblad steps real sector maps through its real generator;
    # kerr-sectors' diagonal zigzag model has a complex one and keeps the
    # complex path.  Each run's grid and labelled peaks also match the
    # benchmark's committed reference outputs, within the tolerances of its
    # workload
    workloads = _bench_module("workloads")
    scan, dtypes = protocol.scan, []

    def recording(model, *args, **kwargs):
        dtypes.append(model.generator[0].dtype)
        return scan(model, *args, **kwargs)

    monkeypatch.setattr(protocol, "scan", recording)
    for name, dtype in (("resonance-lindblad", np.float64), ("kerr-sectors", np.complex128)):
        dtypes.clear()
        cli.run_scenario(cli.build_config(workloads.config(name, tmp_path / name, seed=1)))
        assert dtypes == [dtype], name
        assert workloads.check(name, tmp_path / name) == [], name


def test_twenty_ion_tables_match_the_reference(tmp_path):
    # the committed multi-ion tables of the benchmark's tables-n20 workload:
    # every shift and dephasing rate of a 20-ion chain, third order and
    # fourth, within the workload's tolerance
    workloads = _bench_module("workloads")
    cli.run_scenario(cli.build_config(workloads.config("tables-n20", tmp_path, seed=1)))
    assert workloads.check("tables-n20", tmp_path) == []
