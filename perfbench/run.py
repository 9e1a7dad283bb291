"""Benchmark of ionspec2d: end-to-end run time, set-up time and peak memory,
or (with ``--trace 1``) per-layer calls, times and counts.

    python3 perfbench/run.py                       # every workload
    python3 perfbench/run.py --workload kerr-sectors --seed 0 --seconds 55 --trace 0

Run from the repository root.  Every sample is a fresh child process
(``worker.py``) that imports the package from ``src/``, builds the config and
runs the scenario, one client after another (closed loop).  The outputs of
every run are checked against ``reference/``.  A run first takes one
untimed warm-up and SETUP_SAMPLES set-up-only samples, then takes samples (with
``--trace 1``: an untraced and a traced sample per round) as long as another
round is predicted to end within ``--seconds``.  Each metric is the median
over its samples.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
# One BLAS thread (<= nproc): kerr-sectors' tiny matmuls run slower with a
# second thread, and a single thread keeps run-to-run spread low.
BLAS_THREADS = 1
SETUP_SAMPLES = 5
RUN_LIMIT_S = 160.0  # stop starting work so every run ends within 180 s
MAX_ROUNDS = 50


class BenchError(RuntimeError):
    """The benchmark could not measure anything; no result is printed."""


def child_env(root: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def spawn(raw_config: dict, mode: str, env: dict, deadline: float) -> dict:
    """Run one worker to completion; times are taken on the monotonic clock."""
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(raw_config), mode],
            env=env,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - t_spawn),
        )
    except subprocess.TimeoutExpired:
        return {"problems": ["worker timed out"]}
    if proc.returncode != 0:
        tail = (proc.stderr.strip().splitlines() or ["(no stderr)"])[-1]
        return {"problems": [f"worker exited with {proc.returncode}: {tail}"]}
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result.pop("t_built") - t_spawn
    result["problems"] = []
    return result


def git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def measure(root: Path, workload: str, seed: int, seconds: float, trace: bool):
    """(environment, set-up samples, timed samples) of one benchmark run."""
    out_root = root / ".perfbench_out" / workload
    shutil.rmtree(out_root, ignore_errors=True)
    env = child_env(root)
    deadline = time.monotonic() + RUN_LIMIT_S

    def sample(mode: str, tag: str) -> dict:
        out = out_root / tag
        res = spawn(workloads.config(workload, out, seed), mode, env, deadline)
        if mode != "setup" and not res["problems"]:
            res["problems"] = workloads.check(workload, out)
        return res

    warm = sample("setup", "warmup")
    if warm["problems"]:
        raise BenchError(f"warm-up failed: {warm['problems']}")
    setups = [sample("setup", f"setup{i}") for i in range(SETUP_SAMPLES)]
    modes = ("run", "trace") if trace else ("run",)
    samples: list[dict] = []
    start = time.monotonic()
    for rnd in range(1, MAX_ROUNDS + 1):
        group = [sample(mode, f"{mode}{rnd}") for mode in modes]
        if trace and not any(s["problems"] for s in group):
            if group[0]["outputs"] != group[1]["outputs"]:
                group[1]["problems"].append("traced outputs differ from untraced outputs")
        samples += group
        now = time.monotonic()
        per_round = (now - start) / rnd
        if now - start + per_round > seconds or now + per_round > deadline:
            break
    return warm["environment"], setups, samples


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if "bytes" in name:
        return "B"
    return "count"


def summarize(samples: list[dict], setups: list[dict], trace: bool) -> tuple[dict, list[str]]:
    """(result object, report lines) from the samples of one run."""
    timed = [s for s in samples if "run_s" in s]
    if not timed:
        raise BenchError(f"no sample completed: {samples[0]['problems']}")
    series: dict[str, tuple[str, list[float]]] = {}
    if trace:
        traced = [s for s in timed if "layers" in s]
        untraced = [s["run_s"] for s in timed if "layers" not in s]
        if not traced or not untraced:
            raise BenchError("no traced and untraced pair of samples completed")
        for name in traced[0]["layers"]:
            series[name] = (layer_unit(name), [s["layers"][name] for s in traced])
        plain = statistics.median(untraced)
        traced_run = [s["run_s"] for s in traced]
        series["trace.run_s"] = ("s", traced_run)
        series["trace.overhead_s"] = ("s", [t - plain for t in traced_run])
    else:
        series["run_s"] = ("s", [s["run_s"] for s in timed])
        series["setup_s"] = ("s", [s["setup_s"] for s in setups + timed if "setup_s" in s])
        series["peak_rss_mb"] = ("MB", [s["peak_rss_mb"] for s in timed])

    lines, metrics = [], {}
    for name, (unit, values) in series.items():
        q1, med, q3 = quartiles(values)
        metrics[name] = {"value": med, "unit": unit}
        lines.append(f"{name:<40} median {med:<12.6g} {unit:<5} q1 {q1:<12.6g} q3 {q3:<12.6g} n={len(values)}")
    failed = [s for s in samples if s["problems"]]
    lines.append(f"{'failed_frac':<40} {len(failed)}/{len(samples)} = {len(failed) / len(samples):g}")
    for s in failed:
        lines.append(f"  failed sample: {'; '.join(s['problems'])}")
    result = {
        "correct": not failed,
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": metrics,
    }
    return result, lines


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> None:
    env, setups, samples = measure(root, workload, seed, seconds, trace)
    env.update(git_commit=git_commit(root), workload=workload, seed=seed)
    result, lines = summarize(samples, setups, trace)
    print(f"== {workload} (seed {seed}, {seconds:g} s, trace {int(trace)})")
    print("environment " + json.dumps(env, sort_keys=True))
    print("\n".join(lines))
    print(json.dumps(result), flush=True)


def record(root: Path) -> None:
    """Run each workload once and store its outputs as the reference."""
    env = child_env(root)
    for workload in workloads.WORKLOADS:
        out = root / ".perfbench_out" / workload / "record"
        shutil.rmtree(out, ignore_errors=True)
        res = spawn(workloads.config(workload, out, 0), "run", env, time.monotonic() + 600)
        if res["problems"]:
            raise BenchError(f"{workload}: {res['problems']}")
        workloads.record(workload, out)
        print(f"recorded {workload} from {out}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=["all", *workloads.WORKLOADS], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="re-record reference outputs")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "ionspec2d" / "__init__.py").is_file():
        print(f"error: no src/ionspec2d under {root}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    try:
        if args.record:
            record(root)
            return 0
        names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
        for name in names:
            run_workload(root, name, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
