"""Compare this tree with a parent tree: every artifact, and the gated timings.

    python3 tools/compare.py --parent <tree> --out BENCH_<n>.json
    python3 tools/compare.py --parent <tree> --out cmp.json --pairs 0   # results only

Both sides run from copies of their ``src/``, ``perfbench/`` and
``BENCHMARK.json`` at ``<work>/parent`` and ``<work>/change``, paths of
equal length: the gated ``peak_rss_mb`` moves with the length of the tree's
path.  Each side's commit is read from its own tree, and each staged copy's
SHA-256 over its sorted relative paths and bytes is recorded beside it
(``digests``): an uncommitted change's tree reads as its parent's commit
with ``-dirty``, so only the digest tells which files were measured.

Results: each config of ``CONFIGS`` runs once per tree, in a fresh process
with ``PYTHONPATH=<tree>/src``, through ``ionspec2d.cli.main``.  Each
artifact is reported as ``"equal"`` (same sha256) or with max|delta| /
max|ref| over its numbers; each manifest is compared less ``wall_time_s``
and ``out_dir``.  Each run's ``wall_time_s`` and peak RSS are recorded.

Timings: ``perfbench/run.py`` of each tree, called unchanged at the
settings of ``BENCHMARK.json`` (its ``run_seconds``, seed 0, no trace),
``--pairs`` times per workload listed there; the side that runs first
alternates from pair to pair.  Per end-to-end metric the report gives each
side's median over the pairs, the parent's quartiles, how many pairs the
change won (a lower value), each side's drift over the set (the median of
its later half of pairs less that of its earlier half, over its median) and
whether a gain is resolved: the change won at least 90 % of the pairs, and
its median lies further from the parent's than the parent's quartiles span.

Suite: with timings, the tier-1 suite of each tree, ``python -m pytest -q
-p no:cacheprovider`` with ``PYTHONPATH=<tree>/src``, run in the two trees
themselves (the staged copies hold no ``tests/``), twice per tree with the
side that runs first alternated; each run's wall time, exit code and
pytest's summary line.

The environment is recorded beside the numbers: nproc, the Python and numpy
versions, the BLAS library, the BLAS thread variables and
``PYTHONDONTWRITEBYTECODE``, which decides whether the workers compile
``src/`` from source.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
GATED = [w["name"] for w in BENCHMARK["workloads"]]
METRICS = [m["name"] for m in BENCHMARK["end_to_end"]]
# the four reference scenarios, the variants earlier changes checked by hand,
# and (added by ``configs``) the gated workload configs of perfbench/
CONFIGS = {
    "kerr": {"scenario": "kerr"},
    "resonance": {"scenario": "resonance"},
    "tables": {"scenario": "tables"},
    "noise-table": {"scenario": "noise-table"},
    "kerr-noise": {"scenario": "kerr", "phase_noise_diffusion": 300.0},
    "kerr-pad-cosine-notch": {
        "scenario": "kerr", "grid_scale": 0.5, "zero_pad": 2, "window": "cosine", "baseline_notch": True,
    },
    "kerr-aliased": {"scenario": "kerr", "n_phases": [2, 4, 4]},
    # a truncation warning in the manifest beside the artifacts
    "kerr-large-alpha": {"scenario": "kerr", "alpha": 2.0, "grid_scale": 0.25},
    "resonance-noise": {"scenario": "resonance", "grid_scale": 0.5, "phase_noise_diffusion": 300.0},
    "resonance-cycle": {"scenario": "resonance", "n_phases": [3, 4, 5], "signature": [1, -2, 1], "alpha": 0.3},
    "resonance-no-heating": {"scenario": "resonance", "heating_quanta_per_ms": [0.0, 0.0]},
    # the largest step maps of any config, up to 378 x 378
    "resonance-11-8": {"scenario": "resonance", "dims": [11, 8]},
    "tables-n20": {"scenario": "tables", "n_ions": 20, "omega_x_hz": 2.0e7, "omega_y_hz": 2.2e7},
    # the couplings' memory: the peak RSS of a 50-ion chain, set by the RWA
    # census's pair rows and one first mode's slab of D4 with its rotation
    # frequencies
    "tables-n50": {"scenario": "tables", "n_ions": 50, "omega_x_hz": 2.0e8, "omega_y_hz": 2.2e8},
}
# one run in a fresh process: the CLI on a config file, then the peak RSS
CHILD = (
    "import json, resource, sys\n"
    "from ionspec2d import cli\n"
    "code = cli.main(['--config', sys.argv[1]])\n"
    "print(json.dumps({'exit': code, 'peak_rss_mb': resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}))\n"
)


def configs() -> dict[str, dict]:
    """``CONFIGS`` plus the gated workload configs, read from perfbench/."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    gated = {name: workloads.config(name, Path("out"), 0) for name in GATED}
    return CONFIGS | {name: {k: v for k, v in raw.items() if k != "out_dir"} for name, raw in gated.items()}


def commit(tree: Path) -> str:
    """The tree's git HEAD, with "-dirty" when its files differ from it;
    "unknown" outside a git checkout."""
    cmd = ["git", "describe", "--always", "--dirty", "--abbrev=40"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def stage(parent: Path, tree: Path, work: Path) -> dict[str, Path]:
    """Copies of both trees' src/, perfbench/ and BENCHMARK.json at
    ``<work>/parent`` and ``<work>/change``, two paths of equal length."""
    copies = {"parent": work / "parent", "change": work / "change"}
    for root, dest in zip((parent, tree), copies.values()):
        for name in ("src", "perfbench"):
            shutil.copytree(root / name, dest / name, ignore=shutil.ignore_patterns("__pycache__", ".perfbench_out"))
        shutil.copyfile(root / "BENCHMARK.json", dest / "BENCHMARK.json")
    return copies


def digest(copy: Path) -> str:
    """SHA-256 over the sorted relative paths and bytes of every file of a
    staged copy, each path and byte count ahead of the file's bytes."""
    h = hashlib.sha256()
    for path in sorted(p for p in copy.rglob("*") if p.is_file()):
        data = path.read_bytes()
        h.update(f"{path.relative_to(copy).as_posix()}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "PYTHONDONTWRITEBYTECODE")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "env": {var: os.environ.get(var) for var in threads},
    }


def run_config(tree: Path, raw: dict, out_dir: Path) -> dict:
    """Run one config with ``tree``'s package; {'exit', 'peak_rss_mb',
    'wall_time_s'} (the last from the manifest, when one was written)."""
    out_dir.mkdir(parents=True)
    path = out_dir.with_suffix(".json")
    path.write_text(json.dumps(dict(raw, out_dir=str(out_dir))))
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run([sys.executable, "-c", CHILD, str(path)], env=env, capture_output=True, text=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        return {"exit": proc.returncode, "stderr": proc.stderr.strip().splitlines()[-1:]}
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    manifest = out_dir / "manifest.json"
    if manifest.is_file():
        result["wall_time_s"] = json.loads(manifest.read_text()).get("wall_time_s")
    return result


def _numbers(path: Path):
    """(numeric array, non-numeric cells) of an artifact."""
    if path.suffix == ".bin":
        sys.path.insert(0, str(ROOT / "src"))
        from ionspec2d import matio

        return matio.read_matrix(path), []
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    values, words = [], [rows[0]]
    for row in rows[1:]:
        for cell in row:
            try:
                values.append(float(cell))
            except ValueError:
                words.append(cell)
    return np.array(values), words


def _manifest(path: Path) -> dict:
    manifest = json.loads(path.read_text())
    manifest.pop("wall_time_s", None)
    manifest.get("resolved_config", {}).pop("out_dir", None)
    return manifest


def compare_artifacts(ref_dir: Path, got_dir: Path) -> dict:
    """{file name: 'equal', 'missing', 'differs' or {'max_abs_diff',
    'max_abs_ref', 'rel'}} over the files of both directories."""
    report = {}
    for name in sorted({p.name for p in ref_dir.iterdir()} | {p.name for p in got_dir.iterdir()}):
        ref, got = ref_dir / name, got_dir / name
        if not (ref.is_file() and got.is_file()):
            report[name] = "missing"
        elif name == "manifest.json":
            a, b = _manifest(ref), _manifest(got)
            differing = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
            report[name] = {"keys": differing} if differing else "equal"
        elif ref.read_bytes() == got.read_bytes():  # the same sha256
            report[name] = "equal"
        else:
            (a, words_a), (b, words_b) = _numbers(ref), _numbers(got)
            if a.shape != b.shape or words_a != words_b:
                report[name] = "differs"
            else:
                diff, scale = float(np.max(np.abs(a - b), initial=0.0)), float(np.max(np.abs(a), initial=0.0))
                report[name] = {"max_abs_diff": diff, "max_abs_ref": scale, "rel": diff / scale if scale else diff}
    return report


def compare_results(parent: Path, tree: Path, raws: dict[str, dict], work: Path) -> dict:
    """Each config run by both trees, and its artifacts compared."""
    report, sides = {}, {"parent": parent, "change": tree}
    for name, raw in raws.items():
        runs = {side: run_config(root, raw, work / side / name) for side, root in sides.items()}
        artifacts = compare_artifacts(work / "parent" / name, work / "change" / name)
        report[name] = {
            "runs": runs,
            "artifacts": artifacts,
            "equal": runs["parent"]["exit"] == runs["change"]["exit"] and all(v == "equal" for v in artifacts.values()),
        }
    return report


def bench(tree: Path, workload: str) -> dict:
    """One unchanged ``perfbench/run.py`` run in ``tree``; its result object."""
    seconds = str(BENCHMARK["run_seconds"])
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seconds", seconds]
    cmd += ["--seed", "0", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        return {"correct": False, "error": proc.stderr.strip().splitlines()[-1:]}
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"correct": result["correct"], **{m: result["metrics"][m]["value"] for m in METRICS}}


def _drift(values: list[float]) -> float:
    """The median of the later half of ``values`` less that of the earlier
    half, over their median (the middle value of an odd count is in
    neither half); 0 with fewer than 2 values."""
    half = len(values) // 2
    if half == 0:
        return 0.0
    return (statistics.median(values[-half:]) - statistics.median(values[:half])) / statistics.median(values)


def summarize(done: list[dict]) -> dict:
    """Per metric, over the pairs ``done`` in run order: each side's median
    and drift, the parent's quartiles, the pairs the change won and whether
    that is a resolved gain (won at least 90 % of the pairs, and the medians
    further apart than the parent's quartiles)."""
    summary = {}
    for metric in METRICS if done else ():
        ref, new = [r["parent"][metric] for r in done], [r["change"][metric] for r in done]
        q1, _, q3 = statistics.quantiles(ref, n=4, method="inclusive") if len(ref) > 1 else (ref[0],) * 3
        ref_median, new_median = statistics.median(ref), statistics.median(new)
        wins = sum(b < a for a, b in zip(ref, new))
        summary[metric] = {
            "parent_median": ref_median,
            "parent_q1": q1,
            "parent_q3": q3,
            "parent_drift": _drift(ref),
            "change_median": new_median,
            "change_drift": _drift(new),
            "change_wins": wins,
            "pairs": len(done),
            "resolved": wins >= 0.9 * len(done) and abs(new_median - ref_median) > q3 - q1,
        }
    return summary


def time_pairs(parent: Path, tree: Path, workload: str, pairs: int) -> dict:
    """``pairs`` alternated runs of each side, and their ``summarize`` over
    the pairs where both sides ran correctly."""
    sides = {"parent": parent, "change": tree}
    runs = []
    for k in range(pairs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        runs.append({"first": order[0], **{side: bench(sides[side], workload) for side in order}})
    done = [r for r in runs if r["parent"]["correct"] and r["change"]["correct"]]
    return {"pairs": runs, "summary": summarize(done)}


def suite(tree: Path) -> dict:
    """One run of ``tree``'s tier-1 suite with its own src/: {'exit',
    'wall_s', 'summary'}, the summary the last line pytest printed."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    start = time.perf_counter()
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    return {"exit": proc.returncode, "wall_s": wall, "summary": (proc.stdout.strip().splitlines() or [""])[-1]}


def time_suite(parent: Path, tree: Path) -> list[dict]:
    """Two alternated ``suite`` runs of each tree, in run order."""
    sides = {"parent": parent, "change": tree}
    orders = (("parent", "change"), ("change", "parent"))
    return [{"first": order[0], **{side: suite(sides[side]) for side in order}} for order in orders]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="the parent tree: src/ and perfbench/")
    parser.add_argument("--out", type=Path, required=True, help="the JSON report to write")
    parser.add_argument("--pairs", type=int, default=10, help="perfbench pairs per workload; 0: results only")
    args = parser.parse_args(argv)
    parent, tree = args.parent.resolve(), ROOT
    report = {"environment": environment(), "parent_commit": commit(parent), "tree_head": commit(tree)}
    with tempfile.TemporaryDirectory() as work:
        copies = stage(parent, tree, Path(work))
        report["digests"] = {side: digest(copy) for side, copy in copies.items()}  # before any run writes there
        report["results"] = compare_results(copies["parent"], copies["change"], configs(), Path(work) / "runs")
        unequal = [name for name, entry in report["results"].items() if not entry["equal"]]
        print(f"results: {len(report['results']) - len(unequal)} configs equal; differing: {unequal}", flush=True)
        if args.pairs > 0:
            report["suite"] = time_suite(parent, tree)
            for run in report["suite"]:
                print(" | ".join(f"{side} suite {run[side]['wall_s']:.1f} s: {run[side]['summary']}"
                                 for side in ("parent", "change")), flush=True)
        report["timings"] = {}
        for workload in GATED if args.pairs > 0 else ():
            report["timings"][workload] = timing = time_pairs(copies["parent"], copies["change"], workload, args.pairs)
            for metric, s in timing["summary"].items():
                print(f"{workload} {metric}: {s['parent_median']:.6g} -> {s['change_median']:.6g} (parent q1-q3 "
                      f"{s['parent_q1']:.6g}-{s['parent_q3']:.6g}), change won {s['change_wins']}/{s['pairs']}, "
                      f"drift {s['parent_drift']:+.3f} -> {s['change_drift']:+.3f}, resolved {s['resolved']}",
                      flush=True)
    args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
