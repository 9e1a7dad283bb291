"""The benchmark's workloads and the check of each run's outputs.

Each workload is one ionspec2d config, run through ``cli.build_config`` and
``cli.run_scenario``.  Its outputs are compared with the files recorded from
the program once and stored under ``reference/<workload>/``; re-record them
with ``python3 perfbench/run.py --record`` only when a change of results is
intended and stated.
"""

from __future__ import annotations

import csv
import json
import shutil
from pathlib import Path

import numpy as np

REFERENCE = Path(__file__).resolve().parent / "reference"

# Why each workload exists:
# - kerr-sectors: all 225 spectator sectors of the reference dims on a 40x40
#   grid, so the per-sector Python loop, the 3,825 displacement builds and
#   ~149k tiny diagonal steps dominate; almost no dense linear algebra.
# - resonance-lindblad: a 35-level register with a 1225^2 superoperator on a
#   48x48 grid, so the dense superoperator build and the per-branch t3 walk
#   dominate; one protocol.scan against kerr-sectors' 225.  The reference
#   dims (9, 6) are too slow for repeated runs and dominated by expm.
# - tables-n20: 20 ions with the radial confinement above the zigzag
#   threshold (~16.8 MHz), so the C4 tensor and the third-order perturbation
#   sums dominate; no dynamics, protocol or spectrum code runs.  It is not
#   listed in BENCHMARK.json: its run time swings too much on a shared VM
#   for a comparison to be gated on it (see README.md).
WORKLOADS = {
    "kerr-sectors": {
        "config": {"scenario": "kerr", "grid_scale": 0.5},
        "grid_rtol": 1e-12,
        "grid_atol": 1e-12,
        "peak_tol": 1e-9,
    },
    "resonance-lindblad": {
        "config": {"scenario": "resonance", "dims": [7, 5], "grid_scale": 0.25},
        "grid_rtol": 0.0,
        "grid_atol": 1e-9,
        "peak_tol": 1e-6,
    },
    "tables-n20": {
        "config": {
            "scenario": "tables",
            "n_ions": 20,
            "omega_x_hz": 2.0e7,
            "omega_y_hz": 2.2e7,
        },
        "table_rtol": 1e-12,
    },
}
GRID = "signal_grid.bin"
PEAKS = "peaks.csv"
TABLES = ("freq_shifts_khz.csv", "dephasing_rates_khz.csv")


def config(workload: str, out_dir: Path, seed: int) -> dict:
    """Raw config of one run; these scenarios draw no random numbers."""
    return dict(WORKLOADS[workload]["config"], out_dir=str(out_dir), seed=seed, threads=1)


def reference_files(workload: str) -> tuple[str, ...]:
    return TABLES if WORKLOADS[workload]["config"]["scenario"] == "tables" else (GRID, PEAKS)


def record(workload: str, out_dir: Path) -> None:
    """Store the outputs of a run as the workload's reference."""
    dest = REFERENCE / workload
    dest.mkdir(parents=True, exist_ok=True)
    for name in reference_files(workload):
        shutil.copyfile(out_dir / name, dest / name)


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _close(got: np.ndarray, ref: np.ndarray, rtol: float, atol_share: float) -> str:
    """'' when |got - ref| <= rtol |ref| + atol_share max|ref| everywhere."""
    if got.shape != ref.shape:
        return f"shape {got.shape} != reference {ref.shape}"
    err = np.abs(got - ref)
    allowed = rtol * np.abs(ref) + atol_share * np.max(np.abs(ref))
    if not np.all(err <= allowed):
        return f"max deviation {np.max(err):.3e} exceeds tolerance (max |ref| {np.max(np.abs(ref)):.3e})"
    return ""


def _check_tables(workload: str, out_dir: Path, spec: dict) -> list[str]:
    problems = []
    for name in TABLES:
        head, rows = _read_csv(out_dir / name)
        ref_head, ref_rows = _read_csv(REFERENCE / workload / name)
        if head != ref_head or [r[0] for r in rows] != [r[0] for r in ref_rows]:
            problems.append(f"{name}: header or row labels differ from reference")
            continue
        got = np.array([[float(v) for v in r[1:]] for r in rows])
        ref = np.array([[float(v) for v in r[1:]] for r in ref_rows])
        msg = _close(got, ref, spec["table_rtol"], spec["table_rtol"])
        if msg:
            problems.append(f"{name}: {msg}")
    return problems


def _read_peaks(path: Path) -> list[tuple[float, float, float, str]]:
    _, rows = _read_csv(path)
    return [(float(a), float(b), float(c), label) for a, b, c, label in rows]


def _check_spectrum(workload: str, out_dir: Path, spec: dict) -> list[str]:
    from ionspec2d import cli, matio

    problems = []
    ref_grid = matio.read_matrix(REFERENCE / workload / GRID)
    msg = _close(
        matio.read_matrix(out_dir / GRID), ref_grid, spec["grid_rtol"], spec["grid_atol"]
    )
    if msg:
        problems.append(f"{GRID}: {msg}")

    cfg = cli.build_config(spec["config"])
    bin_width = 2 * np.pi / (ref_grid.shape[0] * cfg.zero_pad * cfg.dt_s)
    got = _read_peaks(out_dir / PEAKS)
    ref = _read_peaks(REFERENCE / workload / PEAKS)
    if len(got) != len(ref):
        return problems + [f"{PEAKS}: {len(got)} peaks, reference has {len(ref)}"]
    tol = spec["peak_tol"]
    for w1, w3, mag, label in ref:
        g1, g3, gmag, glabel = min(got, key=lambda p: abs(p[0] - w1) + abs(p[1] - w3))
        if max(abs(g1 - w1), abs(g3 - w3)) > tol * bin_width:
            problems.append(f"{PEAKS}: no peak within {tol:g} bins of ({w1:.6g}, {w3:.6g})")
        elif abs(gmag - mag) > tol * mag or glabel != label:
            problems.append(
                f"{PEAKS}: peak at ({w1:.6g}, {w3:.6g}) has magnitude {gmag:.12g} "
                f"label {glabel!r}, reference {mag:.12g} {label!r}"
            )
    return problems


def check(workload: str, out_dir: Path) -> list[str]:
    """Every way the outputs in ``out_dir`` miss the reference ([] if none)."""
    manifest_path = out_dir / "manifest.json"
    if not manifest_path.is_file():
        return ["no manifest.json"]
    status = json.loads(manifest_path.read_text()).get("status")
    if status != "ok":
        return [f"manifest status {status!r}"]
    spec = WORKLOADS[workload]
    missing = [n for n in reference_files(workload) if not (out_dir / n).is_file()]
    if missing:
        return [f"missing outputs {missing}"]
    if spec["config"]["scenario"] == "tables":
        return _check_tables(workload, out_dir, spec)
    return _check_spectrum(workload, out_dir, spec)
