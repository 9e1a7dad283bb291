"""The comparison harness ``tools/compare.py`` on two tiny configs, with
this tree as its own parent: every artifact and manifest is equal.  Its
timings (perfbench runs) are not exercised here."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import compare  # noqa: E402

TINY = {
    "kerr": {"scenario": "kerr", "dims": [3, 2, 2], "grid_scale": 0.05},
    "tables": {"scenario": "tables"},
}


def test_tree_is_equal_to_itself(tmp_path):
    report = compare.compare_results(ROOT, ROOT, TINY, tmp_path)
    assert set(report) == set(TINY)
    for entry in report.values():
        assert entry["runs"]["parent"]["exit"] == entry["runs"]["change"]["exit"] == 0
        assert "manifest.json" in entry["artifacts"] and len(entry["artifacts"]) > 2
        assert entry["equal"], entry["artifacts"]


def test_a_changed_number_is_reported(tmp_path):
    compare.compare_results(ROOT, ROOT, {"tables": TINY["tables"]}, tmp_path)
    got = tmp_path / "change" / "tables" / "freq_shifts_khz.csv"
    lines = got.read_text().splitlines()
    cells = lines[1].split(",")
    cells[1] = repr(float(cells[1]) + 1.0)
    got.write_text("\n".join([lines[0], ",".join(cells), *lines[2:]]) + "\n")
    report = compare.compare_artifacts(tmp_path / "parent" / "tables", tmp_path / "change" / "tables")
    assert report["freq_shifts_khz.csv"]["max_abs_diff"] == 1.0
    assert report["dephasing_rates_khz.csv"] == report["manifest.json"] == "equal"
