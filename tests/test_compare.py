"""The comparison harness ``tools/compare.py`` on two tiny configs, with
this tree as its own parent: every artifact and manifest is equal, also
when both sides run from the copies that the harness stages.  Its timings
(perfbench runs) are not exercised here; their summary is, on synthetic
pairs, its suite timing is, on a tree of one trivial test, and its code
line counts are, on trees of one and two tiny modules."""

import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import compare  # noqa: E402

TINY = {
    "kerr": {"scenario": "kerr", "dims": [3, 2, 2], "grid_scale": 0.05},
    "tables": {"scenario": "tables"},
}


def test_tree_is_equal_to_itself(tmp_path):
    # both sides run from staged copies at paths of equal length: the gated
    # peak_rss_mb moves with the length of the tree's path
    copies = compare.stage(ROOT, ROOT, tmp_path)
    assert len(str(copies["parent"])) == len(str(copies["change"]))
    for tree in copies.values():
        assert sorted(p.name for p in tree.iterdir()) == ["BENCHMARK.json", "perfbench", "src"]
    report = compare.compare_results(copies["parent"], copies["change"], TINY, tmp_path / "runs")
    assert set(report) == set(TINY)
    for entry in report.values():
        assert entry["runs"]["parent"]["exit"] == entry["runs"]["change"]["exit"] == 0
        assert "manifest.json" in entry["artifacts"] and len(entry["artifacts"]) > 2
        assert entry["equal"], entry["artifacts"]
    assert compare.results_line(report) == "results: 2 configs equal; differing: none"


def test_digest_tells_the_staged_trees_apart(tmp_path):
    # the tree against itself gives equal digests; a changed file of the
    # change side changes its digest alone
    copies = compare.stage(ROOT, ROOT, tmp_path)
    parent, change = compare.digest(copies["parent"]), compare.digest(copies["change"])
    assert parent == change
    edited = copies["change"] / "src" / "ionspec2d" / "anharmonic.py"
    edited.write_bytes(edited.read_bytes() + b"\n")
    assert compare.digest(copies["change"]) != change
    assert compare.digest(copies["parent"]) == parent


def test_code_lines_leave_out_docstrings_comments_and_blank_lines(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "tiny.py").write_text('"""A module docstring,\nover two lines."""\n\n# a comment\nx = 1\ny = x\n')
    assert compare.code_lines(tmp_path) == 2


def test_code_lines_by_module_sum_to_the_total_and_name_the_changed_module(tmp_path):
    # two tiny modules per side; the change adds one statement to the first
    for side, extra in (("parent", ""), ("change", "z = x\n")):
        (tmp_path / side / "pkg").mkdir(parents=True)
        (tmp_path / side / "pkg" / "a.py").write_text('"""Doc."""\nx = 1\n' + extra)
        (tmp_path / side / "pkg" / "b.py").write_text('# a comment\n\ndef f():\n    "Doc."\n    return 1\n')
    by_module = {side: compare.code_lines_by_module(tmp_path / side) for side in ("parent", "change")}
    assert by_module == {"parent": {"pkg.a": 1, "pkg.b": 2}, "change": {"pkg.a": 2, "pkg.b": 2}}
    assert compare.code_lines(tmp_path / "change") == 4
    assert compare.changed_modules(by_module) == {"pkg.a": (1, 2)}


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
    # the results line carries the config's largest rel, and "-" for a
    # config that differs only in its exit code
    rel = report["freq_shifts_khz.csv"]["rel"]
    results = {"tables": {"equal": False, "artifacts": report}, "kerr": {"equal": False, "artifacts": {}}}
    assert compare.results_line(results) == f"results: 0 configs equal; differing: tables (rel {rel:.3g}), kerr (rel -)"


def test_suite_runs_in_each_tree_in_alternated_order(tmp_path, monkeypatch):
    # a tree of one trivial test, as both sides: the real suite never runs
    # here; the tree needs no installed plugin, and loading them would cost
    # about 0.7 s of each of the four runs
    monkeypatch.setenv("PYTEST_DISABLE_PLUGIN_AUTOLOAD", "1")
    tree = tmp_path / "tree"
    (tree / "src").mkdir(parents=True)
    (tree / "tests").mkdir()
    (tree / "tests" / "test_trivial.py").write_text("def test_trivial():\n    pass\n")
    runs = compare.time_suite(tree, tree)
    assert [run["first"] for run in runs] == ["parent", "change"]
    for run in runs:
        for side in ("parent", "change"):
            assert run[side]["exit"] == 0
            assert run[side]["summary"].startswith("1 passed")
            assert run[side]["wall_s"] > 0
    assert not (tree / ".pytest_cache").exists()


def _pairs(parent, change):
    """Synthetic pairs in run order, every metric of a side read from one
    sequence."""
    return [
        {"parent": dict.fromkeys(compare.METRICS, a), "change": dict.fromkeys(compare.METRICS, b)}
        for a, b in zip(parent, change)
    ]


def test_steady_drop_is_resolved():
    # 10 % lower on every pair, each side jittered by +-1 %
    jitter = 1 + 0.01 * np.array([1, -1, 0.5, -0.5, 0, 1, -1, 0.5, -0.5, 0])
    for s in compare.summarize(_pairs(5e-3 * jitter, 4.5e-3 * jitter[::-1])).values():
        assert s["change_wins"] == s["pairs"] == 10
        assert s["resolved"]


def test_alternating_change_is_not_resolved():
    parent = np.full(10, 5e-3)
    for s in compare.summarize(_pairs(parent, parent * (1 + 0.05 * np.resize([1, -1], 10)))).values():
        assert s["change_wins"] == 5
        assert not s["resolved"]


def test_drift_is_reported():
    # a parent rising linearly from 4.8 to 6.4 ms over one set, beside a
    # steady change
    summary = compare.summarize(_pairs(np.linspace(4.8e-3, 6.4e-3, 10), np.full(10, 5e-3)))
    for s in summary.values():
        assert s["parent_drift"] == pytest.approx(0.16, abs=0.005)
        assert s["change_drift"] == 0.0
    assert compare.summarize([]) == {}
    assert compare.summarize(_pairs([5e-3], [4e-3]))["run_s"]["parent_drift"] == 0.0
