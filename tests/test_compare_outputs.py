"""Tests of scripts/compare_outputs.py, the output-tree comparison tool."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_outputs.py"
_spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)


def _tree(root, files):
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return str(root)


BASE = {"sweep/sweep.csv": "depth,speed\n0,0.100000000\n40,0.200000000\n",
        "sweep/run_manifest.txt": "seed = 1\n"}


def test_identical_trees_exit_0(tmp_path, capsys):
    old, new = _tree(tmp_path / "a", BASE), _tree(tmp_path / "b", BASE)
    assert compare_outputs.main([old, new]) == 0
    out = capsys.readouterr().out
    assert "sweep/sweep.csv: 0 cells differ, max abs diff 0" in out
    assert "sweep/run_manifest.txt: identical" in out
    assert out.splitlines()[-1] == "0 of 2 files differ"


@pytest.mark.parametrize("change, line", [
    ({"sweep/sweep.csv": "depth,speed\n0,0.100000001\n40,0.200000000\n"},
     "sweep/sweep.csv: 1 cells differ, max abs diff 1e-09"),
    ({"sweep/sweep.csv": "depth,speed\n0,0.100000000\n"},
     "sweep/sweep.csv: shape differs (3 vs 2 rows)"),
    ({"sweep/run_manifest.txt": "seed = 2\n"},
     "sweep/run_manifest.txt: bytes differ"),
    ({"sweep/extra.csv": "a\n"}, "sweep/extra.csv: only in NEW"),
])
def test_any_difference_is_reported_and_exits_1(tmp_path, capsys, change,
                                                 line):
    old = _tree(tmp_path / "a", BASE)
    new = _tree(tmp_path / "b", {**BASE, **change})
    assert compare_outputs.main([old, new]) == 1
    out = capsys.readouterr().out
    assert line in out.splitlines()
    assert out.splitlines()[-1].startswith("1 of ")
