"""Tests of scripts/ab.py, the in-process A/B timing tool."""

import importlib.util
import shutil
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("ab", ROOT / "scripts" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)


def _copy_tree(dest):
    shutil.copytree(ROOT / "src" / "granugait", dest / "src" / "granugait",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return str(dest)


def test_two_copies_of_one_tree_give_identical_outputs(tmp_path, capsys):
    """Both copies are imported side by side under their own names; their
    outputs agree file by file and the record's ratios are consistent."""
    a, b = _copy_tree(tmp_path / "a"), _copy_tree(tmp_path / "b")
    scratch = tmp_path / "scratch"
    scratch.mkdir()
    rec = ab.ab(a, b, "openloop", 2, 1, str(scratch))
    out = capsys.readouterr().out
    assert rec["files_differing"] == 0
    assert out.strip().endswith(" files differ")
    assert out.strip().splitlines()[-1].startswith("0 of ")
    assert len(rec["parent_s"]) == len(rec["change_s"]) == 2
    assert 0 < rec["ratio_q1"] <= rec["ratio_median"] <= rec["ratio_q3"]
    assert 0 <= rec["won"] <= 2
    # each side ran its own copy, not the package on sys.path
    for name, tree in (("_ab_parent", a), ("_ab_change", b)):
        assert sys.modules[f"{name}.harness"].__file__.startswith(tree)


def test_main_prints_the_summary_line_and_writes_json(tmp_path, capsys,
                                                      monkeypatch):
    for var in ab.THREAD_VARS:      # main sets them; restored afterwards
        monkeypatch.setenv(var, "1")
    a, b = _copy_tree(tmp_path / "a"), _copy_tree(tmp_path / "b")
    out_json = tmp_path / "ab.json"
    assert ab.main([a, b, "--workload", "openloop", "--pairs", "2",
                    "--json", str(out_json)]) == 0
    line = capsys.readouterr().out.strip().splitlines()[-1]
    assert line.startswith("openloop: change/parent ")
    assert "change won" in line
    assert '"ratio_median"' in out_json.read_text()


def test_a_tree_without_the_package_is_refused(tmp_path):
    with pytest.raises(SystemExit, match="no src/granugait package"):
        ab.load_tree(str(tmp_path), "_ab_missing")
