"""Smoke tests: the scripts under scripts/ run to the end on the current API."""

import importlib.util
import sys

from conftest import REPO_ROOT, TREE_YEARS


def load_script(name: str, monkeypatch):
    """The module of scripts/<name>.py; its sys.path insert is undone after
    the test."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(name, REPO_ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_synthetic_study(monkeypatch, capsys):
    assert load_script("synthetic_study", monkeypatch).main(2) == 0
    lines = capsys.readouterr().out.splitlines()
    for generator in ("nested_dataset", "clustered_dataset"):
        rows = [line.split() for line in lines if line.startswith(f"{generator} ")]
        assert [row[1] for row in rows] == ["0", "1", "mean"]
        for _, _, train, test, relaxed in rows[:2]:
            assert 0.0 <= float(train) <= 1.0 and 0.0 <= float(test) <= 1.0
            assert relaxed in ("True", "False")


def test_replay_published_trees(monkeypatch, capsys):
    assert load_script("replay_published_trees", monkeypatch).main() == 0
    out = capsys.readouterr().out
    for year in TREE_YEARS:
        assert f"=== {year} ===" in out
    assert out.count("  no-data        -> ") == len(TREE_YEARS)



def test_src_lines(monkeypatch, capsys):
    module = load_script("src_lines", monkeypatch)
    assert module.main() == 0
    header, *rows, total = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert header == ["module", "lines", "code"] and total[0] == "total"
    assert {row[0] for row in rows} >= {"__init__.py", "cascade.py", "cli.py"}
    for column in (1, 2):
        assert int(total[column]) == sum(int(row[column]) for row in rows)
    assert all(0 < int(code) < int(lines) for _, lines, code in rows)
    # A docstring, a comment and a blank line are not code; a multi-line
    # expression counts every line it spans.
    source = '"""Doc.\n\nMore."""\n# note\n\nx = (\n    1,\n)\n\n\ndef f():\n    """Doc."""\n    return x\n'
    assert module.count(source) == (13, 5)
