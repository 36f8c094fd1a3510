"""The CLI's input contract under mutated inputs: whatever the data or tree
file holds, `main()` ends in a documented exit code, never a traceback, and
a rejection is one stderr line."""

import contextlib
import io

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ladrating.cli import main

from conftest import TREE_DIR, tree_text
from test_cli import GOOD_CSV

EXIT_CODES = {0, 2, 3, 4, 5, 6}
#: Fragments that CSV, numbers and tree text give meaning to.
TOKENS = (
    ",", "\n", "\r", '"', "\t", " ", "(", ")", ">=", "<=", "=", "OR", "-", ".", "e", "1e999",
    "nan", "inf", "0", "9", "2012", "AAA", "BM", "ZZ", "G", "EX", "U", "country", "rating",
    "\x00", "﻿", "é", "Côte",
)
edits = st.lists(
    st.tuples(st.integers(0, 10_000), st.sampled_from(("insert", "delete", "replace")),
              st.sampled_from(TOKENS) | st.text(max_size=3)),
    min_size=1, max_size=6,
)


def mutate(text: str, steps) -> str:
    """`text` after each (position, operation, fragment) edit in turn; a
    position past the end wraps."""
    for at, op, fragment in steps:
        at %= len(text) + 1
        if op == "insert":
            text = text[:at] + fragment + text[at:]
        elif op == "delete":
            text = text[:at] + text[at + len(fragment) + 1:]
        else:
            text = text[:at] + fragment + text[at + len(fragment):]
    return text


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def run(argv) -> tuple[int, str]:
    """`main(argv)`'s exit code and stderr; an exception escapes as itself."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main([str(a) for a in argv])
        except SystemExit as exc:  # argparse's usage error
            code = exc.code
    return code, err.getvalue()


def assert_contract(argv):
    code, err = run(argv)
    assert code in EXIT_CODES, (argv, code, err)
    assert "Traceback" not in err
    if code != 0:
        assert len(err.splitlines()) == 1, (argv, err)


def data_commands(work, data):
    tree = TREE_DIR / "tree_2012.txt"
    return [
        ["train", "--data", data, "--year", "2012", "--out", work / "m"],
        ["evaluate", "--model", tree, "--lenient", "--data", data],
        ["classify", "--model", tree, "--lenient", "--data", data, "--out", work / "out.csv"],
        ["suggest", "--model", tree, "--lenient", "--data", data],
    ]


def tree_commands(work, tree):
    return [
        ["import-tree", "--file", tree, "--year", "2012", "--out", work / "t"],
        ["import-tree", "--file", tree, "--year", "2012", "--lenient", "--out", work / "t"],
        ["export-tree", "--model", tree, "--lenient"],
        ["report-keyvars", "--model", tree, "--lenient"],
        ["classify", "--model", tree, "--lenient", "--country-values", "U=80,G=60000"],
    ]


FUZZ = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@given(edits, st.integers(0, 3))
@FUZZ
def test_mutated_csv(work, steps, command):
    data = work / "data.csv"
    data.write_text(mutate(GOOD_CSV, steps), encoding="utf-8")
    assert_contract(data_commands(work, data)[command])


@given(st.binary(max_size=120), st.integers(0, 8))
@FUZZ
def test_raw_bytes(work, blob, command):
    path = work / "raw"
    path.write_bytes(blob)
    commands = data_commands(work, path) + tree_commands(work, path)
    assert_contract(commands[command])


@given(st.sampled_from((2012, 2013, 2014, 2015)), edits, st.integers(0, 4))
@FUZZ
def test_mutated_tree(work, year, steps, command):
    tree = work / "tree.txt"
    tree.write_text(mutate(tree_text(year), steps), encoding="utf-8")
    assert_contract(tree_commands(work, tree)[command])
