"""The benchmark's own tests: every output check passes on the program's
real output and fails on a deliberately wrong one; the budget interrupts
an overrunning operation; the tracer's spans and counters add up.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import time
from dataclasses import replace
from pathlib import Path

import pytest

import ladrating as lad
from ladrating.synthetic import nested_dataset

import checks
import harness
import layers
from tracer import Tracer

ROOT = Path(__file__).resolve().parents[1]
PROBE = lad.CountryRecord("probe", 2012, {"U": 80.0, "G": 60000.0, "C": 1.0})
NOWHERE = lad.CountryRecord("nowhere", 2012, {"G": 8000.0, "EX": 40.0, "PPP": 5.0})


@pytest.fixture(scope="module")
def tree_2012():
    text = (ROOT / "data" / "trees" / "tree_2012.txt").read_text()
    return lad.import_decision_tree(text, lad.DEFAULT_SCALE, 2012, strict=False)


@pytest.fixture(scope="module")
def trained():
    ds = lad.split_dataset(nested_dataset(3, n_records=48), 0.65, 3)
    return ds, lad.train_cascade(ds)


def test_reference_agrees_with_classify(tree_2012):
    records = [PROBE, NOWHERE]
    got = [lad.classify(tree_2012, r) for r in records]
    ref = [checks.reference_classify(tree_2012, r) for r in records]
    assert got == ["AAA", "BBBM"]
    assert checks.check_classifications("classify", records, got, ref) == []
    assert checks.check_classifications("classify", records, ["AAA", "BBB"], ref)
    assert checks.check_classifications("classify", records, ["AAA"], ref)


def test_homogeneity_check(trained):
    ds, model = trained
    assert checks.check_homogeneity(model, ds.train_records, 1.0) == []
    # Stage 1 (AAA only) given stage 15's patterns: they cover worse classes.
    stages = list(model.stages)
    stages[0] = replace(stages[0], patterns=stages[-1].patterns)
    wrong = replace(model, stages=tuple(stages))
    assert any("homogeneity" in f for f in checks.check_homogeneity(wrong, ds.train_records, 1.0))


def test_tree_and_reimport_checks(trained):
    ds, model = trained
    text = lad.export_decision_tree(model)
    assert checks.check_same_tree("tree", text, text) == []
    assert checks.check_same_tree("tree", text.replace("\t", " ", 1), text)
    records = ds.labeled_records
    again = lad.import_decision_tree(text, lad.DEFAULT_SCALE, 2012)
    ref = [checks.reference_classify(model, r) for r in records]
    assert checks.check_classifications(
        "re-imported", records, [lad.classify(again, r) for r in records], ref) == []


def test_exact_match_check(trained):
    ds, model = trained
    results = [lad.classify(model, r) for r in ds.labeled_records]
    labels = [r.observed_rating for r in ds.labeled_records]
    report = lad.evaluate(model, ds)
    assert checks.check_exact_matches("evaluate", report.exact_matches, results, labels) == []
    assert checks.check_exact_matches("evaluate", report.exact_matches - 1, results, labels)


def test_cli_output_check(tree_2012):
    records = [PROBE, NOWHERE]
    ref = [checks.reference_classify(tree_2012, r) for r in records]
    out = "probe,2012,classified,AAA\nnowhere,2012,classified,BBBM\n"
    assert checks.check_classifications("cli", records, checks.parse_cli_classify(out), ref) == []
    wrong = out.replace("BBBM", "UNCLASSIFIED")
    assert checks.check_classifications("cli", records, checks.parse_cli_classify(wrong), ref)


def test_over_budget_operation_fails_without_hanging(monkeypatch):
    monkeypatch.setattr(harness, "OP_BUDGET_S", 0.2)
    ledger = harness.Ledger(time.perf_counter())
    start = time.perf_counter()
    op = ledger.run("sleep", time.sleep, 5)
    assert time.perf_counter() - start < 2
    assert op.error.startswith("over budget")
    ok = ledger.run("add", lambda: 1 + 1)
    ledger.fail(ok, ["deliberately wrong"])
    assert (ledger.attempted, ledger.failed) == (2, 2)


def test_self_time_excludes_children():
    tracer = Tracer()
    # id, parent, run, name, start, end, excluded
    tracer.spans = [
        [0, -1, 1, "cascade.train_cascade", 0.0, 10.0, 1.0],
        [1, 0, 1, "binarize.minimize_cutpoints", 1.0, 7.0, 0.5],
        [2, 1, 1, "binarize.binarize", 2.0, 3.0, 0.0],
    ]
    inclusive, own = tracer.times()
    assert inclusive["cascade.train_cascade"] == 9.0
    assert own["cascade.train_cascade"] == pytest.approx(9.0 - 5.5)
    assert own["binarize.minimize_cutpoints"] == pytest.approx(5.5 - 1.0)
    assert inclusive["binarize.binarize"] == own["binarize.binarize"] == 1.0


def test_tracer_catches_nested_calls_and_restores():
    import importlib

    binarize_mod = importlib.import_module("ladrating.binarize")
    original = binarize_mod.binarize
    ds = lad.split_dataset(nested_dataset(5, n_records=40), 0.65, 5)
    tracer = Tracer(layers.HOOKS)
    tracer.install()
    try:
        lad.train_cascade(ds)
    finally:
        tracer.uninstall()
    assert binarize_mod.binarize is original
    assert importlib.import_module("ladrating.cascade").binarize is original
    names = [s[3] for s in tracer.spans]
    stages = names.count("binarize.minimize_cutpoints")
    assert stages > 0
    # One binarize inside each minimization, one more per stage in train_cascade.
    assert names.count("binarize.binarize") == 2 * stages
    metrics = layers.per_layer(tracer, {})
    assert metrics["binarize.pairs"] >= metrics["binarize.pairs_distinct"] > 0
    assert 0 < metrics["binarize.cuts"] <= metrics["binarize.candidates"]
    assert metrics["patterns.enumerate_calls"] >= stages
    assert not tracer.notes
