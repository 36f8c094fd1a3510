"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""

import itertools
import json
import random
import statistics
import time

import pytest

from ladrating import (
    BUILTIN_INDICATORS,
    CountryRecord,
    CutPoint,
    DEFAULT_SCALE,
    Literal,
    MiningConfig,
    binarize,
    classify,
    enumerate_patterns,
    export_decision_tree,
    import_decision_tree,
    minimize_cutpoints,
    repeat_offenders,
    report_from_pairs,
    split_dataset,
    train_cascade,
)
from ladrating.cli import EXIT_OK, main
from ladrating.synthetic import clustered_dataset, nested_dataset

from conftest import TREE_DIR, TREE_YEARS, tree_text

NOWHERE = CountryRecord(
    "Nowhere",
    2012,
    {"G": 8000.0, "EX": 40.0, "PPP": 5.0, "C": -10.0, "R": 1e9, "I": 12.0,
     "E": 60.0, "UN": 2.0},
)


def _passed(n, text):
    print(f"\n[criterion {n}] PASS — {text}")


def test_criterion_1_published_tree_execution():
    start = time.perf_counter()
    model = import_decision_tree(tree_text(2012), DEFAULT_SCALE, 2012, strict=False)

    probe = CountryRecord("probe", 2012, {"U": 80.0, "G": 60000.0})
    assert classify(model, probe) == "AAA"

    assert classify(model, NOWHERE) == "BBBM"
    stage = model.stages[9]  # k = 10, the BBBM boundary
    assert stage.rating_index == 10
    group_hits = [p.matches(NOWHERE) for p in stage.patterns]
    assert group_hits == [True, False, False]
    # no earlier stage claims the record
    assert not any(s.matches(NOWHERE) for s in model.stages[:9])

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _passed(1, f"2012 walkthrough reproduced in {elapsed:.3f}s")


def _probe_records(seed, n=200):
    rng = random.Random(seed)
    codes = [i.code for i in BUILTIN_INDICATORS]
    return [
        CountryRecord(
            f"probe{i}", 0,
            {c: rng.uniform(-20.0, 60000.0) for c in codes if rng.random() < 0.8},
        )
        for i in range(n)
    ]


def test_criterion_2_round_trip_all_trees():
    start = time.perf_counter()
    probes = _probe_records(seed=42, n=200)
    for year in TREE_YEARS:
        first = import_decision_tree(tree_text(year), DEFAULT_SCALE, year, strict=False)
        second = import_decision_tree(
            export_decision_tree(first), DEFAULT_SCALE, year, strict=True
        )
        for rec in probes:
            assert classify(first, rec) == classify(second, rec)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _passed(2, f"4 trees x 200 probes round-tripped in {elapsed:.2f}s")


def _stage_purity(model, dataset):
    """No negative training record satisfies any stage pattern."""
    train = dataset.train_records
    for stage in model.stages:
        negatives = [
            r for r in train
            if dataset.scale.index(r.observed_rating) > stage.rating_index
        ]
        for pattern in stage.patterns:
            assert not any(pattern.matches(r) for r in negatives), (
                f"stage {stage.rating_index} pattern covers a training negative"
            )


def test_criterion_3_training_fidelity_and_generalization():
    config = MiningConfig()
    train_scores, test_scores = [], []
    relaxed_runs = 0
    for seed in range(10):
        for generator in (nested_dataset, clustered_dataset):
            ds = split_dataset(generator(seed=seed, n_records=90), 0.65, seed=seed)
            model = train_cascade(ds, config)
            _stage_purity(model, ds)

            train = ds.train_records
            fidelity = sum(
                1 for r in train if classify(model, r) == r.observed_rating
            ) / len(train)
            full_coverage = not any(s.uncovered for s in model.stages)
            if any(s.relaxations for s in model.stages):
                relaxed_runs += 1
                assert fidelity >= 0.95
            if full_coverage:
                assert fidelity == 1.0
            train_scores.append(fidelity)

            test = ds.test_records
            accuracy = sum(
                1 for r in test if classify(model, r) == r.observed_rating
            ) / len(test)
            assert accuracy >= 0.70
            test_scores.append(accuracy)

    assert len(train_scores) == 20
    assert relaxed_runs > 0  # both regimes exercised
    _passed(
        3,
        "20 seeds: train fidelity min/mean "
        f"{min(train_scores):.3f}/{statistics.mean(train_scores):.3f}, "
        "test accuracy min/mean "
        f"{min(test_scores):.3f}/{statistics.mean(test_scores):.3f} "
        f"({relaxed_runs} runs relaxed)",
    )


def test_criterion_4_homogeneity_purity():
    for seed in (0, 1, 2, 3, 4):
        for generator in (nested_dataset, clustered_dataset):
            ds = generator(seed=seed, n_records=72)
            model = train_cascade(ds, MiningConfig(min_homogeneity=1.0))
            _stage_purity(model, ds)
    _passed(4, "no trained stage pattern covers any training negative")


def _oracle_patterns(records, cutpoints, max_degree, min_prev, min_hom):
    def truth(lit, r):
        v = r.values.get(lit.indicator)
        if v is None:
            return False
        return v >= lit.threshold if lit.direction == ">=" else v <= lit.threshold

    literals = [
        Literal(cp.indicator, d, cp.threshold) for cp in cutpoints for d in (">=", "<=")
    ]
    total_pos = sum(1 for _, l in records if l)
    out = set()
    for d in range(1, max_degree + 1):
        for combo in itertools.combinations(literals, d):
            if len({(l.indicator, l.direction) for l in combo}) != d:
                continue
            cov = [(r, l) for r, l in records if all(truth(c, r) for c in combo)]
            cp_ = sum(1 for _, l in cov if l)
            if cp_ == 0 or cp_ / total_pos < min_prev - 1e-12:
                continue
            if cp_ / len(cov) < min_hom - 1e-12:
                continue
            out.add(frozenset(combo))
    return out


def _separates(records, cuts, pair):
    (a, b) = pair

    def vec(r):
        return tuple(
            r.values.get(c.indicator) is not None and r.values[c.indicator] >= c.threshold
            for c in cuts
        )

    return vec(a) != vec(b)


def test_criterion_5_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(99)
    checked = 0
    while checked < 15:
        n_records = rng.randint(6, 12)
        records = []
        for i in range(n_records):
            values = {
                c: float(rng.randint(0, 5))
                for c in ("G", "EX")
                if rng.random() < 0.9
            }
            records.append((CountryRecord(f"c{i}", 0, values), rng.random() < 0.5))
        if not any(l for _, l in records):
            continue
        cutpoints = [CutPoint(c, t + 0.5) for c in ("G", "EX") for t in range(5)][:10]

        view = binarize(records, cutpoints)
        got = {
            frozenset(p.literals)
            for p in enumerate_patterns(
                view, MiningConfig(min_prevalence=0.3, min_homogeneity=0.7), prune=False
            )
        }
        assert got == _oracle_patterns(records, cutpoints, 3, 0.3, 0.7)

        # exact minimization is never beaten by any separating subset
        try:
            minimal = minimize_cutpoints(cutpoints, records, exact_cell_limit=10**6)
        except Exception:
            continue  # contradictory instance, covered elsewhere
        pairs = [
            (a, b)
            for (a, la), (b, lb) in itertools.combinations(records, 2)
            if la != lb and _separates(records, cutpoints, (a, b))
        ]
        for size in range(len(minimal)):
            for subset in itertools.combinations(cutpoints, size):
                assert not all(_separates(records, list(subset), p) for p in pairs)
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _passed(5, f"{checked} fixture instances matched both oracles in {elapsed:.1f}s")


def test_criterion_6_evaluation_fidelity(mismatch_rows):
    start = time.perf_counter()
    reports = [
        report_from_pairs(
            [(c, m, o) for y, _, c, m, o in mismatch_rows if y == year],
            DEFAULT_SCALE,
        )
        for year in (2012, 2013, 2014, 2015)
    ]
    summary = repeat_offenders(reports)
    assert summary.more_than_twice == ("Iceland",)
    assert set(summary.twice) == {
        "Ukraine", "Rwanda", "Portugal", "Namibia", "Cyprus", "Congo Dem Republic",
    }
    assert reports[0].model_better_share == 1.0
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _passed(6, f"repeat-offender buckets and 2012 bias reproduced in {elapsed:.3f}s")


def test_criterion_7_byte_identical_artifacts(tmp_path):
    from ladrating import serialize_dataset

    data = tmp_path / "data.csv"
    data.write_text(serialize_dataset(nested_dataset(seed=5, n_records=64)))
    outputs = {}
    for run in ("a", "b"):
        model = tmp_path / f"model_{run}"
        assert main([
            "train", "--data", str(data), "--year", "2012",
            "--split-fraction", "0.6", "--seed", "4", "--out", str(model),
        ]) == EXIT_OK
        evaluation = tmp_path / f"eval_{run}"
        assert main([
            "evaluate", "--model", str(model) + ".tree.txt", "--data", str(data),
            "--split-fraction", "0.6", "--seed", "4", "--out", str(evaluation),
        ]) == EXIT_OK
        outputs[run] = [
            (tmp_path / f"model_{run}.tree.txt").read_bytes(),
            (tmp_path / f"model_{run}.provenance.json").read_bytes(),
            (tmp_path / f"model_{run}.train.log").read_bytes(),
            (tmp_path / f"eval_{run}.report.txt").read_bytes(),
            (tmp_path / f"eval_{run}.report.json").read_bytes(),
        ]
    assert outputs["a"] == outputs["b"]
    _passed(7, "train + evaluate artifacts byte-identical across reruns")
