import copy
import gc
import hashlib
import importlib
import itertools
import math
import pickle
import random
import re
import sys
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ladrating import (
    CascadeModel,
    ClassDnf,
    ContradictionError,
    CountryRecord,
    DataFormatError,
    DEFAULT_SCALE,
    Dataset,
    Literal,
    MiningConfig,
    Pattern,
    RatingScale,
    classify,
    evaluate,
    export_decision_tree,
    first_match,
    import_decision_tree,
    key_variables,
    split_dataset,
    train_cascade,
)
from ladrating import cascade as cascade_module
from ladrating.data import FALLBACK_TO_LAST, UNCLASSIFIED_POLICY, Split, value_matrix
from ladrating.synthetic import clustered_dataset, nested_dataset

from conftest import TREE_YEARS, noisy_dataset, published_tree_dataset, tree_text
from test_binarize import _reference_minimize

data_module = importlib.import_module("ladrating.data")
UNCLASSIFIED_SCALE = RatingScale(DEFAULT_SCALE.classes, fallback_policy=UNCLASSIFIED_POLICY)
POLICIES = (FALLBACK_TO_LAST, UNCLASSIFIED_POLICY)
NAN = float("nan")
INF = math.inf


def rec(country, values, rating=None):
    return CountryRecord(country, 2012, values, rating)


def three_class_dataset():
    return Dataset(
        records=(
            rec("a1", {"G": 100.0}, "AAA"),
            rec("a2", {"G": 95.0}, "AAA"),
            rec("b1", {"G": 50.0}, "A"),
            rec("b2", {"G": 55.0}, "A"),
            rec("c1", {"G": 10.0}, "BM"),
            rec("c2", {"G": 12.0}, "BM"),
        )
    )


def nested_16_dataset():
    records = []
    for k, label in enumerate(DEFAULT_SCALE.classes, start=1):
        base = (17 - k) * 10.0
        records.append(rec(f"x{k}", {"G": base}, label))
        records.append(rec(f"y{k}", {"G": base + 2.0}, label))
    return Dataset(records=tuple(records))


#: sha256 of `export_decision_tree(train_cascade(ds))`, pinned from the
#: dict-walk training that the value-matrix training replaced: the trees must
#: not move.
PINNED_TREES = {
    "nested-0": "3872795d488ff8f5a119e3224596b72d18bd18e0908dcae03316158de38a55f7",
    "nested-1": "b76d4c10acc0fae4feb8f2ad21862a062dc69a27fca5f38e60c4233c115a0382",
    "nested-2": "05158e6bd1167bceb35ee5477da74eedf731b4adc9de895c22ab8a1db37f6fc3",
    "clustered-0": "299a607f05de1095b965063000b06540acfbfa448e456cf78f8466c4f208648c",
    "clustered-1-split": "dde6a1cc2c6f7c17ffcc265ba0ce627b480dcfff6ccd704e4b8296a7fe81829b",
    "three-class": "8bd285204bcc623316257b062db848abded282ebfba239d771f7e834c94bf364",
    "nested-16": "b09c36d31375622b1077eb3cc7c20cbb19c0b2546c823d8ed4c3be039aab747a",
    "noisy-0": "f589233476249ee8338c2af0a772d8f1133464e4c201b2de20e233331179cf48",
    "noisy-1": "9234613f027b138e400792eabe7ae3009de3155598afa063424a12072627d9b1",
    "noisy-2": "958779a5ce2482e5f745f3ccaf9e6439439ad74ea43cb45c4a76a27c6fc72b5b",
    "published-2014": "cc3ce9d46530a80938fd8ea26c315d9b608e4a2740810337651eaf0195445f52",
}

PINNED_DATASETS = {
    # The train-nested benchmark inputs: n=300, a 0.65 split.
    **{
        f"nested-{s}": (lambda s=s: split_dataset(nested_dataset(s, n_records=300), 0.65, s))
        for s in range(3)
    },
    "clustered-0": lambda: clustered_dataset(0),
    "clustered-1-split": lambda: split_dataset(clustered_dataset(1, n_records=150), 0.65, 1),
    "three-class": three_class_dataset,
    "nested-16": nested_16_dataset,
    # Shapes that load pattern mining: weak-signal data like the train-noisy
    # benchmark inputs (a 0.65 split), and about 100 records rated by the
    # published 2014 tree.
    **{
        f"noisy-{s}": (lambda s=s: split_dataset(noisy_dataset(s), 0.65, s))
        for s in range(3)
    },
    "published-2014": lambda: published_tree_dataset(2014, seed=0),
}


class TestTrain:
    def test_sparse_classes_leave_empty_stages(self):
        model = train_cascade(three_class_dataset())
        nontrivial = [s.rating_index for s in model.stages if s.patterns]
        assert nontrivial == [1, 6]
        assert all(not model.stages[k - 1].patterns for k in range(2, 6))

    def test_nested_classes_give_one_literal_stages(self):
        model = train_cascade(nested_16_dataset())
        for stage in model.stages:
            assert len(stage.patterns) == 1
            (pattern,) = stage.patterns
            assert [l.indicator for l in pattern.literals] == ["G"]
            assert pattern.literals[0].direction == ">="

    def test_single_class_errors(self):
        ds = Dataset(records=(rec("a", {"G": 1.0}, "AAA"), rec("b", {"G": 2.0}, "AAA")))
        with pytest.raises(DataFormatError):
            train_cascade(ds)

    def test_cumulative_positive_sets_are_nested(self):
        ds = nested_16_dataset()
        model = train_cascade(ds)
        matched_prev: set = set()
        for stage in model.stages:
            matched = {r.record_id for r in ds.records if stage.matches(r)}
            assert matched_prev <= matched
            matched_prev = matched

    def test_training_labels_reproduced(self):
        ds = nested_16_dataset()
        model = train_cascade(ds)
        for r in ds.records:
            assert classify(model, r) == r.observed_rating

    def test_deterministic(self):
        a = train_cascade(nested_16_dataset())
        b = train_cascade(nested_16_dataset())
        assert a == b

    def test_contradiction_carries_its_stage(self):
        ds = Dataset(records=(rec("X", {"G": 1.0}, "AAA"), rec("Y", {"G": 1.0}, "BM")))
        with pytest.raises(ContradictionError) as info:
            train_cascade(ds)
        assert info.value.stage == "stage 1 (AAA)"
        assert str(info.value).startswith("opposite-class records")
        assert info.value.pairs == [("X:2012", "Y:2012")]

    @pytest.mark.parametrize("case", sorted(PINNED_TREES))
    def test_trees_pinned(self, case):
        tree = export_decision_tree(train_cascade(PINNED_DATASETS[case]()))
        assert hashlib.sha256(tree.encode()).hexdigest() == PINNED_TREES[case]

    @pytest.mark.parametrize("case", ["nested-0", "noisy-0"])
    def test_stage_cuts_match_reference_minimizer(self, case, monkeypatch):
        # Stages of thousands of pairs, most of them repeats; the hypothesis
        # problems of test_binarize hold at most 19 records.
        calls = []
        minimize = cascade_module.minimize_cutpoints

        def spy(candidates, records, **kwargs):
            calls.append((candidates, records, minimize(candidates, records, **kwargs)))
            return calls[-1][2]

        monkeypatch.setattr(cascade_module, "minimize_cutpoints", spy)
        train_cascade(PINNED_DATASETS[case]())
        assert len(calls) == len(DEFAULT_SCALE.classes) - 1
        for candidates, records, cuts in calls:
            assert cuts == _reference_minimize(candidates, records)

    @pytest.mark.parametrize("case", sorted(PINNED_DATASETS) + ["adjacent-up", "adjacent-down"])
    def test_pattern_counts_match_pattern_matches(self, case):
        # The mining truth table must agree with `Literal.evaluate`, also
        # where a cut point falls between adjacent floats.
        if case.startswith("adjacent"):
            low = 1.0 if case == "adjacent-down" else 1.0000000000000002
            high = math.nextafter(low, INF)
            ds = Dataset(records=(rec("x", {"G": low}, "AAA"), rec("y", {"G": high}, "BM")))
        else:
            ds = PINNED_DATASETS[case]()
        model = train_cascade(ds)
        rank = {r.key: ds.scale.classes.index(r.observed_rating) for r in ds.train_records}
        patterns = 0
        for stage in model.stages:
            positives = [r for r in ds.train_records if rank[r.key] < stage.rating_index]
            negatives = [r for r in ds.train_records if rank[r.key] >= stage.rating_index]
            for p in stage.patterns:
                assert p.covered_positives == sum(map(p.matches, positives))
                assert p.covered_negatives == sum(map(p.matches, negatives))
                patterns += 1
        assert patterns or case.startswith("adjacent")

    def test_fingerprint_is_computed_once_per_dataset(self, monkeypatch):
        serialized = []
        serialize = data_module.serialize_dataset
        monkeypatch.setattr(
            data_module, "serialize_dataset", lambda ds: serialized.append(ds) or serialize(ds)
        )
        ds = three_class_dataset()
        first, second = train_cascade(ds), train_cascade(ds)
        assert len(serialized) == 1 and serialized[0] is ds
        expected = hashlib.sha256(serialize(ds).encode()).hexdigest()[:16]
        assert first.provenance.dataset_fingerprint == expected
        assert second.provenance.dataset_fingerprint == expected
        split = replace(ds, split=Split(frozenset({("a1", 2012), ("b1", 2012), ("c1", 2012)}),
                                        frozenset({("a2", 2012), ("b2", 2012), ("c2", 2012)})))
        train_cascade(split)
        assert len(serialized) == 2 and serialized[1] is split

    @pytest.mark.parametrize("value", [NAN, INF, -INF])
    def test_non_finite_value_is_a_format_error(self, value):
        records = list(three_class_dataset().records)
        records[2] = rec("b1", {"G": 50.0, "EX": value}, "A")
        with pytest.raises(DataFormatError, match=r"^b1:2012 \(EX\): non-finite value"):
            train_cascade(Dataset(records=tuple(records)))

    def test_rating_off_the_scale_is_a_format_error(self, monkeypatch):
        # `load_dataset` rejects such a label; a hand-built dataset must not
        # train with it ranked below the last class.
        records = list(three_class_dataset().records)
        records[2] = rec("b1", {"G": 50.0, "EX": 1.0}, "ZZZ")
        minimized = []
        monkeypatch.setattr(
            cascade_module, "minimize_cutpoints", lambda *a, **k: minimized.append(a) or []
        )
        with pytest.raises(DataFormatError, match=r"^b1:2012: unknown rating label 'ZZZ'$"):
            train_cascade(Dataset(records=tuple(records)))
        assert minimized == []


class TestClassify:
    def test_first_match_wins(self):
        model = train_cascade(three_class_dataset())
        # G=100 satisfies the stage-1 DNF and (being cumulative) stage 6 too
        assert model.stages[5].matches(rec("probe", {"G": 100.0}))
        assert classify(model, rec("probe", {"G": 100.0})) == "AAA"

    def test_fallback_to_last(self):
        model = train_cascade(three_class_dataset())
        assert classify(model, rec("probe", {"G": -5.0})) == "BM"

    def test_unclassified_policy(self):
        ds = replace(three_class_dataset(), scale=UNCLASSIFIED_SCALE)
        model = train_cascade(ds)
        assert classify(model, rec("probe", {"G": -5.0})) is None

    def test_pattern_order_within_stage_is_irrelevant(self):
        from ladrating import ClassDnf

        model = train_cascade(nested_16_dataset())
        probes = [rec(f"p{v}", {"G": float(v)}) for v in range(0, 180, 7)]
        baseline = [classify(model, p) for p in probes]
        shuffled = replace(
            model,
            stages=tuple(
                ClassDnf(s.rating_index, tuple(reversed(s.patterns)), s.uncovered, s.relaxations)
                for s in model.stages
            ),
        )
        assert [classify(shuffled, p) for p in probes] == baseline


class TestSuggest:
    """A suggestion is the classification of an unrated record; the CLI's
    `suggest` rejects a rated one (tests/test_cli.py)."""

    def test_suggestion_matches_classify(self):
        model = train_cascade(three_class_dataset())
        unrated = rec("new", {"G": 52.0})
        assert _first_match_labels(model, [unrated]) == [classify(model, unrated)]

    def test_all_missing_is_unclassified(self):
        ds = replace(three_class_dataset(), scale=UNCLASSIFIED_SCALE)
        model = train_cascade(ds)
        assert classify(model, rec("new", {})) is None

    def test_dominating_record_is_top_class(self):
        model = train_cascade(nested_16_dataset())
        assert classify(model, rec("new", {"G": 1000.0})) == "AAA"


class TestKeyVariables:
    def test_tree_2012_aaa_group_is_all_g(self, tree_2012_model):
        report = key_variables(tree_2012_model)
        count, share = report.groups["AAA"]["G"]
        assert share == 1.0

    def test_empty_model_gives_empty_report(self):
        from ladrating import CascadeModel, ClassDnf

        model = CascadeModel(
            scale=DEFAULT_SCALE,
            year=0,
            stages=tuple(ClassDnf(k, ()) for k in range(1, 16)),
        )
        report = key_variables(model)
        assert report.per_stage == {}
        assert all(usage == {} for usage in report.groups.values())

    def test_short_scale_leaves_out_groups_past_its_end(self):
        scale = RatingScale(("A", "B", "C", "D"))
        ds = Dataset(
            records=tuple(
                rec(f"{label}{i}", {"G": 10.0 * (4 - k) + i}, label)
                for k, label in enumerate(scale.classes)
                for i in (0, 1)
            ),
            scale=scale,
        )
        report = key_variables(train_cascade(ds))
        assert list(report.groups) == ["A", "B-D"]
        assert report.groups["B-D"] == {"G": (2, 1.0)}

    def test_single_pattern_counts(self):
        from ladrating import CascadeModel, ClassDnf, Literal, Pattern

        pattern = Pattern(literals=(Literal("G", ">=", 5.0), Literal("I", "<=", 2.0)))
        stages = [ClassDnf(k, ()) for k in range(1, 16)]
        stages[0] = ClassDnf(1, (pattern,))
        model = CascadeModel(scale=DEFAULT_SCALE, year=0, stages=tuple(stages))
        assert key_variables(model).per_stage["AAA"] == {
            "G": (1, 1.0),
            "I": (1, 1.0),
        }


def _first_match_name(model, record):
    """Reference: the cascade spelled out over `Literal.evaluate`, naming what
    decided: `("stage", k, j)` for pattern j of stage k, `("tail", j)` for
    pattern j of the last-class row, or `("fallback",)`."""

    def fired(dnf):
        return next(
            (j for j, p in enumerate(dnf.patterns) if all(lit.evaluate(record) for lit in p.literals)),
            None,
        )

    for stage in model.stages:
        j = fired(stage)
        if j is not None:
            return ("stage", stage.rating_index, j)
    if model.scale.fallback_policy == UNCLASSIFIED_POLICY and model.tail is not None:
        j = fired(model.tail)
        if j is not None:
            return ("tail", j)
    return ("fallback",)


def _first_match_walk(model, record):
    """Reference: the label `_first_match_name` leads to."""
    classes = model.scale.classes
    name = _first_match_name(model, record)
    if name[0] == "stage":
        return classes[name[1] - 1]
    if name[0] == "tail" or model.scale.fallback_policy == FALLBACK_TO_LAST:
        return classes[-1]
    return None


def _table_walk(model, record):
    """Reference: the loop over `CascadeModel._first_match` that `classify`
    ran before the table was compiled into a function."""
    get = record.values.get
    for label, literals in model._first_match:
        for code, direction, t in literals:
            x = get(code, NAN)
            if not (x >= t if direction == ">=" else x <= t):
                break
        else:
            return label


def _entry_names(model):
    """The name of each entry of the model's first-match table, in its order."""
    names = [("stage", s.rating_index, j) for s in model.stages for j in range(len(s.patterns))]
    if model.scale.fallback_policy == UNCLASSIFIED_POLICY and model.tail is not None:
        names += [("tail", j) for j in range(len(model.tail.patterns))]
    return names + [("fallback",)]


def _first_match_labels(model, records):
    """The labels of the entries `first_match` gives `records`, over the
    `value_matrix` of the codes the model's checks name."""
    table = model._first_match
    codes = sorted({code for _, entry in table for code, _, _ in entry})
    return [table[i][0] for i in first_match(model, codes, value_matrix(records, codes)).tolist()]


def _kernels(model):
    """The model's own per-record kernel, then both kernels built afresh
    from its table: the rank masks and the compiled function."""
    table = model._first_match
    return (
        model._first_match_index,
        cascade_module._rank_first_match(table),
        cascade_module._compile_first_match(table),
    )


def _built_kernel(model):
    """The names of the kernels the model builds on its first `classify`."""
    built = []
    with pytest.MonkeyPatch.context() as mp:
        for name in ("_rank_first_match", "_compile_first_match"):
            kernel = getattr(cascade_module, name)
            mp.setattr(cascade_module, name, lambda t, name=name, kernel=kernel: built.append(name) or kernel(t))
        classify(model, rec("probe", {}))
    return built


def _noisy_model():
    return train_cascade(PINNED_DATASETS["noisy-0"]())


def _assert_batch_agrees(model, records):
    """`classify`, `first_match` and both reference walks give the same
    labels, and the model's kernel, the rank kernel and the compiled table
    the same entry indices as `first_match`."""
    codes = sorted({code for _, entry in model._first_match for code, _, _ in entry})
    index = first_match(model, codes, value_matrix(records, codes)).tolist()
    for kernel in _kernels(model):
        assert [kernel(r.values.get) for r in records] == index
    labels = [classify(model, r) for r in records]
    assert [model._first_match[i][0] for i in index] == labels
    assert labels == [_first_match_walk(model, r) for r in records]
    assert labels == [_table_walk(model, r) for r in records]


SMALL_CLASSES = ("A", "B", "C", "D")
CODES = ("G", "EX", "C")
GRID = (0.0, 1.0, 2.0)
literals = st.builds(
    Literal, st.sampled_from(CODES), st.sampled_from((">=", "<=")), st.sampled_from(GRID)
)


def pattern_lists_of(literals):
    # Empty literal lists give zero-literal patterns, empty pattern lists empty stages.
    return st.lists(
        st.lists(literals, max_size=3).map(lambda lits: Pattern(literals=tuple(lits))), max_size=3
    )


pattern_lists = pattern_lists_of(literals)
# NaN and ±inf: in-memory values load_dataset would reject.
values = st.sampled_from((-INF, -1.0, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0, INF, NAN))
records = st.lists(
    st.dictionaries(st.sampled_from(CODES), values).map(lambda v: rec("probe", v)), max_size=8
)


@st.composite
def hand_built_models(draw, patterns=pattern_lists, classes=SMALL_CLASSES):
    scale = RatingScale(classes, fallback_policy=draw(st.sampled_from(POLICIES)))
    stages = tuple(ClassDnf(k, tuple(draw(patterns))) for k in range(1, len(classes)))
    tail = draw(st.none() | patterns.map(lambda ps: ClassDnf(len(classes), tuple(ps))))
    return CascadeModel(scale=scale, year=2012, stages=stages, tail=tail)


MAX_FLOAT = 1.7976931348623157e308
#: Signed zeros, the smallest subnormal and normal, the largest finite and
#: the infinities.
EDGE_THRESHOLDS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, MAX_FLOAT, -MAX_FLOAT, INF, -INF)
# Under numpy 2 `repr(np.float64(1.5))` is "np.float64(1.5)", not a float literal.
edge_thresholds = st.builds(
    lambda t, wrap: np.float64(t) if wrap else t,
    st.sampled_from(EDGE_THRESHOLDS) | st.floats(allow_nan=False),
    st.booleans(),
)
edge_literals = st.builds(
    Literal, st.sampled_from(CODES), st.sampled_from((">=", "<=")), edge_thresholds
)

#: Codes and labels that are not identifiers, or are source text, or are
#: the compiled function's own names.
HOSTILE_CODES = (
    '"', "'''", "a\nb", "# x", "__import__('os').system('exit 1')", "x0", "K", "NAN", "", "a b", "ü",
)
HOSTILE_CLASSES = ("'A\"", "B\n#", "__import__('sys').exit(3)", "x0 = 1")
hostile_literals = st.builds(
    Literal, st.sampled_from(HOSTILE_CODES), st.sampled_from((">=", "<=")), st.sampled_from(GRID)
)
hostile_records = st.lists(
    st.dictionaries(st.sampled_from(HOSTILE_CODES), values).map(lambda v: rec("probe", v)),
    max_size=8,
)


def _with_policy(model, policy):
    return replace(model, scale=RatingScale(model.scale.classes, fallback_policy=policy))


def _threshold_probes(model):
    """Records on, next to, just off and missing each threshold the model
    uses, and records with every code NaN or infinite."""
    patterns = [p for s in model.stages for p in s.patterns]
    patterns += model.tail.patterns if model.tail else []
    cuts = sorted({(lit.indicator, float(lit.threshold)) for p in patterns for lit in p.literals})
    probes = [rec("none", {})]
    probes += [rec(f"all{v}", {code: v for code, _ in cuts}) for v in (NAN, INF, -INF)]
    for i, (code, t) in enumerate(cuts):
        below, above = math.nextafter(t, -INF), math.nextafter(t, INF)
        for j, v in enumerate((t - 0.5, below, t, above, t + 0.5, NAN)):
            values = {c: u for c, u in cuts[: i + 1]}  # neighbours on their thresholds
            values[code] = v
            probes.append(rec(f"p{i}_{j}", values))
    return probes


class TestFirstMatch:
    """`first_match` over a value matrix, the kernel `evaluate` runs, against
    `classify` and the reference walks."""

    @given(hand_built_models(), records)
    @settings(max_examples=300, deadline=None)
    def test_matches_classify_and_literal_walk(self, model, records):
        _assert_batch_agrees(model, records)

    @given(hand_built_models(), records, st.permutations(CODES), st.integers(0, len(CODES)))
    @settings(max_examples=300, deadline=None)
    def test_first_match_names_the_deciding_pattern(self, model, records, order, width):
        # The matrix holds some of the codes, in any order; the rest read as NaN.
        codes = order[:width]
        index = first_match(model, codes, value_matrix(records, codes))
        names = _entry_names(model)
        assert len(names) == len(model._first_match)
        owned = [(model.stages[n[1] - 1] if n[0] == "stage" else model.tail).patterns[n[-1]]
                 for n in names[:-1]]
        assert all(entry is p.literals for (_, entry), p in zip(model._first_match, owned))
        seen = [rec("probe", {c: v for c, v in r.values.items() if c in codes}) for r in records]
        assert [names[i] for i in index.tolist()] == [_first_match_name(model, r) for r in seen]

    @pytest.mark.parametrize("block_rows", [1, 7, 256, cascade_module._BLOCK_ROWS, 1 << 20])
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("kind, width", [("unequal", 3), ("no-patterns", 0), ("tree-2014", 4)])
    def test_first_match_table_shapes(self, monkeypatch, kind, width, policy, block_rows):
        # Entries of unequal widths, the fallback alone, and the widest
        # published tree, in blocks that the row count is no multiple of,
        # and in one block larger than all the rows.
        scale = RatingScale(SMALL_CLASSES, fallback_policy=policy)
        grid = [dict(zip(CODES, v)) for v in itertools.product((NAN, 0.0, 1.0, 2.0, 3.0), repeat=3)]
        if kind == "unequal":
            lit = Literal
            model = CascadeModel(scale, 2012, (
                ClassDnf(1, (Pattern((lit("G", ">=", 2.0), lit("EX", "<=", 1.0), lit("C", ">=", 1.0))),)),
                ClassDnf(2, (Pattern((lit("G", ">=", 1.0),)), Pattern((lit("EX", ">=", 2.0), lit("C", "<=", 0.0))))),
                ClassDnf(3, ()),
            ), tail=ClassDnf(4, (Pattern((lit("C", ">=", 3.0),)),)))
            probes = [rec(f"g{i}", {c: v for c, v in values.items() if v == v}) for i, values in enumerate(grid)]
        elif kind == "no-patterns":
            model = CascadeModel(scale, 2012, tuple(ClassDnf(k, ()) for k in (1, 2, 3)))
            probes = [rec(f"g{i}", values) for i, values in enumerate(grid)]
        else:
            tree = import_decision_tree(tree_text(2014), DEFAULT_SCALE, 2014, strict=False)
            model = _with_policy(tree, policy)
            probes = _threshold_probes(model)
        if len(probes) % 7 == 0:
            probes = probes[:-1]
        assert max(len(entry) for _, entry in model._first_match) == width
        codes = sorted({code for _, entry in model._first_match for code, _, _ in entry} | set(CODES))
        monkeypatch.setattr(cascade_module, "_BLOCK_ROWS", block_rows)
        index = first_match(model, codes, value_matrix(probes, codes))
        names = _entry_names(model)
        assert [names[i] for i in index.tolist()] == [_first_match_name(model, r) for r in probes]

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("make", [three_class_dataset, nested_16_dataset])
    def test_trained_models(self, make, policy):
        ds = make()
        model = train_cascade(replace(ds, scale=RatingScale(ds.scale.classes, policy)))
        _assert_batch_agrees(model, list(ds.records) + _threshold_probes(model))

    @pytest.mark.parametrize("year", TREE_YEARS)
    @pytest.mark.parametrize("policy", POLICIES)
    def test_published_tree_with_tail(self, policy, year):
        tree = import_decision_tree(tree_text(year), DEFAULT_SCALE, year, strict=False)
        model = _with_policy(tree, policy)
        # 2013 publishes "No case" for BM, so it has no last-class row.
        assert bool(model.tail and model.tail.patterns) == (year != 2013)
        _assert_batch_agrees(model, _threshold_probes(model))

    @pytest.mark.parametrize("policy", POLICIES)
    def test_model_without_patterns(self, policy):
        scale = RatingScale(SMALL_CLASSES, fallback_policy=policy)
        model = CascadeModel(scale, 2012, tuple(ClassDnf(k, ()) for k in (1, 2, 3)))
        expected = "D" if policy == FALLBACK_TO_LAST else None
        assert _first_match_labels(model, [rec("a", {"G": 1.0}), rec("b", {})]) == [expected] * 2

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("threshold", [INF, -INF])
    def test_infinite_thresholds(self, threshold, policy):
        ge, le, tail = (
            Pattern(literals=(Literal(code, direction, threshold),))
            for code, direction in (("G", ">="), ("G", "<="), ("EX", ">="))
        )
        model = CascadeModel(
            RatingScale(SMALL_CLASSES, fallback_policy=policy),
            2012,
            (ClassDnf(1, (ge,)), ClassDnf(2, (le,)), ClassDnf(3, ())),
            tail=ClassDnf(4, (tail,)),
        )
        probes = [rec(f"p{i}", {"G": v, "EX": v}) for i, v in enumerate((-INF, -1.0, INF, NAN))]
        probes += [rec("ex", {"EX": v}) for v in (-INF, INF)] + [rec("none", {})]
        _assert_batch_agrees(model, probes)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_replaced_scale_gets_its_own_table(self, tree_2012_model, policy):
        model = _with_policy(tree_2012_model, policy)
        probes = _threshold_probes(model)
        before = [classify(model, r) for r in probes]
        other = _with_policy(model, next(p for p in POLICIES if p != policy))
        _assert_batch_agrees(other, probes)
        assert [classify(other, r) for r in probes] != before
        assert [classify(model, r) for r in probes] == before

    def test_zero_literal_pattern_always_matches(self):
        always = Pattern(literals=())
        stage1 = ClassDnf(1, (Pattern(literals=(Literal("G", ">=", 5.0),)),))
        model = CascadeModel(
            RatingScale(SMALL_CLASSES, fallback_policy=UNCLASSIFIED_POLICY),
            2012,
            (stage1, ClassDnf(2, (always,)), ClassDnf(3, ())),
        )
        probes = [rec("a", {"G": 9.0}), rec("b", {"G": 1.0}), rec("c", {})]
        assert _first_match_labels(model, probes) == ["A", "B", "B"]
        assert [classify(model, r) for r in probes] == ["A", "B", "B"]

    def test_no_records(self, tree_2012_model):
        assert _first_match_labels(tree_2012_model, []) == []

    @pytest.mark.parametrize("rows", [1, 3, cascade_module._BLOCK_ROWS, 1 << 20])
    def test_block_boundaries(self, monkeypatch, tree_2012_model, rows):
        probes = _threshold_probes(tree_2012_model)[:40]
        expected = [classify(tree_2012_model, r) for r in probes]
        monkeypatch.setattr(cascade_module, "_BLOCK_ROWS", rows)
        assert _first_match_labels(tree_2012_model, probes) == expected

    @pytest.mark.parametrize("block_rows", [3, cascade_module._BLOCK_ROWS])
    def test_any_matrix_layout(self, monkeypatch, block_rows):
        # The same values as a C-order matrix, a Fortran-order one and a
        # strided view into a larger matrix give the same indices.
        tree = import_decision_tree(tree_text(2015), DEFAULT_SCALE, 2015, strict=False)
        model = _with_policy(tree, UNCLASSIFIED_POLICY)
        probes = _threshold_probes(model)
        codes = sorted({code for _, entry in model._first_match for code, _, _ in entry})
        c_order = value_matrix(probes, codes)
        wide = np.full((2 * len(probes), 3 * len(codes)), 7.0)
        wide[1::2, 2::3] = c_order
        layouts = [c_order, np.asfortranarray(c_order), wide[1::2, 2::3]]
        assert layouts[1].flags.f_contiguous and not layouts[2].flags.c_contiguous
        monkeypatch.setattr(cascade_module, "_BLOCK_ROWS", block_rows)
        indices = [first_match(model, codes, values).tolist() for values in layouts]
        names = _entry_names(model)
        assert [names[i] for i in indices[0]] == [_first_match_name(model, r) for r in probes]
        assert indices[1] == indices[0] and indices[2] == indices[0]

    @pytest.mark.parametrize("policy", POLICIES)
    def test_shared_and_repeated_checks(self, policy):
        # G >= 1 is shared by two entries and repeated inside the first;
        # G <= 2 is another literal on the same code, and C >= 2 and C <= 0
        # are on a code the matrix lacks. Each distinct literal is one row
        # of a block's truth matrix, compared once per block, by one compare
        # per (code, direction) the matrix has.
        lit = Literal
        ge1, le2, ge3 = lit("G", ">=", 1.0), lit("G", "<=", 2.0), lit("G", ">=", 3.0)
        model = CascadeModel(RatingScale(SMALL_CLASSES, fallback_policy=policy), 2012, (
            ClassDnf(1, (Pattern((ge1, lit("EX", "<=", 0.0), ge1)),)),
            ClassDnf(2, (Pattern((le2, lit("C", ">=", 2.0))), Pattern((ge1, le2, ge3)))),
            ClassDnf(3, (Pattern((le2, lit("C", "<=", 0.0))),)),
        ), tail=ClassDnf(4, (Pattern((ge1,)),)))
        distinct = {check for _, entry in model._first_match for check in entry}
        plan = model._first_match_plan
        row_literal = {}
        for code, compare, rows, t in plan.compares:
            direction = {np.greater_equal: ">=", np.less_equal: "<="}[compare]
            row_literal.update(zip(range(rows.start, rows.stop), (lit(code, direction, x) for x in t[:, 0])))
        assert sorted(row_literal) == list(range(len(distinct))) and plan.truth_rows == len(distinct) + 1
        assert set(row_literal.values()) == distinct
        assert len(plan.compares) == len({(c, d) for c, d, _ in distinct})
        all_true = plan.truth_rows - 1
        assert plan.slots.shape == (3, len(model._first_match))
        for (_, entry), slots in zip(model._first_match, plan.slots.T.tolist()):
            assert [row_literal[r] for r in slots[:len(entry)]] == list(entry)
            assert slots[len(entry):] == [all_true] * (3 - len(entry))
        compared = []

        def counted(code, compare):
            def run(x, t, out):
                compared.append((code, compare, out.base.shape, tuple(t[:, 0])))
                return compare(x, t, out=out)
            return run

        compares = [(c, counted(c, f), rows, t) for c, f, rows, t in plan.compares]
        model.__dict__["_first_match_plan"] = plan._replace(compares=tuple(compares))
        grid = itertools.product((NAN, 0.0, 1.0, 2.0, 3.0), (NAN, -1.0, 0.0, 1.0))
        probes = [rec(f"g{i}", {"G": g, "EX": ex}) for i, (g, ex) in enumerate(grid)]
        codes = ["EX", "G"]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cascade_module, "_BLOCK_ROWS", 7)
            index = first_match(model, codes, value_matrix(probes, codes))
        names = _entry_names(model)
        assert [names[i] for i in index.tolist()] == [_first_match_name(model, r) for r in probes]
        sizes = [min(7, len(probes) - start) for start in range(0, len(probes), 7)]
        groups = [(c, f, t) for c, f, _, t in plan.compares if c in codes]
        assert compared == [
            (c, f, (plan.truth_rows, size), tuple(t[:, 0])) for size in sizes for c, f, t in groups
        ]
        # Per block, the literals compared are the distinct ones on the
        # matrix's codes, each once: the four on G and EX, not C's two.
        per_block = [lit(c, ">=" if f is np.greater_equal else "<=", x) for c, f, t in groups for x in t[:, 0]]
        assert sorted(per_block) == sorted(x for x in distinct if x.indicator in codes)
        assert len(per_block) == 4

    @given(
        hand_built_models(pattern_lists_of(edge_literals)),
        st.sampled_from((0, 1, 7, 150)),
        st.sampled_from(("C", "F", "strided")),
        st.sampled_from((1, 3, cascade_module._BLOCK_ROWS)),
        st.permutations(CODES),
        st.integers(0, len(CODES)),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=150, deadline=None)
    def test_every_row_gets_the_compiled_index(self, model, n, layout, block_rows, order, width, rng):
        # Values on, next to and off each threshold, NaN, ±inf and missing,
        # over some of the codes in any order, in any layout and block size.
        cuts = [float(lit.threshold) for _, entry in model._first_match for lit in entry]
        pool = [v for t in cuts for v in (t, math.nextafter(t, -INF), math.nextafter(t, INF))]
        pool += [NAN, INF, -INF, 0.0, -1.0, 1.0]
        codes = order[:width]
        probes = [
            rec(f"p{i}", {c: rng.choice(pool) for c in codes if rng.random() < 0.9}) for i in range(n)
        ]
        values = value_matrix(probes, codes)
        if layout == "F":
            values = np.asfortranarray(values)
        elif layout == "strided":
            wide = np.full((2 * n, 3 * len(codes)), 7.0)
            wide[1::2, 2::3] = values
            values = wide[1::2, 2::3]
        for policy in POLICIES:
            other = _with_policy(model, policy)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(cascade_module, "_BLOCK_ROWS", block_rows)
                index = first_match(other, codes, values).tolist()
            for kernel in _kernels(other):
                assert index == [kernel(r.values.get) for r in probes]


class TestCompiledTable:
    """`classify` runs the model's first-match table compiled into one
    function (`CascadeModel._first_match_index`)."""

    @given(hand_built_models(pattern_lists_of(edge_literals)))
    @settings(max_examples=300, deadline=None)
    def test_thresholds_at_the_edges(self, model):
        _assert_batch_agrees(model, _threshold_probes(model))

    def test_every_edge_threshold(self):
        for t in EDGE_THRESHOLDS + tuple(map(np.float64, EDGE_THRESHOLDS)):
            ge, le = Literal("G", ">=", t), Literal("G", "<=", t)
            model = CascadeModel(
                RatingScale(SMALL_CLASSES, fallback_policy=UNCLASSIFIED_POLICY),
                2012,
                (
                    ClassDnf(1, (Pattern((ge, Literal("EX", "<=", t))),)),
                    ClassDnf(2, (Pattern((ge,)),)),
                    ClassDnf(3, (Pattern((le,)),)),
                ),
                tail=ClassDnf(4, (Pattern((Literal("EX", ">=", t),)),)),
            )
            _assert_batch_agrees(model, _threshold_probes(model))

    @given(hand_built_models(pattern_lists_of(hostile_literals), HOSTILE_CLASSES), hostile_records)
    @settings(max_examples=200, deadline=None)
    def test_hostile_codes_and_labels(self, model, records):
        _assert_batch_agrees(model, records + _threshold_probes(model))

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("kind", ["tree-2015", "hostile"])
    def test_codes_are_read_just_before_their_first_entry(self, monkeypatch, kind, policy):
        # A record decided by entry e reads the codes of entries 0..e, each
        # once, in first-use order; a fallback record reads every code.
        if kind == "tree-2015":
            tree = import_decision_tree(tree_text(2015), DEFAULT_SCALE, 2015, strict=False)
            model = _with_policy(tree, policy)
        else:
            lit = Literal
            a, b, c = HOSTILE_CODES[4], HOSTILE_CODES[5], HOSTILE_CODES[0]
            model = CascadeModel(RatingScale(HOSTILE_CLASSES, fallback_policy=policy), 2012, (
                ClassDnf(1, (Pattern((lit(a, ">=", 2.0), lit(b, "<=", 1.0), lit(a, "<=", 3.0))),)),
                ClassDnf(2, (Pattern((lit(b, ">=", 1.0),)), Pattern((lit(c, ">=", 2.0), lit(a, "<=", 0.0))))),
                ClassDnf(3, ()),
            ), tail=ClassDnf(4, (Pattern((lit("G", ">=", 1.0), lit(c, "<=", 0.0))),)))
        sources = []
        monkeypatch.setattr(
            cascade_module, "compile", lambda source, *a: sources.append(source) or compile(source, *a),
            raising=False,
        )
        table = model._first_match
        every = list(dict.fromkeys(code for _, checks in table for code, _, _ in checks))

        class LoggedValues(dict):
            def get(self, code, default=None):
                reads.append(code)
                return super().get(code, default)

        decided = set()
        for probe in _threshold_probes(model) + [rec("none", {})]:
            reads = []
            label = classify(model, rec(probe.country_id, LoggedValues(probe.values)))
            e = model._first_match_index(probe.values.get)
            assert label == table[e][0]
            assert reads == list(dict.fromkeys(code for _, checks in table[: e + 1] for code, _, _ in checks))
            decided.add(e)
            if e == len(table) - 1:
                assert reads == every
        assert len(decided) > 3 and len(table) - 1 in decided
        # Only fixed names, indices and float reprs reach the source.
        (source,) = sources
        bound = r"(-?\d[\d.e+-]*|NAN|INF|NINF)"
        compare = rf"x\d+ [<>]= {bound}"
        shapes = [
            r"def first_match_index\(get\):",
            r"    x\d+ = get\(K\[\d+\], NAN\)",
            rf"    if {compare}( and {compare})*:",
            r"        return \d+",
            r"    return \d+",
        ]
        for line in source.splitlines():
            assert any(re.fullmatch(shape, line) for shape in shapes), line

    def test_two_thousand_entries(self):
        rng = random.Random(0)

        def window():  # a narrow band on one code, so probes walk far down the table
            code, low = rng.choice(CODES), round(rng.uniform(-3.0, 3.0), 3)
            return (Literal(code, ">=", low), Literal(code, "<=", low + 0.01))

        stages = tuple(
            ClassDnf(k, tuple(Pattern(window() + window()[: rng.randint(0, 2)]) for _ in range(700)))
            for k in (1, 2, 3)
        )
        model = CascadeModel(RatingScale(SMALL_CLASSES), 2012, stages)
        assert len(model._first_match) > 2000
        probes = [
            rec(f"p{i}", {c: round(rng.uniform(-3.0, 3.0), 3) for c in CODES if rng.random() < 0.9})
            for i in range(200)
        ]
        _assert_batch_agrees(model, probes)

    @pytest.mark.parametrize("make, kernel", [
        (lambda: import_decision_tree(tree_text(2012), DEFAULT_SCALE, 2012, strict=False),
         "_compile_first_match"),
        (_noisy_model, "_rank_first_match"),
    ], ids=["tree-2012", "noisy"])
    @pytest.mark.parametrize(
        "duplicate",
        [lambda m: pickle.loads(pickle.dumps(m)), copy.copy, copy.deepcopy, replace],
        ids=["pickle", "copy", "deepcopy", "replace"],
    )
    def test_classified_model_still_copies(self, duplicate, make, kernel):
        # A copy builds its own kernel, of the same kind.
        model = make()
        probes = _threshold_probes(model)
        before = [classify(model, r) for r in probes]
        assert "_first_match_index" in vars(model)
        again = duplicate(model)
        assert again == model
        assert _built_kernel(again) == [kernel]
        assert [classify(again, r) for r in probes] == before

    @pytest.mark.parametrize(
        "duplicate",
        [lambda m: pickle.loads(pickle.dumps(m)), copy.copy, copy.deepcopy, replace],
        ids=["pickle", "copy", "deepcopy", "replace"],
    )
    def test_evaluated_model_still_copies(self, duplicate):
        model = import_decision_tree(tree_text(2013), DEFAULT_SCALE, 2013, strict=False)
        dataset = published_tree_dataset(2012, seed=0)
        before = evaluate(model, dataset)
        assert "_first_match_plan" in vars(model)
        again = duplicate(model)
        assert again == model
        assert evaluate(again, dataset) == before
        assert evaluate(model, dataset) == before

    def test_import_and_training_compile_nothing(self, monkeypatch):
        tables = []
        compile_table = cascade_module._compile_first_match
        monkeypatch.setattr(
            cascade_module, "_compile_first_match", lambda t: tables.append(t) or compile_table(t)
        )
        imported = import_decision_tree(tree_text(2012), DEFAULT_SCALE, 2012, strict=False)
        trained = train_cascade(three_class_dataset())
        assert tables == []
        assert "_first_match_index" not in vars(imported)
        assert "_first_match_index" not in vars(trained)
        probes = [rec("a", {"G": 99.0}), rec("b", {"G": 1.0})]
        assert [classify(trained, r) for r in probes] == ["AAA", "BM"]
        assert tables == [trained._first_match]

    @pytest.mark.parametrize("make", [three_class_dataset, PINNED_DATASETS["noisy-0"]],
                             ids=["compiled", "ranks"])
    def test_kernel_is_freed_without_the_collector(self, make):
        model = train_cascade(make())
        classify(model, rec("a", {"G": 1.0}))
        freed = weakref.ref(model._first_match_index)
        enabled = gc.isenabled()
        gc.disable()
        try:
            del model
            assert freed() is None
        finally:
            if enabled:
                gc.enable()


#: NaN, signed zeros, infinities and grid values, as floats or `np.float64`;
#: the float just above 1.0, which is the edge after 1.0, and the largest
#: finite float, whose next float is +inf.
rank_thresholds = st.builds(
    lambda t, wrap: np.float64(t) if wrap else t,
    st.sampled_from((NAN, 0.0, -0.0, 1.0, math.nextafter(1.0, INF), 2.0, sys.float_info.max, INF, -INF)),
    st.booleans(),
)
rank_literals = st.builds(
    Literal, st.sampled_from(CODES), st.sampled_from((">=", "<=")), rank_thresholds
)
#: Ints, bools and `np.float64` besides floats, NaN among them.
rank_values = st.sampled_from((NAN, -INF, INF, -1, 0, 1, 2, 3, True, False, 0.5, -0.0)) | st.builds(
    np.float64, st.sampled_from((NAN, -0.0, 0.0, 1.0, 1.5, 2.0, INF, -INF))
)
rank_records = st.lists(
    st.dictionaries(st.sampled_from(CODES), rank_values).map(lambda v: rec("probe", v)), max_size=8
)


class TestRankTable:
    """`_rank_first_match`: one rank lookup per tested code in place of one
    compare per literal."""

    @given(hand_built_models(pattern_lists_of(rank_literals)), rank_records)
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_the_compiled_table_and_the_walks(self, model, records):
        # NaN thresholds, empty boxes (G >= 2 and G <= 1 in one pattern),
        # zero-literal entries anywhere in the table, and ±0.0, ±inf and
        # np.float64 thresholds, on int, bool, np.float64 and NaN values.
        _assert_batch_agrees(model, records + _threshold_probes(model))

    @pytest.mark.parametrize("case", ["noisy-0", "noisy-1", "noisy-2"])
    def test_noisy_models_use_ranks(self, case):
        assert _built_kernel(train_cascade(PINNED_DATASETS[case]())) == ["_rank_first_match"]

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("year", TREE_YEARS)
    def test_published_trees_compile(self, year, policy):
        tree = import_decision_tree(tree_text(year), DEFAULT_SCALE, year, strict=False)
        assert _built_kernel(_with_policy(tree, policy)) == ["_compile_first_match"]

    @pytest.mark.parametrize("make", [
        *(PINNED_DATASETS[f"nested-{s}"] for s in range(3)),
        *(lambda y=y: published_tree_dataset(y, seed=0) for y in TREE_YEARS),
    ], ids=[f"nested-{s}" for s in range(3)] + [f"published-{y}" for y in TREE_YEARS])
    def test_nested_and_published_label_models_compile(self, make):
        assert _built_kernel(train_cascade(make())) == ["_compile_first_match"]

    def test_rank_model_compiles_nothing(self, monkeypatch):
        calls = []
        monkeypatch.setattr(cascade_module, "_compile_first_match", calls.append)
        monkeypatch.setattr(cascade_module, "compile", calls.append, raising=False)
        model = _noisy_model()
        probes = _threshold_probes(model)
        assert [classify(model, r) for r in probes] == [_table_walk(model, r) for r in probes]
        assert calls == []

    def test_reads_each_tested_code_once_per_record(self):
        model = _noisy_model()
        tested = list(dict.fromkeys(code for _, entry in model._first_match for code, _, _ in entry))
        assert len(tested) == 4

        class LoggedValues(dict):
            def get(self, code, default=None):
                reads.append(code)
                return super().get(code, default)

        for probe in _threshold_probes(model):
            reads = []
            classify(model, rec(probe.country_id, LoggedValues(probe.values)))
            assert reads == tested

    def test_bisects_each_present_value_once(self, monkeypatch):
        model = _noisy_model()
        tested = {code for _, entry in model._first_match for code, _, _ in entry}
        bisects = []
        for name in ("bisect_left", "bisect_right"):
            bisect = getattr(cascade_module, name, None)
            monkeypatch.setattr(cascade_module, name,
                                lambda a, x, bisect=bisect: bisects.append(x) or bisect(a, x), raising=False)
        classify(model, rec("build", {}))  # builds the kernel; only per-record bisects count
        for probe in _threshold_probes(model):
            bisects.clear()
            classify(model, probe)
            present = [x for code, x in probe.values.items() if code in tested and x == x]
            assert sorted(bisects) == sorted(present)
