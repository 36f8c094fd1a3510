import hashlib
import itertools
import math
from dataclasses import replace

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
    classify_records,
    export_decision_tree,
    first_match,
    import_decision_tree,
    key_variables,
    split_dataset,
    train_cascade,
)
from ladrating import cascade as cascade_module
from ladrating.data import FALLBACK_TO_LAST, UNCLASSIFIED_POLICY, value_matrix
from ladrating.synthetic import clustered_dataset, nested_dataset

from conftest import tree_text

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

    @pytest.mark.parametrize("value", [NAN, INF, -INF])
    def test_non_finite_value_is_a_format_error(self, value):
        records = list(three_class_dataset().records)
        records[2] = rec("b1", {"G": 50.0, "EX": value}, "A")
        with pytest.raises(DataFormatError, match=r"^b1:2012 \(EX\): non-finite value"):
            train_cascade(Dataset(records=tuple(records)))


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
        assert classify_records(model, [unrated]) == [classify(model, unrated)]

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


def _entry_names(model):
    """The name of each entry of the model's first-match table, in its order."""
    names = [("stage", s.rating_index, j) for s in model.stages for j in range(len(s.patterns))]
    if model.scale.fallback_policy == UNCLASSIFIED_POLICY and model.tail is not None:
        names += [("tail", j) for j in range(len(model.tail.patterns))]
    return names + [("fallback",)]


def _assert_batch_agrees(model, records):
    batch = classify_records(model, records)
    assert batch == [classify(model, r) for r in records]
    assert batch == [_first_match_walk(model, r) for r in records]


SMALL_CLASSES = ("A", "B", "C", "D")
CODES = ("G", "EX", "C")
GRID = (0.0, 1.0, 2.0)
literals = st.builds(
    Literal, st.sampled_from(CODES), st.sampled_from((">=", "<=")), st.sampled_from(GRID)
)
# Empty literal lists give zero-literal patterns, empty pattern lists empty stages.
pattern_lists = st.lists(
    st.lists(literals, max_size=3).map(lambda lits: Pattern(literals=tuple(lits))), max_size=3
)
# NaN and ±inf: in-memory values load_dataset would reject.
values = st.sampled_from((-INF, -1.0, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0, INF, NAN))
records = st.lists(
    st.dictionaries(st.sampled_from(CODES), values).map(lambda v: rec("probe", v)), max_size=8
)


@st.composite
def hand_built_models(draw):
    scale = RatingScale(SMALL_CLASSES, fallback_policy=draw(st.sampled_from(POLICIES)))
    stages = tuple(
        ClassDnf(k, tuple(draw(pattern_lists))) for k in range(1, len(SMALL_CLASSES))
    )
    tail = draw(st.none() | pattern_lists.map(lambda ps: ClassDnf(len(SMALL_CLASSES), tuple(ps))))
    return CascadeModel(scale=scale, year=2012, stages=stages, tail=tail)


def _with_policy(model, policy):
    return replace(model, scale=RatingScale(model.scale.classes, fallback_policy=policy))


def _threshold_probes(model):
    """Records on, just off and missing each threshold the model uses."""
    patterns = [p for s in model.stages for p in s.patterns]
    patterns += model.tail.patterns if model.tail else []
    cuts = sorted({(lit.indicator, lit.threshold) for p in patterns for lit in p.literals})
    probes = [rec("none", {}), rec("nan", {code: NAN for code, _ in cuts})]
    for i, (code, t) in enumerate(cuts):
        for j, v in enumerate((t - 0.5, t, t + 0.5, NAN)):
            values = {c: u for c, u in cuts[: i + 1]}  # neighbours on their thresholds
            values[code] = v
            probes.append(rec(f"p{i}_{j}", values))
    return probes


class TestClassifyRecords:
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
        seen = [rec("probe", {c: v for c, v in r.values.items() if c in codes}) for r in records]
        assert [names[i] for i in index.tolist()] == [_first_match_name(model, r) for r in seen]

    @pytest.mark.parametrize("block_rows", [1, 7, 256])
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("kind, width", [("unequal", 3), ("no-patterns", 0), ("tree-2014", 4)])
    def test_first_match_table_shapes(self, monkeypatch, kind, width, policy, block_rows):
        # Entries of unequal widths, the fallback alone, and the widest
        # published tree, in blocks that the row count is no multiple of.
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

    @pytest.mark.parametrize("policy", POLICIES)
    def test_published_tree_with_tail(self, tree_2012_model, policy):
        model = _with_policy(tree_2012_model, policy)
        assert model.tail is not None and model.tail.patterns
        _assert_batch_agrees(model, _threshold_probes(model))

    @pytest.mark.parametrize("policy", POLICIES)
    def test_model_without_patterns(self, policy):
        scale = RatingScale(SMALL_CLASSES, fallback_policy=policy)
        model = CascadeModel(scale, 2012, tuple(ClassDnf(k, ()) for k in (1, 2, 3)))
        expected = "D" if policy == FALLBACK_TO_LAST else None
        assert classify_records(model, [rec("a", {"G": 1.0}), rec("b", {})]) == [expected] * 2

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
        assert classify_records(model, probes) == ["A", "B", "B"]

    def test_no_records(self, tree_2012_model):
        assert classify_records(tree_2012_model, []) == []

    @pytest.mark.parametrize("rows", [1, 3])
    def test_block_boundaries(self, monkeypatch, tree_2012_model, rows):
        probes = _threshold_probes(tree_2012_model)[:40]
        expected = [classify(tree_2012_model, r) for r in probes]
        monkeypatch.setattr(cascade_module, "_BLOCK_ROWS", rows)
        assert classify_records(tree_2012_model, probes) == expected
