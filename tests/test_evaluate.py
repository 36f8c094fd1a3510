import hashlib
import importlib
import random
from collections import Counter
from collections.abc import Sequence
from dataclasses import make_dataclass, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ladrating import (
    CascadeModel,
    ClassDnf,
    CountryRecord,
    DataFormatError,
    DEFAULT_SCALE,
    Dataset,
    Literal,
    Pattern,
    RatingScale,
    Split,
    classify,
    evaluate,
    import_decision_tree,
    repeat_offenders,
    report_from_pairs,
    serialize_dataset,
    split_dataset,
    train_cascade,
)
from ladrating.cli import EXIT_OK, main
from ladrating.data import FALLBACK_TO_LAST, UNCLASSIFIED_POLICY
from ladrating.evaluate import (
    MODEL_BETTER, MODEL_WORSE, EvaluationReport, Mismatch, MismatchRows, render_report,
)

from conftest import TREE_DIR, tree_text

# `ladrating.evaluate` is also the name of the function the package exports.
evaluate_module = importlib.import_module("ladrating.evaluate")

MISMATCH_2012_ROWS = [
    ("Ukraine", "BBBM", "B"),
    ("Suriname", "BBBM", "BBM"),
    ("Rwanda", "BP", "B"),
    ("Ghana", "BB", "BP"),
    ("Dominican Republic", "BB", "B"),
]


class TestReportFromPairs:
    def test_2012_mismatches(self):
        report = report_from_pairs(MISMATCH_2012_ROWS, DEFAULT_SCALE)
        got = {(m.country_id, m.model_rating, m.observed_rating) for m in report.mismatches}
        assert got == set(MISMATCH_2012_ROWS)

    def test_2012_bias_all_model_better(self):
        report = report_from_pairs(MISMATCH_2012_ROWS, DEFAULT_SCALE)
        assert report.model_better_share == 1.0
        assert report.model_worse_share == 0.0

    def test_perfect_agreement(self):
        rows = [("X", "AAA", "AAA"), ("Y", "BM", "BM")]
        report = report_from_pairs(rows, DEFAULT_SCALE)
        assert report.match_ratio_overall == 1.0
        assert report.mismatches == ()
        assert report.model_better_share is None

    def test_signed_distance_uses_scale_indices(self):
        report = report_from_pairs([("Ukraine", "BBBM", "B")], DEFAULT_SCALE)
        (m,) = report.mismatches
        assert m.signed_distance == 15 - 10
        assert m.direction == MODEL_BETTER

    def test_mismatches_sorted_by_distance(self):
        report = report_from_pairs(MISMATCH_2012_ROWS, DEFAULT_SCALE)
        distances = [abs(m.signed_distance) for m in report.mismatches]
        assert distances == sorted(distances, reverse=True)

    def test_ratio_identity(self):
        rows = MISMATCH_2012_ROWS + [("X", "AAA", "AAA")]
        report = report_from_pairs(rows, DEFAULT_SCALE)
        assert report.match_ratio_overall * report.total_labeled == pytest.approx(
            report.exact_matches
        )

    def test_empty_input_errors(self):
        with pytest.raises(DataFormatError):
            report_from_pairs([], DEFAULT_SCALE)

    @pytest.mark.parametrize("row", [("c", "AAA", "X"), ("c", "X", "AAA"), ("c", "X", "Y")])
    def test_unknown_label_on_mismatching_row_errors(self, row):
        observed_unknown = row[2] not in DEFAULT_SCALE
        name = row[2] if observed_unknown else row[1]
        with pytest.raises(DataFormatError, match=f"^unknown rating label '{name}'$"):
            report_from_pairs([("ok", "AAA", "AAA"), row], DEFAULT_SCALE)

    @pytest.mark.parametrize("row", [("c", "X", "X"), ("c", None, "X")])
    def test_unknown_label_on_matching_or_unclassified_row_is_kept(self, row):
        report = report_from_pairs([("ok", "AAA", "AAA"), row], DEFAULT_SCALE)
        assert report.total_labeled == 2
        assert report.exact_matches == (2 if row[1] == row[2] else 1)
        assert report.model_better_share is None

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(DEFAULT_SCALE.classes),
                st.sampled_from(DEFAULT_SCALE.classes),
            ),
            min_size=1,
            max_size=20,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_symmetry(self, labels):
        rows = [(f"c{i}", a, b) for i, (a, b) in enumerate(labels)]
        swapped = [(c, b, a) for c, a, b in rows]
        fwd = report_from_pairs(rows, DEFAULT_SCALE)
        rev = report_from_pairs(swapped, DEFAULT_SCALE)
        assert fwd.match_ratio_overall == rev.match_ratio_overall
        assert fwd.model_better_share == rev.model_worse_share
        by_country = {m.country_id: m for m in rev.mismatches}
        for m in fwd.mismatches:
            assert by_country[m.country_id].signed_distance == -m.signed_distance


class TestMismatch:
    FIELDS = ("Ukraine", "BBBM", "B", 5, MODEL_BETTER)

    @pytest.mark.parametrize("fields", [FIELDS, ("Chad", None, "B", None, None)])
    def test_repr_is_the_dataclass_form(self, fields):
        names = ("country_id", "model_rating", "observed_rating", "signed_distance", "direction")
        frozen = make_dataclass("Mismatch", names, frozen=True)
        assert repr(Mismatch(*fields)) == repr(frozen(*fields))

    def test_report_rows_are_mismatches(self):
        report = report_from_pairs(MISMATCH_2012_ROWS, DEFAULT_SCALE)
        assert all(type(m) is Mismatch for m in report.mismatches)
        (m,) = report_from_pairs([MISMATCH_2012_ROWS[0]], DEFAULT_SCALE).mismatches
        assert m == Mismatch(*self.FIELDS)
        assert repr(m) == (
            "Mismatch(country_id='Ukraine', model_rating='BBBM', observed_rating='B', "
            "signed_distance=5, direction='model-better')"
        )

    def test_fields_read_by_name_and_are_frozen(self):
        m = Mismatch(*self.FIELDS)
        assert (m.country_id, m.model_rating, m.observed_rating) == self.FIELDS[:3]
        assert (m.signed_distance, m.direction) == self.FIELDS[3:]
        with pytest.raises(AttributeError):
            m.country_id = "Ghana"
        assert m.country_id == "Ukraine"

    def test_equality_and_hash(self):
        m, same = Mismatch(*self.FIELDS), Mismatch(*self.FIELDS)
        assert m == same and hash(m) == hash(same)
        assert len({m, same}) == 1
        assert m != Mismatch("Ukraine", "BBBM", "B", 5, MODEL_WORSE)
        # A tuple subclass: it unpacks and equals the plain tuple of its fields.
        country, *_, direction = m
        assert (country, direction) == ("Ukraine", MODEL_BETTER)
        assert m == self.FIELDS and hash(m) == hash(self.FIELDS)


def _unbuilt(rows):
    return rows._rows is None


class TestMismatchRows:
    """`EvaluationReport.mismatches` reads as the tuple of its rows."""

    def _pair(self):
        # The same rows twice: one sequence left unbuilt, one tuple.
        rows = report_from_pairs(MISMATCH_2012_ROWS, DEFAULT_SCALE).mismatches
        return rows, tuple(report_from_pairs(MISMATCH_2012_ROWS, DEFAULT_SCALE).mismatches)

    def test_is_a_sequence_not_a_tuple(self):
        rows, expected = self._pair()
        assert isinstance(rows, Sequence) and not isinstance(rows, tuple)
        assert len(expected) == 5 and all(type(m) is Mismatch for m in expected)

    def test_indexing(self):
        rows, expected = self._pair()
        for i in range(-len(expected), len(expected)):
            assert rows[i] == expected[i]
        for i in (len(expected), -len(expected) - 1):
            with pytest.raises(IndexError):
                rows[i]

    @pytest.mark.parametrize("part", [slice(1, 3), slice(None, None, -1), slice(-2, None),
                                      slice(10, None), slice(None, None, 2)])
    def test_slices_are_the_tuples_slices(self, part):
        rows, expected = self._pair()
        assert rows[part] == expected[part]
        assert type(rows[part]) is tuple

    def test_iteration_len_and_bool(self):
        rows, expected = self._pair()
        assert len(rows) == len(expected) and bool(rows)
        assert _unbuilt(rows)
        assert list(rows) == list(expected)
        assert list(reversed(rows)) == list(reversed(expected))
        assert rows.country_ids == tuple(m.country_id for m in expected)
        empty = report_from_pairs([("X", "AAA", "AAA")], DEFAULT_SCALE).mismatches
        assert len(empty) == 0 and not empty and list(empty) == []

    def test_equality_both_ways(self):
        rows, expected = self._pair()
        other = report_from_pairs(MISMATCH_2012_ROWS, DEFAULT_SCALE).mismatches
        assert rows == expected and expected == rows
        assert rows == other and other == rows
        assert rows == list(expected) and list(expected) == rows
        assert not rows != expected and not expected != rows
        for different in (expected[:-1], expected[::-1], (), expected + expected[:1]):
            assert rows != different and different != rows
            assert not rows == different and not different == rows
        assert rows != 5 and rows != "Ukraine"
        empty = report_from_pairs([("X", "AAA", "AAA")], DEFAULT_SCALE).mismatches
        assert empty == () and () == empty and empty != rows
        for text in ("", b""):
            assert empty != text and text != empty and not empty == text

    def test_hash_and_repr_are_the_tuples(self):
        rows, expected = self._pair()
        assert hash(rows) == hash(expected)
        assert repr(rows) == repr(expected)
        assert len({rows, expected}) == 1

    def test_counts_leave_rows_unbuilt(self):
        reports = [report_from_pairs(MISMATCH_2012_ROWS, DEFAULT_SCALE) for _ in range(2)]
        for report in reports:
            assert report.exact_matches == 0
            assert report.unclassified_count == 0 and report.model_better_share == 1.0
        assert repeat_offenders(reports).twice == tuple(sorted(c for c, _, _ in MISMATCH_2012_ROWS))
        assert all(_unbuilt(report.mismatches) for report in reports)
        reports[0].mismatches[0]
        assert not _unbuilt(reports[0].mismatches) and _unbuilt(reports[1].mismatches)
        # Once built, the rows are held once: the columns are dropped.
        assert reports[0].mismatches._columns is None

    def test_hand_built_rows_are_converted(self):
        rows = (Mismatch("X", "AAA", "AA", 1, MODEL_BETTER), Mismatch("Y", None, "B", None, None),
                Mismatch("X", "BM", "AA", -14, MODEL_WORSE))
        report = EvaluationReport(0.25, None, None, rows, 0.5, 0.5, 1, 4)
        assert isinstance(report.mismatches, MismatchRows)
        assert report.mismatches == rows and report.mismatches.country_ids == ("X", "Y", "X")
        assert report.exact_matches == 1
        assert replace(report, total_labeled=5) == EvaluationReport(0.25, None, None, rows, 0.5, 0.5, 1, 5)


class TestEvaluateModel:
    def _dataset(self):
        records = (
            CountryRecord("a", 2012, {"G": 100.0}, "AAA"),
            CountryRecord("b", 2012, {"G": 90.0}, "AAA"),
            CountryRecord("c", 2012, {"G": 10.0}, "BM"),
            CountryRecord("d", 2012, {"G": 12.0}, "BM"),
        )
        return Dataset(records)

    def test_perfect_model(self):
        ds = self._dataset()
        model = train_cascade(ds)
        report = evaluate(model, ds)
        assert report.match_ratio_overall == 1.0
        assert report.mismatches == ()
        assert report.unclassified_count == 0

    def test_split_ratios_present_with_split(self):
        from ladrating import split_dataset

        ds = split_dataset(self._dataset(), 0.5, seed=0)
        model = train_cascade(ds)
        report = evaluate(model, ds)
        assert report.match_ratio_train == 1.0
        assert report.match_ratio_test == 1.0

    def test_no_labeled_records_errors(self):
        model = train_cascade(self._dataset())
        unlabeled = Dataset((CountryRecord("x", 2012, {"G": 1.0}),))
        with pytest.raises(DataFormatError):
            evaluate(model, unlabeled)

    def test_pure_function(self):
        ds = self._dataset()
        model = train_cascade(ds)
        assert evaluate(model, ds) == evaluate(model, ds)


def _oracle_report(model, dataset):
    """The report built row by row: per-record `classify`, `RatingScale.index`
    per mismatch row and a Python sort."""
    scale = dataset.scale
    labeled = dataset.labeled_records
    rows = [(r.key, r.country_id, classify(model, r), r.observed_rating) for r in labeled]
    mismatches = []
    for _, country, rating, observed in rows:
        if rating == observed:
            continue
        if rating is None:
            mismatches.append(Mismatch(country, None, observed, None, None))
            continue
        dist = scale.index(observed) - scale.index(rating)
        direction = MODEL_BETTER if dist > 0 else MODEL_WORSE
        mismatches.append(Mismatch(country, rating, observed, dist, direction))
    mismatches.sort(
        key=lambda m: (-(abs(m.signed_distance) if m.signed_distance is not None else -1),
                       m.country_id)
    )

    def ratio(keys):
        if dataset.split is None:
            return None
        picked = [rating == observed for key, _, rating, observed in rows if key in keys]
        return sum(picked) / len(picked) if picked else None

    directed = [m for m in mismatches if m.direction is not None]
    better = sum(1 for m in directed if m.direction == MODEL_BETTER)
    return EvaluationReport(
        match_ratio_overall=(len(rows) - len(mismatches)) / len(rows),
        match_ratio_train=ratio(dataset.split.train_keys if dataset.split else ()),
        match_ratio_test=ratio(dataset.split.test_keys if dataset.split else ()),
        mismatches=tuple(mismatches),
        model_better_share=better / len(directed) if directed else None,
        model_worse_share=(len(directed) - better) / len(directed) if directed else None,
        unclassified_count=sum(1 for m in mismatches if m.model_rating is None),
        total_labeled=len(rows),
    )


SMALL_CLASSES = ("A", "B", "C", "D")
# The records carry G and EX only; checks on IM read a code the dataset lacks.
literals = st.builds(
    Literal, st.sampled_from(("G", "EX", "IM")), st.sampled_from((">=", "<=")),
    st.sampled_from((0.0, 1.0, 2.0)),
)
pattern_lists = st.lists(
    st.lists(literals, min_size=1, max_size=2).map(lambda l: Pattern(literals=tuple(l))),
    max_size=2,
)


@st.composite
def models_and_datasets(draw):
    scale = RatingScale(
        SMALL_CLASSES, draw(st.sampled_from((FALLBACK_TO_LAST, UNCLASSIFIED_POLICY)))
    )
    stages = tuple(ClassDnf(k, tuple(draw(pattern_lists))) for k in (1, 2, 3))
    tail = draw(st.none() | pattern_lists.map(lambda ps: ClassDnf(4, tuple(ps))))
    model = CascadeModel(scale=scale, year=2012, stages=stages, tail=tail)
    value = st.sampled_from((0.0, 0.5, 1.0, 1.5, 2.0, 3.0))
    # Few countries over several years: country ids repeat, so rows tie on
    # distance and country and must keep their record order.
    keys = draw(st.lists(
        st.tuples(st.sampled_from("pqrs"), st.integers(2010, 2015)),
        min_size=1, max_size=25, unique=True,
    ))
    records = tuple(
        CountryRecord(country, year, draw(st.dictionaries(st.sampled_from(("G", "EX")), value)),
                      draw(st.none() | st.sampled_from(SMALL_CLASSES)))
        for country, year in keys
    )
    split = None
    if draw(st.booleans()):
        train = draw(st.sets(st.sampled_from(keys)))
        split = Split(frozenset(train), frozenset(keys) - train)
    return model, Dataset(records, scale, split)


class TestAgainstOracle:
    @given(models_and_datasets())
    @settings(max_examples=300, deadline=None)
    def test_evaluate_matches_row_by_row_report(self, case):
        model, dataset = case
        if not dataset.labeled_records:
            with pytest.raises(DataFormatError):
                evaluate(model, dataset)
            return
        expected = _oracle_report(model, dataset)
        assert evaluate(model, dataset) == expected
        pairs = [(r.country_id, classify(model, r), r.observed_rating)
                 for r in dataset.labeled_records]
        assert report_from_pairs(pairs, dataset.scale) == _oracle_report(
            model, replace(dataset, split=None))

    def test_value_matrix_is_built_once_per_dataset(self, monkeypatch, tree_2012_model):
        ds = Dataset((
            CountryRecord("a", 2012, {"G": 60000.0, "U": 80.0}, "AAA"),
            CountryRecord("b", 2012, {"G": 100.0}, "BM"),
        ))
        seen = []

        def spy(model, codes, values):
            seen.append(values)
            return first_match(model, codes, values)

        first_match = evaluate_module.first_match
        monkeypatch.setattr(evaluate_module, "first_match", spy)
        other = train_cascade(ds)
        evaluate(tree_2012_model, ds)
        evaluate(other, ds)
        arrays = ds.labeled_arrays
        assert seen[0] is seen[1] is arrays.values
        assert not arrays.values.flags.writeable
        split = replace(ds, split=Split(frozenset({("a", 2012)}), frozenset({("b", 2012)})))
        assert split.labeled_arrays is not arrays
        assert split.labeled_arrays.train.tolist() == [True, False]
        assert evaluate(other, split).match_ratio_test == 1.0
        assert seen[2] is split.labeled_arrays.values

    def test_value_matrix_is_column_major(self):
        ds = Dataset(tuple(
            CountryRecord(f"c{i}", 2012, {"G": float(i), "U": 10.0 + i} if i else {"U": 10.0}, "AAA")
            for i in range(3)
        ))
        arrays = ds.labeled_arrays
        assert arrays.values.flags.f_contiguous and not arrays.values.flags.writeable
        assert arrays.codes == ("G", "U")
        assert str(arrays.values.tolist()) == "[[nan, 10.0], [1.0, 11.0], [2.0, 12.0]]"


class TestRepeatOffenders:
    def test_published_mismatches_reproduce_summary(self, mismatch_rows):
        reports = []
        for year in (2012, 2013, 2014, 2015):
            rows = [
                (country, model, observed)
                for y, _, country, model, observed in mismatch_rows
                if y == year
            ]
            reports.append(report_from_pairs(rows, DEFAULT_SCALE))
        summary = repeat_offenders(reports)
        assert summary.more_than_twice == ("Iceland",)
        assert set(summary.twice) == {
            "Ukraine",
            "Rwanda",
            "Portugal",
            "Namibia",
            "Cyprus",
            "Congo Dem Republic",
        }

    def test_single_mismatches_everywhere(self):
        a = report_from_pairs([("X", "AAA", "AA")], DEFAULT_SCALE)
        b = report_from_pairs([("Y", "AAA", "AA")], DEFAULT_SCALE)
        summary = repeat_offenders([a, b])
        assert summary.counts == {}

    def test_two_of_four_years(self):
        hit = report_from_pairs([("X", "AAA", "AA")], DEFAULT_SCALE)
        miss = report_from_pairs([("Z", "AAA", "AAA")], DEFAULT_SCALE)
        summary = repeat_offenders([hit, miss, hit, miss])
        assert summary.twice == ("X",)
        assert summary.more_than_twice == ()

    @given(st.lists(models_and_datasets().filter(lambda case: case[1].labeled_records),
                    min_size=2, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_matches_a_count_over_the_rows(self, cases):
        reports = [evaluate(model, dataset) for model, dataset in cases]
        summary = repeat_offenders(reports)
        assert all(_unbuilt(report.mismatches) for report in reports)
        counts = Counter(m.country_id for report in reports for m in report.mismatches)
        repeated = {c: n for c, n in counts.items() if n >= 2}
        assert summary.counts == repeated
        assert summary.twice == tuple(sorted(c for c, n in repeated.items() if n == 2))
        assert summary.more_than_twice == tuple(sorted(c for c, n in repeated.items() if n > 2))

    def test_hand_built_report(self):
        rows = (Mismatch("X", "AAA", "AA", 1, MODEL_BETTER), Mismatch("Y", None, "B", None, None))
        hand = EvaluationReport(0.0, None, None, rows, 1.0, 0.0, 1, 2)
        summary = repeat_offenders([hand, report_from_pairs([("X", "AAA", "AA")], DEFAULT_SCALE),
                                    hand])
        assert summary.counts == {"X": 3, "Y": 2}
        assert summary.twice == ("Y",) and summary.more_than_twice == ("X",)

    def test_requires_two_reports(self):
        r = report_from_pairs([("X", "AAA", "AA")], DEFAULT_SCALE)
        with pytest.raises(DataFormatError):
            repeat_offenders([r])


#: sha256 of `render_report` and of the CLI's `evaluate --out` JSON, per
#: published tree and fallback policy, on `_pinned_dataset` split 0.6 / seed 4.
PINNED_REPORTS = {
    (2013, FALLBACK_TO_LAST): (
        "3694697806b55b2d5950d98ca74568282d2c4c2d1befbb526f37281bbfe2e5e3",
        "cc7d0bab0f707675a01e52a591d62635da10bf60bd663947c2b104e5d6fe5c6e",
    ),
    (2015, UNCLASSIFIED_POLICY): (
        "36da8834a4ae429a940013f63de0a31c6e809c4be29c70661eb9386c36de3dd8",
        "2594e039f53bbce0a7b4b0762153b45a596714fe78fbba9f60fc8571e356befb",
    ),
}


def _pinned_dataset():
    """300 rows over 60 countries and six years, values spread over the 2013
    and 2015 trees' threshold ranges (10% missing), 5% unrated: distances
    tie, country ids repeat and some records match no stage."""
    rng = random.Random(17)
    ranges = {}
    for year in (2013, 2015):
        model = import_decision_tree(tree_text(year), DEFAULT_SCALE, year, strict=False)
        for stage in model.stages:
            for pattern in stage.patterns:
                for lit in pattern.literals:
                    lo, hi = ranges.get(lit.indicator, (lit.threshold, lit.threshold))
                    ranges[lit.indicator] = (min(lo, lit.threshold), max(hi, lit.threshold))
    keys = rng.sample([(f"country{c:02d}", y) for c in range(60) for y in range(2010, 2016)], 300)
    records = []
    for country, year in keys:
        values = {}
        for code, (lo, hi) in sorted(ranges.items()):
            pad = 0.25 * ((hi - lo) or abs(lo) or 1.0)
            if rng.random() >= 0.1:
                values[code] = round(rng.uniform(lo - pad, hi + pad), 4)
        rating = rng.choice(DEFAULT_SCALE.classes) if rng.random() >= 0.05 else None
        records.append(CountryRecord(country, year, values, rating))
    return Dataset(tuple(records))


@pytest.mark.parametrize("year, policy", sorted(PINNED_REPORTS))
def test_evaluate_artifacts_pinned(year, policy, tmp_path):
    dataset = _pinned_dataset()
    model = import_decision_tree(
        tree_text(year), RatingScale(DEFAULT_SCALE.classes, policy), year, strict=False)
    text = render_report(evaluate(model, split_dataset(dataset, 0.6, seed=4)))
    data = tmp_path / "data.csv"
    data.write_text(serialize_dataset(dataset))
    out = tmp_path / "eval"
    assert main([
        "evaluate", "--model", str(TREE_DIR / f"tree_{year}.txt"), "--lenient",
        "--data", str(data), "--split-fraction", "0.6", "--seed", "4",
        "--fallback", policy, "--out", str(out),
    ]) == EXIT_OK
    assert out.with_suffix(".report.txt").read_text() == text
    digests = tuple(hashlib.sha256(b).hexdigest() for b in (
        text.encode(), out.with_suffix(".report.json").read_bytes()))
    assert digests == PINNED_REPORTS[year, policy]
