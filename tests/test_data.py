import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ladrating import (
    CascadeModel,
    ClassDnf,
    CountryRecord,
    DataFormatError,
    Dataset,
    DecisionTreeParseError,
    DEFAULT_SCALE,
    Indicator,
    Literal,
    Pattern,
    RatingScale,
    export_decision_tree,
    import_decision_tree,
    load_dataset,
    make_registry,
    serialize_dataset,
    split_dataset,
)
from ladrating.data import format_value, sort_ranks, value_matrix


class TestLoadDataset:
    def test_basic_row(self):
        ds = load_dataset("country,year,rating,G,EX\nAzerbaijan,2012,BBBM,7189,40\n")
        (rec,) = ds.records
        assert rec.country_id == "Azerbaijan"
        assert rec.values["G"] == 7189
        assert rec.values["EX"] == 40
        assert rec.observed_rating == "BBBM"

    def test_header_only(self):
        ds = load_dataset("country,year,rating,G,EX\n")
        assert ds.records == ()

    def test_blank_cell_is_missing(self):
        ds = load_dataset("country,year,rating,G,EX\nX,2012,BBBM,,40\n")
        (rec,) = ds.records
        assert "G" not in rec.values
        assert rec.values.get("G") is None

    def test_rows_of_whitespace_cells_are_skipped(self):
        text = (
            "country,year,rating,G\n"
            " , , , \n"
            "X,2012,AAA,1\n"
            "\t,\t\n"
            "　,　,　\n"
            " ,\t,　, \n"
        )
        ds = load_dataset(text)
        assert ds.records == (CountryRecord("X", 2012, {"G": 1.0}, "AAA"),)

    def test_duplicate_key_rejected(self):
        text = "country,year,rating,G\nX,2012,AAA,1\nX,2012,AAA,2\n"
        with pytest.raises(DataFormatError, match="duplicate.*X.*2012"):
            load_dataset(text)

    def test_unknown_rating_rejected(self):
        with pytest.raises(DataFormatError, match="ZZZ"):
            load_dataset("country,year,rating,G\nX,2012,ZZZ,1\n")

    def test_repeated_column_names_both_positions(self):
        with pytest.raises(DataFormatError, match=r"repeats column 'G' at positions 4 and 5"):
            load_dataset("country,year,rating,G,G\nX,2012,AAA,1,2\n")

    def test_byte_order_mark_before_header_is_dropped(self):
        ds = load_dataset("\ufeffcountry,year,rating,G\nX,2012,AAA,1\n")
        assert ds.records == (CountryRecord("X", 2012, {"G": 1.0}, "AAA"),)

    def test_unknown_column_warned_and_ignored(self):
        warnings = []
        ds = load_dataset(
            "country,year,rating,G,weather\nX,2012,AAA,1,sunny\n", warnings=warnings
        )
        assert "weather" not in ds.records[0].values
        assert any("weather" in w for w in warnings)

    def test_round_trip(self):
        text = (
            "country,year,rating,G,EX\n"
            "Azerbaijan,2012,BBBM,7189,40\n"
            "Guatemala,2012,BBP,3166,\n"
            "Nowhere,2013,,8000,55.5\n"
        )
        ds = load_dataset(text)
        assert load_dataset(serialize_dataset(ds)) == ds


@pytest.mark.parametrize("v", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
def test_non_finite_values_print_as_repr_and_read_back_as_errors(v):
    # In-memory values and thresholds that load_dataset and import reject.
    assert format_value(v) == repr(v)
    ds = Dataset((CountryRecord("X", 2012, {"G": v}, "A"),), RatingScale(("A", "B")))
    assert len(ds.fingerprint) == 16
    with pytest.raises(DataFormatError, match="non-finite value"):
        load_dataset(serialize_dataset(ds), scale=ds.scale)
    model = CascadeModel(ds.scale, 2012, (ClassDnf(1, (Pattern((Literal("G", ">=", v),)),)),))
    tree = export_decision_tree(model)
    assert f"G >= {v!r}" in tree
    with pytest.raises(DecisionTreeParseError, match="malformed number"):
        import_decision_tree(tree, ds.scale, 2012)


def test_custom_registry_rejects_duplicate_codes():
    with pytest.raises(DataFormatError, match="duplicate"):
        make_registry([Indicator("Q", "a", "u"), Indicator("Q", "b", "u")])


def _labeled_dataset(n_per_class):
    records = []
    i = 0
    for label, count in n_per_class.items():
        for _ in range(count):
            records.append(CountryRecord(f"c{i}", 2012, {"G": float(i)}, label))
            i += 1
    return Dataset(tuple(records))


class TestSplit:
    def test_two_records_one_class(self):
        ds = _labeled_dataset({"AAA": 2})
        out = split_dataset(ds, 0.5, seed=1)
        assert len(out.train_records) == 1
        assert len(out.test_records) == 1

    def test_every_class_reaches_training(self):
        ds = _labeled_dataset({c: 1 for c in DEFAULT_SCALE.classes})
        out = split_dataset(ds, 0.5, seed=3)
        assert {r.observed_rating for r in out.train_records} == set(DEFAULT_SCALE.classes)

    def test_fraction_within_one_record_per_class(self):
        counts = dict(zip(DEFAULT_SCALE.classes, [12, 3, 9, 7, 5, 11, 4, 8, 6, 10, 5, 7, 9, 8, 6, 6]))
        ds = _labeled_dataset(counts)
        assert sum(counts.values()) == 116
        out = split_dataset(ds, 0.58, seed=7)
        for label, n in counts.items():
            got = sum(1 for r in out.train_records if r.observed_rating == label)
            assert abs(got - 0.58 * n) <= 1.0

    def test_bad_fraction(self):
        ds = _labeled_dataset({"AAA": 2})
        with pytest.raises(DataFormatError):
            split_dataset(ds, 1.0, seed=1)

    @given(seed=st.integers(0, 10_000), fraction=st.floats(0.1, 0.9))
    @settings(max_examples=40, deadline=None)
    def test_partition_and_determinism(self, seed, fraction):
        ds = _labeled_dataset({"AAA": 5, "A": 3, "BM": 4})
        a = split_dataset(ds, fraction, seed)
        b = split_dataset(ds, fraction, seed)
        assert a.split == b.split
        train = {r.key for r in a.train_records}
        test = {r.key for r in a.test_records}
        assert train | test == {r.key for r in ds.labeled_records}
        assert train & test == set()


VALUE_CODES = ("G", "EX", "U")
#: Cell values of every type a record's `values` may carry: floats (NaN and
#: signed zeros among them), ints, bools and numpy scalars.
cell_values = (
    st.floats(allow_nan=True, allow_infinity=True)
    | st.integers(-(2**53), 2**53)
    | st.booleans()
    | st.builds(np.float64, st.floats(allow_nan=True))
    | st.builds(np.float32, st.floats(width=32))
    | st.builds(np.int64, st.integers(-(2**53), 2**53))
    | st.builds(np.bool_, st.booleans())
)


class TestValueMatrix:
    @given(
        st.lists(st.dictionaries(st.sampled_from(VALUE_CODES), cell_values), max_size=6),
        st.lists(st.sampled_from(VALUE_CODES + ("IM",)), unique=True, max_size=4),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_the_nested_list_form(self, dicts, codes):
        records = [CountryRecord(f"c{i}", 2012, d) for i, d in enumerate(dicts)]
        expected = np.array(
            [[r.values.get(code, math.nan) for code in codes] for r in records], dtype=float
        ).reshape(len(records), len(codes))
        got = value_matrix(records, codes)
        assert got.dtype == np.float64 and got.shape == (len(records), len(codes))
        # Bytes, so NaN and the sign of zero must match too.
        assert got.tobytes() == expected.tobytes()

    def test_missing_values_are_nan_and_empty_shapes_hold(self):
        records = [CountryRecord("a", 2012, {"G": 1}), CountryRecord("b", 2012, {"EX": True})]
        got = value_matrix(records, ["G", "EX"])
        assert str(got.tolist()) == "[[1.0, nan], [nan, 1.0]]"
        assert value_matrix([], ["G", "EX"]).shape == (0, 2)
        assert value_matrix(records, []).shape == (2, 0)
        assert value_matrix([], []).shape == (0, 0)


@given(st.lists(st.sampled_from(("b", "a", "c", "B", "")), max_size=12))
def test_sort_ranks_index_the_sorted_distinct_items(items):
    rank, distinct = sort_ranks(items)
    assert distinct == tuple(sorted(set(items)))
    assert [distinct[r] for r in rank.tolist()] == items
    assert rank.dtype == np.intp and len(rank) == len(items)
