import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ladrating import (
    CountryRecord,
    DataFormatError,
    Dataset,
    DEFAULT_SCALE,
    Indicator,
    load_dataset,
    make_registry,
    serialize_dataset,
    split_dataset,
)


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
