"""Domain types: indicators, the 16-level rating scale, records, datasets.

Rating labels use an ASCII convention: trailing P stands for "+", trailing M
for "-" (AAP = AA+, BBBM = BBB-). See docs/rating_scale.md for the mapping
to the usual Fitch glyphs.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import random
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain
from typing import IO, Iterable, Mapping, Optional, Sequence

from ._numpy import np
from .errors import DataFormatError


@dataclass(frozen=True)
class Indicator:
    code: str
    description: str
    unit: str


#: The 20 built-in economic indicators, in canonical order.
BUILTIN_INDICATORS: tuple[Indicator, ...] = (
    Indicator("C", "Cash surplus/deficit", "% of GDP"),
    Indicator("EX", "Exports of goods and services", "% of GDP"),
    Indicator("G", "GDP per capita", "current US$"),
    Indicator("IM", "Imports of goods and services", "% of GDP"),
    Indicator("RE", "Revenue, excluding grants", "% of GDP"),
    Indicator("SD", "Short-term debt", "% of total reserves"),
    Indicator("TD", "Total debt service", "% of exports of goods, services and primary income"),
    Indicator("CG", "Central government debt, total", "% of GDP"),
    Indicator("E", "Expense", "% of GDP"),
    Indicator("GG", "GDP per capita growth", "annual %"),
    Indicator("GS", "Gross savings", "% of GDP"),
    Indicator("IV", "Industry, value added", "% of GDP"),
    Indicator("I", "Inflation, consumer prices", "annual %"),
    Indicator("PPP", "PPP conversion factor, GDP", "LCU per international $"),
    Indicator("R", "Total reserves, includes gold", "current US$"),
    Indicator("U", "Urban population", "% of total"),
    Indicator("PG", "Population growth", "annual %"),
    Indicator("PA", "Population ages 0-14", "% of total"),
    Indicator("UN", "Unemployment, male", "% of male labor force, modelled ILO estimate"),
    Indicator("M", "Mobile cellular subscriptions", "per 100 people"),
)


def make_registry(indicators: Iterable[Indicator]) -> dict[str, Indicator]:
    """Build a code -> Indicator map, rejecting duplicate codes."""
    registry: dict[str, Indicator] = {}
    for ind in indicators:
        if ind.code in registry:
            raise DataFormatError(f"duplicate indicator code {ind.code!r}")
        registry[ind.code] = ind
    return registry


DEFAULT_REGISTRY: dict[str, Indicator] = make_registry(BUILTIN_INDICATORS)

FALLBACK_TO_LAST = "fallback-to-last"
UNCLASSIFIED_POLICY = "unclassified"


@dataclass(frozen=True)
class RatingScale:
    """Ordered rating labels; index 1 is the safest class."""

    classes: tuple[str, ...]
    fallback_policy: str = FALLBACK_TO_LAST

    def __post_init__(self):
        if len(set(self.classes)) != len(self.classes):
            raise DataFormatError("rating labels must be unique")
        if self.fallback_policy not in (FALLBACK_TO_LAST, UNCLASSIFIED_POLICY):
            raise DataFormatError(f"unknown fallback policy {self.fallback_policy!r}")

    def index(self, label: str) -> int:
        """1-based rank of a label; smaller is better."""
        try:
            return self.classes.index(label) + 1
        except ValueError:
            raise DataFormatError(f"unknown rating label {label!r}") from None

    def __contains__(self, label: object) -> bool:
        return label in self.classes

    def __len__(self) -> int:
        return len(self.classes)


DEFAULT_SCALE = RatingScale(
    classes=(
        "AAA", "AAP", "AA", "AAM", "AP", "A", "AM", "BBBP",
        "BBB", "BBBM", "BBP", "BB", "BBM", "BP", "B", "BM",
    )
)


@dataclass(frozen=True)
class CountryRecord:
    """One country-year row. `values` is partial; missing is missing, not 0."""

    country_id: str
    year: int
    values: Mapping[str, float]
    observed_rating: Optional[str] = None

    @property
    def key(self) -> tuple[str, int]:
        return (self.country_id, self.year)

    @property
    def record_id(self) -> str:
        return f"{self.country_id}:{self.year}"


@dataclass(frozen=True)
class Split:
    train_keys: frozenset[tuple[str, int]]
    test_keys: frozenset[tuple[str, int]]


def value_matrix(records: Sequence[CountryRecord], codes: Sequence[str]) -> np.ndarray:
    """The records' values as a float matrix, records x codes; NaN where a
    record has no value for a code.

    Filled in one `np.fromiter` pass over each record's `values.get` mapped
    over the codes, NaN as the default. Each value converts as it would in
    `np.array(..., dtype=float)`: an int, a bool or a numpy scalar gives its
    float."""
    nans = [math.nan] * len(codes)
    cells = chain.from_iterable(map(r.values.get, codes, nans) for r in records)
    return np.fromiter(cells, dtype=float, count=len(records) * len(codes)).reshape(
        len(records), len(codes)
    )


def rating_codes(labels: Iterable[Optional[str]], known: dict[str, int]) -> list[int]:
    """One integer per label: 0 for None (unclassified), else `known[label]`.

    Start `known` as each scale label's 1-based index. A label it lacks gets
    the next free code, past the scale, and is added to `known`, so equal
    labels always get equal codes and different labels different ones.
    """
    return [0 if label is None else known.setdefault(label, len(known) + 1) for label in labels]


def sort_ranks(items: Sequence[str]) -> tuple[np.ndarray, tuple[str, ...]]:
    """Each item's rank among the distinct items, and those distinct items
    in sorted order: `distinct[rank[i]] == items[i]`, and equal items get
    equal ranks."""
    distinct = tuple(sorted(set(items)))
    rank = dict(zip(distinct, range(len(distinct))))
    return np.fromiter(map(rank.__getitem__, items), dtype=np.intp, count=len(items)), distinct


@dataclass(frozen=True, eq=False)
class LabeledArrays:
    """A dataset's labeled records as arrays, one row per record in
    `Dataset.labeled_records` order. The arrays are read-only. `values` is
    column-major, so that `first_match` reads each code's column
    contiguously. `country_rank` and `distinct_ids` come from one
    `sort_ranks`: a row's country id is `distinct_ids[country_rank[row]]`,
    and rank order is id order. Reports keep both as their rows' integer
    keys, which `repeat_offenders` counts."""

    codes: tuple[str, ...]  # the columns of `values`: `Dataset.indicator_codes()`
    values: np.ndarray  # rows x codes, NaN for a missing value; column-major
    observed: np.ndarray  # `rating_codes` of the observed ratings
    labels: tuple[str, ...]  # labels[c - 1] is the label of code c
    country_rank: np.ndarray  # each country id's index in `distinct_ids`
    distinct_ids: tuple[str, ...]  # the distinct country ids, sorted
    train: Optional[np.ndarray]  # boolean masks, when the dataset has a split
    test: Optional[np.ndarray]

    def __post_init__(self):
        for a in vars(self).values():
            if isinstance(a, np.ndarray):
                a.flags.writeable = False


@dataclass(frozen=True)
class Dataset:
    """Records, their rating scale and an optional train/test split.

    Records and their `values` are treated as read-only once the dataset is
    built: `labeled_arrays` and `fingerprint` are computed from them once,
    on first use, and kept, so changing a record's values afterwards leaves
    them stale.
    """

    records: tuple[CountryRecord, ...]
    scale: RatingScale = DEFAULT_SCALE
    split: Optional[Split] = None

    @property
    def labeled_records(self) -> tuple[CountryRecord, ...]:
        return tuple(r for r in self.records if r.observed_rating is not None)

    @property
    def train_records(self) -> tuple[CountryRecord, ...]:
        if self.split is None:
            return self.labeled_records
        return tuple(r for r in self.labeled_records if r.key in self.split.train_keys)

    @property
    def test_records(self) -> tuple[CountryRecord, ...]:
        if self.split is None:
            return ()
        return tuple(r for r in self.labeled_records if r.key in self.split.test_keys)

    def indicator_codes(self) -> tuple[str, ...]:
        """Codes observed anywhere in the data, in registry-then-alpha order."""
        seen = set().union(*[r.values for r in self.records])
        ordered = [i.code for i in BUILTIN_INDICATORS if i.code in seen]
        ordered += sorted(seen - set(ordered))
        return tuple(ordered)

    @cached_property
    def fingerprint(self) -> str:
        """The first 16 hex digits of the sha256 of `serialize_dataset`,
        which models record in their provenance. Built on first use, once
        per instance, as `labeled_arrays` is."""
        return hashlib.sha256(serialize_dataset(self).encode()).hexdigest()[:16]

    @cached_property
    def labeled_arrays(self) -> LabeledArrays:
        """The labeled records as arrays: their values over
        `indicator_codes()`, observed rating codes, country ranks with the
        sorted distinct ids, and split masks.

        Built on first use, once per instance; the dataset is frozen, so
        nothing invalidates it. `dataclasses.replace` (as in `split_dataset`)
        makes a new instance, which builds its own. `evaluate` orders
        mismatch rows that tie on distance by the country rank, then by
        row, which is `labeled_records` order.
        """
        labeled = self.labeled_records
        codes = self.indicator_codes()
        known = {label: c for c, label in enumerate(self.scale.classes, start=1)}
        observed = rating_codes([r.observed_rating for r in labeled], known)
        split = self.split

        def mask(keys):
            return np.array([r.key in keys for r in labeled], dtype=bool)

        country_rank, distinct_ids = sort_ranks([r.country_id for r in labeled])
        return LabeledArrays(
            codes=codes,
            values=np.asfortranarray(value_matrix(labeled, codes)),
            observed=np.array(observed, dtype=np.intp),
            labels=tuple(known),
            country_rank=country_rank,
            distinct_ids=distinct_ids,
            train=mask(split.train_keys) if split else None,
            test=mask(split.test_keys) if split else None,
        )


RESERVED_COLUMNS = ("country", "year", "rating")

#: Years `load_dataset` accepts, inclusive.
YEAR_RANGE = (1900, 2100)


def load_dataset(
    source: IO[str] | str,
    scale: RatingScale = DEFAULT_SCALE,
    *,
    warnings: Optional[list[str]] = None,
) -> Dataset:
    """Parse comma-separated text into a Dataset.

    The header must name `country`, `year` and `rating` plus indicator codes
    of `DEFAULT_REGISTRY`; years must lie in `YEAR_RANGE`. Unknown columns
    are ignored (reported through `warnings` if given). Empty cells become
    missing values.
    """
    if isinstance(source, str):
        source = io.StringIO(source)
    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise DataFormatError("empty input: header row required") from None
    if header:
        # A UTF-8 byte order mark decodes to U+FEFF ahead of the first name.
        header[0] = header[0].removeprefix("\ufeff")
    header = [h.strip() for h in header]
    first_at: dict[str, int] = {}
    for i, name in enumerate(header):
        if name in first_at:
            raise DataFormatError(
                f"header repeats column {name!r} at positions {first_at[name] + 1} and {i + 1}"
            )
        if name:
            first_at[name] = i

    for required in RESERVED_COLUMNS[:2]:
        if required not in header:
            raise DataFormatError(f"header is missing required column {required!r}")
    rating_col = header.index("rating") if "rating" in header else None
    country_col = header.index("country")
    year_col = header.index("year")

    indicator_cols: dict[int, str] = {}
    for i, name in enumerate(header):
        if i in (country_col, year_col, rating_col):
            continue
        if name in DEFAULT_REGISTRY:
            indicator_cols[i] = name
        elif warnings is not None:
            warnings.append(f"ignoring unknown column {name!r}")

    records: list[CountryRecord] = []
    seen_keys: set[tuple[str, int]] = set()
    for lineno, row in enumerate(reader, start=2):
        if not "".join(row).strip():
            continue
        if len(row) <= max(country_col, year_col):
            raise DataFormatError(
                f"line {lineno}: {len(row)} cells, too short for the "
                f"country and year columns"
            )
        country = row[country_col].strip()
        try:
            year = int(row[year_col].strip())
        except ValueError:
            raise DataFormatError(f"line {lineno}: bad year {row[year_col]!r}") from None
        if not (YEAR_RANGE[0] <= year <= YEAR_RANGE[1]):
            raise DataFormatError(f"line {lineno}: year {year} outside {YEAR_RANGE}")
        key = (country, year)
        if key in seen_keys:
            raise DataFormatError(f"line {lineno}: duplicate record for {key}")
        seen_keys.add(key)

        rating = None
        if rating_col is not None and rating_col < len(row):
            cell = row[rating_col].strip()
            if cell:
                if cell not in scale:
                    raise DataFormatError(
                        f"line {lineno}: unknown rating label {cell!r}"
                    )
                rating = cell

        values: dict[str, float] = {}
        for i, code in indicator_cols.items():
            if i >= len(row):
                continue
            cell = row[i].strip()
            if not cell:
                continue
            try:
                value = float(cell)
            except ValueError:
                raise DataFormatError(
                    f"line {lineno}: bad numeric value {cell!r} for {code}"
                ) from None
            if not math.isfinite(value):
                raise DataFormatError(
                    f"line {lineno}, column {i + 1} ({code}): "
                    f"non-finite value {cell!r}"
                )
            values[code] = value
        records.append(CountryRecord(country, year, values, rating))

    return Dataset(records=tuple(records), scale=scale)


def serialize_dataset(dataset: Dataset) -> str:
    """Canonical tabular form; re-parsing yields an equal Dataset."""
    codes = dataset.indicator_codes()
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["country", "year", "rating", *codes])
    for rec in dataset.records:
        row = [rec.country_id, rec.year, rec.observed_rating or ""]
        for code in codes:
            v = rec.values.get(code)
            row.append(format_value(v) if v is not None else "")
        writer.writerow(row)
    return out.getvalue()


def format_value(v: float) -> str:
    """Shortest exact decimal form; integers lose the trailing `.0`, and a
    non-finite value is its `repr` (`inf`, `-inf`, `nan`)."""
    if math.isfinite(v) and v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def split_dataset(dataset: Dataset, train_fraction: float, seed: int) -> Dataset:
    """Stratified train/test partition of the labeled records.

    Deterministic for a given seed. Every class with at least one member
    contributes at least one training record; per-class counts are within
    one record of the requested fraction.
    """
    if not (0.0 < train_fraction < 1.0):
        raise DataFormatError(f"train fraction {train_fraction} outside (0, 1)")
    labeled = dataset.labeled_records
    if len(labeled) < 2:
        raise DataFormatError("need at least 2 labeled records to split")

    rng = random.Random(seed)
    train: set[tuple[str, int]] = set()
    test: set[tuple[str, int]] = set()
    for label in dataset.scale.classes:
        group = sorted(
            (r for r in labeled if r.observed_rating == label),
            key=lambda r: r.key,
        )
        if not group:
            continue
        rng.shuffle(group)
        n_train = max(1, round(train_fraction * len(group)))
        n_train = min(n_train, len(group))
        train.update(r.key for r in group[:n_train])
        test.update(r.key for r in group[n_train:])

    return replace(dataset, split=Split(frozenset(train), frozenset(test)))
