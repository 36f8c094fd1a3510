"""Domain types: indicators, the 16-level rating scale, records, datasets.

Rating labels use an ASCII convention: trailing P stands for "+", trailing M
for "-" (AAP = AA+, BBBM = BBB-). See docs/rating_scale.md for the mapping
to the usual Fitch glyphs.
"""

from __future__ import annotations

import csv
import io
import math
import random
from dataclasses import dataclass, replace
from typing import IO, Iterable, Mapping, Optional

from .errors import DataFormatError, Diagnostic


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


@dataclass(frozen=True)
class Dataset:
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
        seen = {c for r in self.records for c in r.values}
        ordered = [i.code for i in BUILTIN_INDICATORS if i.code in seen]
        ordered += sorted(seen - set(ordered))
        return tuple(ordered)


RESERVED_COLUMNS = ("country", "year", "rating")

#: Years `load_dataset` accepts, inclusive.
YEAR_RANGE = (1900, 2100)


def load_dataset(
    source: IO[str] | str,
    scale: RatingScale = DEFAULT_SCALE,
    *,
    min_population: Optional[float] = None,
    population_column: str = "population",
    warnings: Optional[list[str]] = None,
) -> Dataset:
    """Parse comma-separated text into a Dataset.

    The header must name `country`, `year` and `rating` plus indicator codes
    of `DEFAULT_REGISTRY`; years must lie in `YEAR_RANGE`. Unknown columns
    are ignored (reported through `warnings` if given). Empty cells become
    missing values. Rows whose population column falls below
    `min_population` are dropped when the filter is enabled.
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
    pop_col = header.index(population_column) if population_column in header else None

    indicator_cols: dict[int, str] = {}
    for i, name in enumerate(header):
        if i in (country_col, year_col, rating_col, pop_col):
            continue
        if name in DEFAULT_REGISTRY:
            indicator_cols[i] = name
        elif warnings is not None:
            warnings.append(f"ignoring unknown column {name!r}")

    records: list[CountryRecord] = []
    seen_keys: set[tuple[str, int]] = set()
    for lineno, row in enumerate(reader, start=2):
        if not any(cell.strip() for cell in row):
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

        if min_population is not None and pop_col is not None and pop_col < len(row):
            cell = row[pop_col].strip()
            try:
                below = bool(cell) and float(cell) < min_population
            except ValueError:
                raise DataFormatError(
                    f"line {lineno}, column {pop_col + 1} ({population_column}): "
                    f"bad numeric value {cell!r}"
                ) from None
            if below:
                if warnings is not None:
                    warnings.append(f"dropping {key}: population below threshold")
                continue

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
    """Shortest exact decimal form; integers lose the trailing `.0`."""
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def validate(dataset: Dataset) -> list[Diagnostic]:
    """Structural diagnostics: duplicate keys, bad labels, contradictions.

    Records with identical observed values but different ratings contradict
    every possible binarization. Contradictions that only a chosen cut-point
    set creates are reported by `minimize_cutpoints` as ContradictionError.
    """
    diags: list[Diagnostic] = []
    seen: dict[tuple[str, int], CountryRecord] = {}
    for rec in dataset.records:
        if rec.key in seen:
            diags.append(Diagnostic("duplicate-key", f"duplicate record {rec.key}"))
        seen[rec.key] = rec
        if rec.observed_rating is not None and rec.observed_rating not in dataset.scale:
            diags.append(
                Diagnostic(
                    "unknown-label",
                    f"{rec.record_id}: rating {rec.observed_rating!r} not in scale",
                )
            )

    labeled = [r for r in dataset.labeled_records if r.observed_rating in dataset.scale]

    by_values: dict[tuple, list[CountryRecord]] = {}
    for rec in labeled:
        sig = tuple(sorted(rec.values.items()))
        by_values.setdefault(sig, []).append(rec)
    for group in by_values.values():
        ratings = {r.observed_rating for r in group}
        if len(ratings) > 1:
            ids = sorted(r.record_id for r in group)
            diags.append(
                Diagnostic(
                    "contradiction",
                    f"identical values, different ratings: {', '.join(ids)}",
                    {"records": ids},
                )
            )
    return diags


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
