"""Scoring against observed ratings: match ratios, mismatch tables,
upgrade/downgrade bias, repeat offenders across years.

Direction convention: signed distance = observed index - model index on the
1-based scale (smaller index = better rating). Positive distance means the
model rated the country better than the agency did ("model-better"); across
the published mismatch tables this is the direction the agency's downgrade
bias shows up in.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Iterator, NamedTuple, Optional, Sequence

from ._numpy import np
from .cascade import CascadeModel, first_match
from .data import Dataset, RatingScale, rating_codes, sort_ranks
from .errors import DataFormatError

MODEL_BETTER = "model-better"
MODEL_WORSE = "model-worse"
_DIRECTIONS = (None, MODEL_WORSE, MODEL_BETTER)


class Mismatch(NamedTuple):
    """One mismatching row. A tuple subclass: it unpacks, and it equals a
    plain tuple of its fields."""

    country_id: str
    model_rating: Optional[str]  # None = unclassified
    observed_rating: str
    signed_distance: Optional[int]  # None for unclassified records
    direction: Optional[str]


class MismatchRows(Sequence[Mismatch]):
    """A report's mismatch rows: a read-only sequence of `Mismatch`.

    The rows are held as integer keys and columns. `country_rank` is an int
    array with each row's index into `distinct_ids`, the sorted distinct
    country ids of the data the report was built from, so a row's country
    id is `distinct_ids[country_rank[row]]`; `repeat_offenders` counts these
    keys. `evaluate` keeps the other fields as columns and builds every
    `Mismatch` on the first read of a row (index, iteration, `==`, `hash`
    or `repr`), so a report read only for its counts or keys never builds
    them. The sequence compares equal to any sequence of the same rows
    (never a `str` or `bytes`), such as the tuple of them, in either operand
    order, and its `hash` and `repr` are that tuple's. It is not a `tuple`
    instance.
    """

    __slots__ = ("country_rank", "distinct_ids", "_columns", "_rows")

    def __init__(
        self, country_rank: np.ndarray, distinct_ids: tuple[str, ...], columns=None, rows=None
    ):
        self.country_rank = country_rank
        self.distinct_ids = distinct_ids
        self._columns = columns  # (names, model, observed, distance, kind)
        self._rows = rows

    @property
    def country_ids(self) -> tuple[str, ...]:
        """The rows' country ids in row order, looked up from the keys on
        each read."""
        return tuple(map(self.distinct_ids.__getitem__, self.country_rank.tolist()))

    def rows(self) -> tuple[Mismatch, ...]:
        """The rows as a tuple, built on the first call."""
        if self._rows is None:
            names, model, observed, distance, kind = self._columns
            kind = kind.tolist()
            # tuple.__new__ makes each row from its zipped fields, without
            # the argument handling of a Mismatch(...) call per row.
            self._rows = tuple(map(tuple.__new__, repeat(Mismatch), zip(
                self.country_ids,
                names[model].tolist(),
                names[observed].tolist(),
                [d if k else None for d, k in zip(distance.tolist(), kind)],
                [_DIRECTIONS[k] for k in kind],
            )))
            self._columns = None
        return self._rows

    def __len__(self) -> int:
        return len(self.country_rank)

    def __getitem__(self, index):
        return self.rows()[index]

    def __iter__(self) -> Iterator[Mismatch]:
        return iter(self.rows())

    def __eq__(self, other) -> bool:
        if isinstance(other, MismatchRows):
            other = other.rows()
        elif not isinstance(other, Sequence) or isinstance(other, (str, bytes)):
            return NotImplemented
        return len(self) == len(other) and self.rows() == tuple(other)

    def __hash__(self) -> int:
        return hash(self.rows())

    def __repr__(self) -> str:
        return repr(self.rows())


@dataclass(frozen=True)
class EvaluationReport:
    """Exact-match ratios, bias shares and mismatch rows of one evaluation.

    `mismatches` is a `MismatchRows`; rows given in any other sequence (a
    tuple of `Mismatch`, say) are converted to one at construction.
    """

    match_ratio_overall: float
    match_ratio_train: Optional[float]
    match_ratio_test: Optional[float]
    mismatches: MismatchRows
    model_better_share: Optional[float]
    model_worse_share: Optional[float]
    unclassified_count: int
    total_labeled: int

    def __post_init__(self):
        if not isinstance(self.mismatches, MismatchRows):
            rows = tuple(self.mismatches)
            keys = sort_ranks([m.country_id for m in rows])
            object.__setattr__(self, "mismatches", MismatchRows(*keys, rows=rows))

    @property
    def exact_matches(self) -> int:
        return self.total_labeled - len(self.mismatches)


def _build_report(
    scale: RatingScale,
    labels: Sequence[Optional[str]],
    country_rank: np.ndarray,
    distinct_ids: tuple[str, ...],
    observed: np.ndarray,
    model: np.ndarray,
    train: Optional[np.ndarray] = None,
    test: Optional[np.ndarray] = None,
) -> EvaluationReport:
    """The report of rows given as `rating_codes`: `labels[c]` names code c.
    Row i's country id is `distinct_ids[country_rank[i]]`, as `sort_ranks`
    gives them.

    A row mismatches when its codes differ. A mismatching row with a model
    rating needs both labels on the scale to give a distance, so a label
    outside it there is an error; other rows are not checked.

    Mismatch rows are ordered by one `argsort` of an integer key (`intp`,
    int64 on 64-bit platforms) that is unique per row: largest |distance|
    first and unclassified rows last, then country rank, then record
    order. Each part's range is a constant, not read from the data:
    `len(scale) + 1` values for the distance, `len(distinct_ids)` for the
    rank and the record count for the position. So the key fits while
    (len(scale) + 1) x ids x records < 2**63.
    """
    total = len(observed)
    if not total:
        raise DataFormatError("no labeled records to evaluate")
    n = len(scale)
    mismatch = observed != model
    directed = mismatch & (model != 0)
    unknown = directed & ((observed < 1) | (observed > n) | (model > n))
    if unknown.any():
        row = int(unknown.argmax())
        bad = observed[row] if not 1 <= observed[row] <= n else model[row]
        raise DataFormatError(f"unknown rating label {labels[bad]!r}")
    distance = observed - model
    better = directed & (distance > 0)
    rows = np.flatnonzero(mismatch)
    rank = country_rank[rows]
    # -1 for unclassified rows, so that they come last.
    size = np.where(directed, np.abs(distance), -1)[rows]
    order = np.argsort((rank - size * len(distinct_ids)) * total + rows)
    rows, rank = rows[order], rank[order]
    # 0 unclassified, 1 model-worse, 2 model-better: an index into _DIRECTIONS.
    kind = 1 * directed[rows] + better[rows]
    mismatches = MismatchRows(rank, distinct_ids, columns=(
        np.array(labels, dtype=object), model[rows], observed[rows], distance[rows], kind,
    ))

    def ratio(mask):
        if mask is None or not mask.any():
            return None
        return int(np.count_nonzero(mask & ~mismatch)) / int(np.count_nonzero(mask))

    n_directed = int(np.count_nonzero(directed))
    n_better = int(np.count_nonzero(better))
    return EvaluationReport(
        match_ratio_overall=(total - len(mismatches)) / total,
        match_ratio_train=ratio(train),
        match_ratio_test=ratio(test),
        mismatches=mismatches,
        model_better_share=n_better / n_directed if n_directed else None,
        model_worse_share=(n_directed - n_better) / n_directed if n_directed else None,
        unclassified_count=len(mismatches) - n_directed,
        total_labeled=total,
    )


def evaluate(model: CascadeModel, dataset: Dataset) -> EvaluationReport:
    """Exact-match ratios and mismatch rows for every labeled record.

    Reads the dataset's `labeled_arrays`, built once per dataset, so calls
    with other models on the same dataset reuse its value matrix. Each
    record's model rating is the label of its `first_match` entry; the
    signed distance is observed index minus model index. Mismatch rows come
    largest |distance| first, unclassified rows last, then by country id,
    then in record order. Per-split ratios appear only when the dataset
    carries a split. Unclassified records count as mismatches with no
    direction and are excluded from the bias shares.
    """
    arrays = dataset.labeled_arrays
    plan = model._first_match_plan
    known = {label: c for c, label in enumerate(arrays.labels, start=1)}
    # Codes per distinct entry label, first seen first: the codes that
    # `rating_codes` gives over every entry's label.
    entry = np.array(rating_codes(plan.labels, known), dtype=np.intp)[plan.label_of]
    ratings = entry[first_match(model, arrays.codes, arrays.values)]
    return _build_report(
        dataset.scale, (None, *known), arrays.country_rank, arrays.distinct_ids,
        arrays.observed, ratings, arrays.train, arrays.test,
    )


def report_from_pairs(
    pairs: Sequence[tuple[str, str, str]], scale: RatingScale
) -> EvaluationReport:
    """Build a report from (country, model rating, observed rating) rows,
    e.g. a published mismatch table re-entered as label pairs.

    Rows are ordered as in `evaluate`. An unknown label is an error only on
    a mismatching row with a model rating.
    """
    pairs = list(pairs)
    known = {label: c for c, label in enumerate(scale.classes, start=1)}
    model = rating_codes([m for _, m, _ in pairs], known)
    observed = rating_codes([o for _, _, o in pairs], known)
    return _build_report(
        scale, (None, *known), *sort_ranks([c for c, _, _ in pairs]),
        np.array(observed, dtype=np.intp), np.array(model, dtype=np.intp),
    )


@dataclass(frozen=True)
class RepeatOffenderSummary:
    """Countries mismatched in >= 2 evaluated years."""

    counts: dict[str, int]  # every country with >= 2 mismatches
    twice: tuple[str, ...]
    more_than_twice: tuple[str, ...]


def repeat_offenders(reports: Sequence[EvaluationReport]) -> RepeatOffenderSummary:
    """The countries with a mismatch row in two or more of `reports`, one
    report per evaluated year. A country with two rows in one report counts
    twice. `counts` lists the countries in the order their first row comes
    in the reports' rows, report by report; `twice` and `more_than_twice`
    are sorted.

    Counted on integer keys, so no row is built: one `np.bincount` over the
    reports' `mismatches.country_rank`. Reports whose id tables
    (`mismatches.distinct_ids`) are the same object or equal share one
    table; when there are several, they are merged once into the sorted
    union, with work in the number of distinct ids, and each report's ranks
    are mapped into it.
    """
    if len(reports) < 2:
        raise DataFormatError("repeat-offender summary needs >= 2 reports")
    rows = [report.mismatches for report in reports]
    tables: list[tuple[str, ...]] = []
    which = []  # per report, the index of its table in `tables`
    for m in rows:
        t = next((i for i, table in enumerate(tables)
                  if table is m.distinct_ids or table == m.distinct_ids), len(tables))
        if t == len(tables):
            tables.append(m.distinct_ids)
        which.append(t)
    if len(tables) == 1:
        ids = tables[0]
        keys = np.concatenate([m.country_rank for m in rows])
    else:
        ids = tuple(sorted(set().union(*tables)))
        index = dict(zip(ids, range(len(ids))))
        remap = [np.fromiter(map(index.__getitem__, table), np.intp, len(table)) for table in tables]
        keys = np.concatenate([remap[t][m.country_rank] for m, t in zip(rows, which)])
    counts = np.bincount(keys, minlength=len(ids))
    # Each repeated key's first position in `keys`, marked: the keys at the
    # marks, in position order, are the repeated ids in first-seen order.
    first = np.full(len(ids), len(keys))
    np.minimum.at(first, keys, np.arange(len(keys)))
    seen = np.zeros(len(keys), dtype=bool)
    seen[first[counts >= 2]] = True
    repeated = keys[seen]
    names = np.fromiter(ids, dtype=object, count=len(ids))
    return RepeatOffenderSummary(
        counts=dict(zip(names[repeated].tolist(), counts[repeated].tolist())),
        twice=tuple(names[counts == 2].tolist()),
        more_than_twice=tuple(names[counts > 2].tolist()),
    )


def render_report(report: EvaluationReport) -> str:
    """Human-readable report in the published tables' layout."""
    lines = [
        f"overall match ratio: {report.match_ratio_overall:.3f} "
        f"({report.exact_matches}/{report.total_labeled})",
    ]
    if report.match_ratio_train is not None:
        lines.append(f"train match ratio:   {report.match_ratio_train:.3f}")
    if report.match_ratio_test is not None:
        lines.append(f"test match ratio:    {report.match_ratio_test:.3f}")
    if report.model_better_share is not None:
        lines.append(
            f"bias: model-better {report.model_better_share:.1%}, "
            f"model-worse {report.model_worse_share:.1%}"
        )
    lines.append(f"unclassified: {report.unclassified_count}")
    if report.mismatches:
        lines.append("")
        lines.append(f"{'Country':30} {'Model':>8} {'Observed':>8} {'Dist':>5}")
        for m in report.mismatches:
            model = m.model_rating or "UNCLASSIFIED"
            dist = "n/a" if m.signed_distance is None else f"{m.signed_distance:+d}"
            lines.append(f"{m.country_id:30} {model:>8} {m.observed_rating:>8} {dist:>5}")
    return "\n".join(lines) + "\n"
