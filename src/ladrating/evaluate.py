"""Scoring against observed ratings: match ratios, mismatch tables,
upgrade/downgrade bias, repeat offenders across years.

Direction convention: signed distance = observed index - model index on the
1-based scale (smaller index = better rating). Positive distance means the
model rated the country better than the agency did ("model-better"); across
the published mismatch tables this is the direction the agency's downgrade
bias shows up in.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, repeat
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

    `evaluate` keeps the rows as columns and builds every `Mismatch` on the
    first read of a row (index, iteration, `==`, `hash` or `repr`), so a
    report read only for its counts or country ids never builds them.
    `country_ids` holds the rows' country ids in row order. The sequence
    compares equal to any sequence of the same rows (never a `str` or
    `bytes`), such as the tuple of them, in either operand order, and its
    `hash` and `repr` are that tuple's. It is not a `tuple` instance.
    """

    __slots__ = ("country_ids", "_columns", "_rows")

    def __init__(self, country_ids: tuple[str, ...], columns=None, rows=None):
        self.country_ids = country_ids
        self._columns = columns  # (names, model, observed, distance, kind)
        self._rows = rows

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
        return len(self.country_ids)

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
            ids = tuple(m.country_id for m in rows)
            object.__setattr__(self, "mismatches", MismatchRows(ids, rows=rows))

    @property
    def exact_matches(self) -> int:
        return self.total_labeled - len(self.mismatches)


def _build_report(
    scale: RatingScale,
    labels: Sequence[Optional[str]],
    country_ids: np.ndarray,
    country_rank: np.ndarray,
    observed: np.ndarray,
    model: np.ndarray,
    train: Optional[np.ndarray] = None,
    test: Optional[np.ndarray] = None,
) -> EvaluationReport:
    """The report of rows given as `rating_codes`: `labels[c]` names code c.
    `country_ids` is an object array of the rows' country ids.

    A row mismatches when its codes differ. A mismatching row with a model
    rating needs both labels on the scale to give a distance, so a label
    outside it there is an error; other rows are not checked.
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
    # Largest |distance| first, unclassified rows last, then by country id;
    # lexsort is stable, so rows that tie keep their record order.
    rows = np.flatnonzero(mismatch)
    size = np.where(directed, np.abs(distance), -1)[rows]
    rows = rows[np.lexsort((country_rank[rows], -size))]
    # 0 unclassified, 1 model-worse, 2 model-better: an index into _DIRECTIONS.
    kind = 1 * directed[rows] + better[rows]
    mismatches = MismatchRows(tuple(country_ids[rows].tolist()), columns=(
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
    known = {label: c for c, label in enumerate(arrays.labels, start=1)}
    entry = np.array(rating_codes([label for label, _ in model._first_match], known), dtype=np.intp)
    ratings = entry[first_match(model, arrays.codes, arrays.values)]
    return _build_report(
        dataset.scale, (None, *known), arrays.country_ids, arrays.country_rank,
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
    country_ids = [c for c, _, _ in pairs]
    return _build_report(
        scale, (None, *known), np.array(country_ids, dtype=object), sort_ranks(country_ids),
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
    report per evaluated year, counted from each report's
    `mismatches.country_ids`, so no row is built. A country with two rows
    in one report counts twice.
    """
    if len(reports) < 2:
        raise DataFormatError("repeat-offender summary needs >= 2 reports")
    counts = Counter(chain.from_iterable(report.mismatches.country_ids for report in reports))
    repeated = {c: n for c, n in counts.items() if n >= 2}
    return RepeatOffenderSummary(
        counts=repeated,
        twice=tuple(sorted(c for c, n in repeated.items() if n == 2)),
        more_than_twice=tuple(sorted(c for c, n in repeated.items() if n > 2)),
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
