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
from typing import Optional, Sequence

from .cascade import CascadeModel, classify_records
from .data import Dataset, RatingScale
from .errors import DataFormatError

MODEL_BETTER = "model-better"
MODEL_WORSE = "model-worse"


@dataclass(frozen=True)
class Mismatch:
    country_id: str
    model_rating: Optional[str]  # None = unclassified
    observed_rating: str
    signed_distance: Optional[int]  # None for unclassified records
    direction: Optional[str]


@dataclass(frozen=True)
class EvaluationReport:
    match_ratio_overall: float
    match_ratio_train: Optional[float]
    match_ratio_test: Optional[float]
    mismatches: tuple[Mismatch, ...]
    model_better_share: Optional[float]
    model_worse_share: Optional[float]
    unclassified_count: int
    total_labeled: int

    @property
    def exact_matches(self) -> int:
        return self.total_labeled - len(self.mismatches)


def _mismatch(scale: RatingScale, country: str, model: Optional[str], observed: str) -> Mismatch:
    if model is None:
        return Mismatch(country, None, observed, None, None)
    dist = scale.index(observed) - scale.index(model)
    return Mismatch(
        country, model, observed, dist, MODEL_BETTER if dist > 0 else MODEL_WORSE
    )


def _build_report(
    scale: RatingScale,
    rows: Sequence[tuple[str, Optional[str], str]],
    train_keys: Optional[set] = None,
    test_keys: Optional[set] = None,
    keys: Optional[Sequence] = None,
) -> EvaluationReport:
    if not rows:
        raise DataFormatError("no labeled records to evaluate")
    mismatches = [
        _mismatch(scale, country, model, observed)
        for country, model, observed in rows
        if model != observed
    ]
    mismatches.sort(
        key=lambda m: (-(abs(m.signed_distance) if m.signed_distance is not None else -1),
                       m.country_id)
    )
    total = len(rows)
    matched = total - len(mismatches)

    def ratio(subset_keys):
        if subset_keys is None or keys is None:
            return None
        idx = [i for i, k in enumerate(keys) if k in subset_keys]
        if not idx:
            return None
        ok = sum(1 for i in idx if rows[i][1] == rows[i][2])
        return ok / len(idx)

    directed = [m for m in mismatches if m.direction is not None]
    better = sum(1 for m in directed if m.direction == MODEL_BETTER)
    return EvaluationReport(
        match_ratio_overall=matched / total,
        match_ratio_train=ratio(train_keys),
        match_ratio_test=ratio(test_keys),
        mismatches=tuple(mismatches),
        model_better_share=better / len(directed) if directed else None,
        model_worse_share=(len(directed) - better) / len(directed) if directed else None,
        unclassified_count=sum(1 for m in mismatches if m.model_rating is None),
        total_labeled=total,
    )


def evaluate(model: CascadeModel, dataset: Dataset) -> EvaluationReport:
    """Exact-match ratios and mismatch rows for every labeled record.

    Per-split ratios appear only when the dataset carries a split.
    Unclassified records count as mismatches with no direction and are
    excluded from the bias shares.
    """
    labeled = dataset.labeled_records
    ratings = classify_records(model, labeled)
    rows = [(r.country_id, rating, r.observed_rating) for r, rating in zip(labeled, ratings)]
    keys = [r.key for r in labeled]
    train_keys = set(dataset.split.train_keys) if dataset.split else None
    test_keys = set(dataset.split.test_keys) if dataset.split else None
    return _build_report(dataset.scale, rows, train_keys, test_keys, keys)


def report_from_pairs(
    pairs: Sequence[tuple[str, str, str]], scale: RatingScale
) -> EvaluationReport:
    """Build a report from (country, model rating, observed rating) rows,
    e.g. a published mismatch table re-entered as label pairs."""
    return _build_report(scale, list(pairs))


@dataclass(frozen=True)
class RepeatOffenderSummary:
    """Countries mismatched in >= 2 evaluated years."""

    counts: dict[str, int]  # every country with >= 2 mismatches
    twice: tuple[str, ...]
    more_than_twice: tuple[str, ...]


def repeat_offenders(reports: Sequence[EvaluationReport]) -> RepeatOffenderSummary:
    if len(reports) < 2:
        raise DataFormatError("repeat-offender summary needs >= 2 reports")
    counts: dict[str, int] = {}
    for report in reports:
        for m in report.mismatches:
            counts[m.country_id] = counts.get(m.country_id, 0) + 1
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
