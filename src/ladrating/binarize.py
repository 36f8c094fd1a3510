"""Cut-point generation, minimization, and Boolean encoding of records.

A cut-point is a threshold placed between two observed values of one
indicator that belong to opposite binary classes; the induced intervals are
pure. Each cut-point contributes one Boolean column meaning "value >=
threshold"; a missing value makes the column false (the condition cannot be
certified).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import CountryRecord, format_value
from .errors import ContradictionError, DataFormatError

#: (record, is_positive) pairs, the unit the binarizer works on.
LabeledRecords = Sequence[tuple[CountryRecord, bool]]


@dataclass(frozen=True, order=True)
class CutPoint:
    indicator: str
    threshold: float


@dataclass(frozen=True, order=True)
class Literal:
    """Directed threshold comparison. Missing values never satisfy it."""

    indicator: str
    direction: str  # ">=" or "<="
    threshold: float

    def evaluate(self, record: CountryRecord) -> bool:
        v = record.values.get(self.indicator)
        if v is None:
            return False
        return v >= self.threshold if self.direction == ">=" else v <= self.threshold

    def __str__(self) -> str:
        return f"{self.indicator} {self.direction} {format_value(self.threshold)}"


@dataclass(frozen=True)
class BinaryView:
    """Boolean encoding of labeled records over an ordered cut-point list.

    `matrix[i, j]` is the >=-literal of cut-point j evaluated on record i
    (missing -> false); `missing[i, j]` records why a false is false, so the
    <=-literal can be evaluated without the raw values.
    """

    record_ids: tuple[str, ...]
    matrix: np.ndarray  # bool, shape (n_records, n_cutpoints)
    missing: np.ndarray  # bool, same shape
    labels: np.ndarray  # bool, shape (n_records,)
    cutpoints: tuple[CutPoint, ...]

    @property
    def n_positives(self) -> int:
        return int(self.labels.sum())


def candidate_cutpoints(records: LabeledRecords, indicator: str) -> list[CutPoint]:
    """All class-boundary cut-points for one indicator, midpoint placement.

    One candidate between every adjacent pair of observed values whose
    classes differ; the resulting intervals are pure. Returns [] when only
    one class carries values.
    """
    by_value: dict[float, set[bool]] = {}
    for rec, label in records:
        v = rec.values.get(indicator)
        if v is not None:
            by_value.setdefault(v, set()).add(label)
    if not by_value:
        raise DataFormatError(f"indicator {indicator!r} absent from all records")

    all_labels = set().union(*by_value.values())
    if len(all_labels) < 2:
        return []

    cuts: list[CutPoint] = []
    values = sorted(by_value)
    for lo, hi in zip(values, values[1:]):
        lo_labels, hi_labels = by_value[lo], by_value[hi]
        # Opposite classes face each other across this gap.
        if (True in lo_labels and False in hi_labels) or (
            False in lo_labels and True in hi_labels
        ):
            cuts.append(CutPoint(indicator, (lo + hi) / 2.0))
    return cuts


def all_candidate_cutpoints(
    records: LabeledRecords, indicators: Sequence[str]
) -> list[CutPoint]:
    """Candidates for every indicator, merged in indicator order.

    Indicators carried by one class only (or by nobody) contribute nothing.
    """
    cuts: list[CutPoint] = []
    for code in indicators:
        try:
            cuts.extend(candidate_cutpoints(records, code))
        except DataFormatError:
            continue
    return cuts


def binarize(records: LabeledRecords, cutpoints: Sequence[CutPoint]) -> BinaryView:
    n, m = len(records), len(cutpoints)
    matrix = np.zeros((n, m), dtype=bool)
    missing = np.zeros((n, m), dtype=bool)
    labels = np.zeros(n, dtype=bool)
    ids = []
    for i, (rec, label) in enumerate(records):
        ids.append(rec.record_id)
        labels[i] = label
        for j, cp in enumerate(cutpoints):
            v = rec.values.get(cp.indicator)
            if v is None:
                missing[i, j] = True
            else:
                matrix[i, j] = v >= cp.threshold
    return BinaryView(tuple(ids), matrix, missing, labels, tuple(cutpoints))


def minimize_cutpoints(
    candidates: Sequence[CutPoint],
    records: LabeledRecords,
    *,
    exact_cell_limit: int = 2000,
) -> list[CutPoint]:
    """Smallest cut-point subset that keeps every separable pair separated.

    Set cover over (positive, negative) record pairs: a candidate covers a
    pair when its >=-literal evaluates differently on the two records. Exact
    branch-and-bound when pairs x candidates <= `exact_cell_limit` cells,
    greedy otherwise (most uncovered pairs, ties to the earlier candidate).
    Raises ContradictionError when some opposite-class pair is separated by
    no candidate at all.
    """
    candidates = sorted(candidates)
    view = binarize(records, candidates)
    pos = np.flatnonzero(view.labels)
    neg = np.flatnonzero(~view.labels)

    masks = [0] * len(candidates)  # per candidate: bitmask of covered pairs
    bad_pairs: list[tuple[str, str]] = []
    pair_index = 0
    seen_pairs: set[bytes] = set()  # dedupe pairs with identical coverage
    for i in pos:
        for j in neg:
            diff = view.matrix[i] != view.matrix[j]
            cols = np.flatnonzero(diff)
            if cols.size == 0:
                bad_pairs.append((view.record_ids[i], view.record_ids[j]))
                continue
            sig = cols.tobytes()
            if sig in seen_pairs:
                continue
            seen_pairs.add(sig)
            for c in cols:
                masks[c] |= 1 << pair_index
            pair_index += 1
    if bad_pairs:
        raise ContradictionError(
            "opposite-class records are not separable by any cut-point: "
            + "; ".join(f"{a} vs {b}" for a, b in bad_pairs[:5]),
            pairs=bad_pairs,
        )
    n_pairs = pair_index
    if n_pairs == 0:
        return []
    full = (1 << n_pairs) - 1

    if n_pairs * len(candidates) <= exact_cell_limit:
        chosen = _exact_cover(masks, full)
    else:
        chosen = _greedy_cover(masks, full)
    return sorted(candidates[c] for c in chosen)


def _greedy_cover(masks: list[int], full: int) -> list[int]:
    chosen: list[int] = []
    covered = 0
    while covered != full:
        best, best_gain = -1, 0
        for c, m in enumerate(masks):
            gain = (m & ~covered).bit_count()
            if gain > best_gain:
                best, best_gain = c, gain
        chosen.append(best)
        covered |= masks[best]
    return chosen


def _exact_cover(masks: list[int], full: int) -> list[int]:
    """Branch and bound on the uncovered-pair count; greedy seeds the bound."""
    best = _greedy_cover(masks, full)
    order = sorted(range(len(masks)), key=lambda c: -masks[c].bit_count())
    max_cover = max(m.bit_count() for m in masks)

    def recurse(idx: int, covered: int, chosen: list[int]):
        nonlocal best
        if covered == full:
            if len(chosen) < len(best):
                best = list(chosen)
            return
        if idx >= len(order):
            return
        remaining = (full & ~covered).bit_count()
        lower = len(chosen) + -(-remaining // max_cover)
        if lower >= len(best):
            return
        # Branch on a still-uncovered pair: try each candidate covering it.
        target = (full & ~covered) & -(full & ~covered)  # lowest uncovered bit
        for c in order:
            if masks[c] & target:
                chosen.append(c)
                recurse(idx + 1, covered | masks[c], chosen)
                chosen.pop()

    recurse(0, 0, [])
    return best
