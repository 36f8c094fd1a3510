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
    """Encode labeled records over `cutpoints`, one indicator at a time.

    An indicator absent from a record's values is missing; a present value,
    NaN included, is compared against the thresholds (NaN >= t is false).
    """
    n, m = len(records), len(cutpoints)
    matrix = np.zeros((n, m), dtype=bool)
    missing = np.zeros((n, m), dtype=bool)
    labels = np.fromiter((label for _, label in records), dtype=bool, count=n)
    columns: dict[str, list[int]] = {}
    for j, cp in enumerate(cutpoints):
        columns.setdefault(cp.indicator, []).append(j)
    for code, js in columns.items():
        present = np.fromiter((code in rec.values for rec, _ in records), dtype=bool, count=n)
        values = np.fromiter(
            (rec.values.get(code, np.nan) for rec, _ in records), dtype=float, count=n
        )
        thresholds = np.array([cutpoints[j].threshold for j in js])
        matrix[:, js] = (values[:, None] >= thresholds) & present[:, None]
        missing[:, js] = ~present[:, None]
    ids = tuple(rec.record_id for rec, _ in records)
    return BinaryView(ids, matrix, missing, labels, tuple(cutpoints))


#: Byte budget of one block of pair rows: XORed packed rows while pairs are
#: built, unpacked bool rows while cover gains are counted.
_BLOCK_BYTES = 1 << 24

#: Search nodes `_exact_cover` may visit (about 0.5 s of search) before it
#: returns the best cover found so far. A count, not a time, so results stay
#: deterministic. Exact stages of the bundled workloads need under 2,000.
_EXACT_NODE_BUDGET = 200_000


def minimize_cutpoints(
    candidates: Sequence[CutPoint],
    records: LabeledRecords,
    *,
    exact_cell_limit: int = 2000,
) -> list[CutPoint]:
    """Smallest cut-point subset that keeps every separable pair separated.

    Set cover over (positive, negative) record pairs: a candidate covers a
    pair when its >=-literal evaluates differently on the two records.
    Pairs are ordered positive-major (every negative for the first positive,
    then the next), and pairs with the same set of separating candidates
    count once, at their first occurrence. Exact branch-and-bound when
    distinct pairs x candidates <= `exact_cell_limit` cells, branching on
    the earliest uncovered pair in that order; greedy otherwise (most
    uncovered pairs, ties to the earlier candidate in sorted order). The
    exact search is seeded with the greedy cover and stops after
    `_EXACT_NODE_BUDGET` nodes; a cover returned then is never larger than
    greedy's but may not be minimal.

    Pairs are built bit-packed, in blocks of positive rows of about
    `_BLOCK_BYTES`, and deduped block by block, so memory is bounded by the
    packed distinct-pair matrix: about distinct_pairs x ceil(candidates / 8)
    bytes, plus 8 bytes per distinct pair for its first-seen rank. Merging a
    block in holds the matrix twice for a moment.

    Raises ContradictionError when some opposite-class pair is separated by
    no candidate at all; its `pairs` lists every such pair, positive-major.
    """
    candidates = sorted(candidates)
    view = binarize(records, candidates)
    pos = np.flatnonzero(view.labels)
    neg = np.flatnonzero(~view.labels)
    pairs, rank = _distinct_pairs(view, pos, neg)
    if pairs.shape[0] == 0:
        return []
    chosen = _greedy_cover(pairs, len(candidates))
    if pairs.shape[0] * len(candidates) <= exact_cell_limit:
        masks = _column_masks(pairs[np.argsort(rank)], len(candidates))
        chosen = _exact_cover(masks, (1 << pairs.shape[0]) - 1, chosen)
    return sorted(candidates[c] for c in chosen)


def _distinct_pairs(
    view: BinaryView, pos: np.ndarray, neg: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The distinct packed XOR rows of all (positive, negative) pairs, in
    byte order, and each row's rank in first-seen positive-major order.

    Raises ContradictionError when some rows are all zero.
    """
    packed = np.packbits(view.matrix, axis=1)
    width = packed.shape[1]
    pos_rows, neg_rows = packed[pos], packed[neg]
    per_block = max(1, _BLOCK_BYTES // max(1, len(neg) * width))
    pairs = np.zeros((0, width), dtype=np.uint8)
    rank = np.zeros(0, dtype=np.int64)
    bad: list[np.ndarray] = []  # flat positive-major indices of all-zero rows
    for start in range(0, len(pos), per_block):
        block = pos_rows[start : start + per_block, None, :] ^ neg_rows[None, :, :]
        # Explicit row count: with zero candidates `width` is 0 and -1 is ambiguous.
        block = block.reshape(block.shape[0] * len(neg), width)
        zero = ~block.any(axis=1)
        if zero.any():
            bad.append(start * len(neg) + np.flatnonzero(zero))
        if bad:
            continue  # training stops here; only the inseparable pairs matter
        # Distinct rows of the block, then the ones not kept before; both
        # searches run on the sorted keys, inserts keep `pairs` sorted.
        keys, first = np.unique(_row_keys(block), return_index=True)
        known = _row_keys(pairs)
        at = np.searchsorted(known, keys)
        seen = at < len(known)
        seen[seen] = known[at[seen]] == keys[seen]
        new = ~seen
        new_first = first[new]
        new_rank = np.empty(len(new_first), dtype=np.int64)
        new_rank[np.argsort(new_first)] = len(rank) + np.arange(len(new_first))
        pairs = np.insert(pairs, at[new], block[new_first], axis=0)
        rank = np.insert(rank, at[new], new_rank)
    if bad:
        flat = np.concatenate(bad)
        ids = view.record_ids
        bad_pairs = [
            (ids[pos[i]], ids[neg[j]]) for i, j in zip(*np.divmod(flat, len(neg)))
        ]
        raise ContradictionError(
            "opposite-class records are not separable by any cut-point: "
            + "; ".join(f"{a} vs {b}" for a, b in bad_pairs[:5]),
            pairs=bad_pairs,
        )
    return pairs, rank


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One opaque byte-string key per row, for sorting and searching rows."""
    return np.ascontiguousarray(rows).view(np.dtype((np.void, rows.shape[1]))).ravel()


def _column_counts(pairs: np.ndarray, rows: np.ndarray, n_columns: int) -> np.ndarray:
    """Per candidate, how many of the selected packed rows it covers."""
    counts = np.zeros(n_columns, dtype=np.int64)
    step = max(1, _BLOCK_BYTES // max(1, n_columns))
    for start in range(0, pairs.shape[0], step):
        block = pairs[start : start + step][rows[start : start + step]]
        bits = np.unpackbits(block, axis=1, count=n_columns)
        # uint8 sums over runs of 255 rows cannot overflow and are several
        # times cheaper than summing every row into int64.
        runs = bits.shape[0] // 255
        head = bits[: runs * 255].reshape(runs, 255, n_columns).sum(axis=1, dtype=np.uint8)
        counts += head.sum(axis=0, dtype=np.int64)
        counts += bits[runs * 255 :].sum(axis=0, dtype=np.int64)
    return counts


def _column(pairs: np.ndarray, c: int) -> np.ndarray:
    """Bool column `c` of a packed matrix (packbits' big bit order)."""
    return ((pairs[:, c >> 3] >> (7 - (c & 7))) & 1).astype(bool)


def _greedy_cover(pairs: np.ndarray, n_columns: int) -> list[int]:
    """Greedy set cover: most uncovered pairs, ties to the earlier candidate."""
    uncovered = np.ones(pairs.shape[0], dtype=bool)
    left = pairs.shape[0]
    gains = _column_counts(pairs, uncovered, n_columns)
    chosen: list[int] = []
    while left:
        best = int(np.argmax(gains))
        hit = uncovered & _column(pairs, best)
        uncovered &= ~hit
        n_hit = int(hit.sum())
        left -= n_hit
        chosen.append(best)
        # Gains over the still uncovered rows: subtract the newly covered
        # ones, or count the remaining ones afresh when they are fewer.
        if n_hit <= left:
            gains -= _column_counts(pairs, hit, n_columns)
        else:
            gains = _column_counts(pairs, uncovered, n_columns)
    return chosen


def _column_masks(pairs: np.ndarray, n_columns: int) -> list[int]:
    """Per candidate, the pairs it covers as a Python-int bitmask; bit i is
    the i-th distinct pair."""
    return [
        int.from_bytes(np.packbits(_column(pairs, c), bitorder="little").tobytes(), "little")
        for c in range(n_columns)
    ]


def _exact_cover(masks: list[int], full: int, best: list[int]) -> list[int]:
    """Branch and bound on the uncovered-pair count; `best`, a cover, seeds
    the bound. Past `_EXACT_NODE_BUDGET` nodes the best cover so far is kept."""
    order = sorted(range(len(masks)), key=lambda c: -masks[c].bit_count())
    max_cover = max(m.bit_count() for m in masks)
    nodes = 0

    def recurse(idx: int, covered: int, chosen: list[int]):
        nonlocal best, nodes
        nodes += 1
        if nodes > _EXACT_NODE_BUDGET:
            return
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
