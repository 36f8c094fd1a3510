"""Cut-point generation, minimization, and Boolean encoding of records.

A cut-point is a threshold placed between two observed values of one
indicator that belong to opposite binary classes; the induced intervals are
pure. Each cut-point contributes one Boolean column meaning "value >=
threshold"; a missing value, an in-memory NaN included, makes the column
false (the condition cannot be certified).
"""

from __future__ import annotations

import copy
import math
import random
from dataclasses import dataclass
from itertools import repeat
from typing import Iterator, NamedTuple, Sequence

from ._numpy import np
from .data import CountryRecord, format_value, value_matrix
from .errors import ContradictionError

#: (record, is_positive) pairs, the unit the binarizer works on.
LabeledRecords = Sequence[tuple[CountryRecord, bool]]


class CutPoint(NamedTuple):
    indicator: str
    threshold: float


class Literal(NamedTuple):
    """Directed threshold comparison. Missing values never satisfy it.

    A tuple subclass, like `CutPoint`: it unpacks, equals the plain tuple
    of its fields, and sorts and hashes as that tuple. Mining keys each
    truth row by the literal itself, and the first-match table holds the
    patterns' own literals.
    """

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

    `matrix[i, j]` is the >=-literal of cut-point j evaluated on record i,
    `at_most[i, j]` its <=-literal (same threshold); a missing value makes
    both false, as in `Literal.evaluate`.
    """

    record_ids: tuple[str, ...]
    matrix: np.ndarray  # bool, shape (n_records, n_cutpoints)
    at_most: np.ndarray  # bool, same shape
    labels: np.ndarray  # bool, shape (n_records,)
    cutpoints: tuple[CutPoint, ...]

    @property
    def n_positives(self) -> int:
        return int(self.labels.sum())


class StageRecords(Sequence[tuple[CountryRecord, bool]]):
    """One stage's labeled records over a value matrix that stages share.

    A read-only sequence of `(record, is_positive)` pairs, like any
    `LabeledRecords`, that also holds:

    - `values`: the records x `codes` float matrix of `value_matrix`, NaN
      for a missing value, so an in-memory NaN is missing too;
    - `labels`: a bool array, True for a positive record;
    - `record_ids`, in record order;
    - `columns`: per code, its column presorted (one `argsort`): the rows
      with a value in ascending value order, the positions among them where
      a run of equal values starts, and the midpoints between consecutive
      runs.

    `with_labels` gives another stage over the same matrix and presorted
    columns, so a training builds them once, however many stages it has.
    Memory is 8 bytes per matrix cell plus about 24 per present value.
    """

    def __init__(
        self, records: Sequence[CountryRecord], codes: Sequence[str], labels: Sequence[bool]
    ):
        self.records = tuple(records)
        self.codes = tuple(codes)
        self.values = value_matrix(self.records, self.codes)
        self.labels = np.asarray(labels, dtype=bool)
        self.record_ids = tuple(r.record_id for r in self.records)
        self.columns = {code: _presorted(self.values[:, j]) for j, code in enumerate(self.codes)}

    def with_labels(self, labels: Sequence[bool]) -> StageRecords:
        """The same records, matrix and presorted columns under `labels`."""
        stage = copy.copy(self)
        stage.labels = np.asarray(labels, dtype=bool)
        return stage

    def __len__(self) -> int:
        return len(self.records)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(zip(self.records[i], self.labels[i].tolist()))
        return self.records[i], bool(self.labels[i])

    def __iter__(self) -> Iterator[tuple[CountryRecord, bool]]:
        return zip(self.records, self.labels.tolist())


def _presorted(column: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows with a value in ascending value order, the positions among
    them where a run of equal values starts, and the midpoints between
    consecutive runs.

    A midpoint is `(a + b) / 2`, except where `a + b` overflows (finite
    values above about 8.9e307), where it is `a / 2 + b / 2`: halving is
    exact there, so that is the same midpoint, rounded once. Between two
    adjacent floats the midpoint rounds onto one of them; it is then `b`,
    so that `>= midpoint` still holds for `b` and not for `a`. Between -inf
    and inf there is none (their sum is NaN), and it is `b` too."""
    order = np.argsort(column)  # NaN sorts last
    present = order[: len(order) - int(np.isnan(column).sum())]
    values = column[present]
    is_start = np.ones(len(values), dtype=bool)
    is_start[1:] = values[1:] != values[:-1]
    starts = np.flatnonzero(is_start)
    runs = values[starts]
    low, high = runs[:-1], runs[1:]
    with np.errstate(over="ignore", invalid="ignore"):
        midpoints = (low + high) / 2.0
    over = np.isinf(midpoints)  # an infinite run gives the same either way
    midpoints[over] = low[over] / 2.0 + high[over] / 2.0
    return present, starts, np.where(midpoints > low, midpoints, high)


def _as_stage(records: LabeledRecords, codes: Sequence[str]) -> StageRecords:
    """`records` as a `StageRecords` that holds `codes`: plain pairs, or a
    stage lacking one of them, are read into a new one once."""
    if isinstance(records, StageRecords) and records.columns.keys() >= set(codes):
        return records
    labeled = list(records)
    return StageRecords(
        [r for r, _ in labeled], list(dict.fromkeys(codes)), [label for _, label in labeled]
    )


def all_candidate_cutpoints(
    records: LabeledRecords, indicators: Sequence[str]
) -> list[CutPoint]:
    """All class-boundary cut-points, midpoint placement, merged in
    indicator order.

    For each indicator, one candidate between every adjacent pair of
    observed values whose classes differ; the resulting intervals are pure.
    An indicator carried by one class only (or by nobody) contributes
    nothing. A missing value or a NaN is not observed.

    Works on the presorted columns of a `StageRecords` (plain pairs are read
    into one first): a `reduceat` over each run of equal values tells which
    classes carry that value, and a candidate is the midpoint between two
    consecutive runs where a positive faces a negative.
    """
    stage = _as_stage(records, indicators)
    cuts: list[CutPoint] = []
    for code in indicators:
        present, starts, midpoints = stage.columns[code]
        labels = stage.labels[present]
        pos = np.logical_or.reduceat(labels, starts)
        neg = ~np.logical_and.reduceat(labels, starts)
        # Opposite classes face each other across the gap after run i.
        faces = (pos[:-1] & neg[1:]) | (neg[:-1] & pos[1:])
        cuts += map(CutPoint, repeat(code), midpoints[faces].tolist())
    return cuts


def binarize(records: LabeledRecords, cutpoints: Sequence[CutPoint]) -> BinaryView:
    """Encode labeled records over `cutpoints`.

    Compares the value-matrix column of each cut-point's indicator with its
    threshold (plain pairs are read into a `StageRecords` first). A value
    is missing when the record has none or an in-memory NaN: both literals
    are false there, as `Literal.evaluate`, `classify` and `first_match`
    have them, since NaN fails both compares. Memory is the two records x
    cut-points bool matrices plus one float matrix of the same shape while
    comparing.
    """
    stage = _as_stage(records, [cp.indicator for cp in cutpoints])
    column = {code: j for j, code in enumerate(stage.codes)}
    values = stage.values[:, [column[cp.indicator] for cp in cutpoints]]
    thresholds = np.array([cp.threshold for cp in cutpoints], dtype=float)
    return BinaryView(
        stage.record_ids,
        values >= thresholds,
        values <= thresholds,
        stage.labels,
        tuple(cutpoints),
    )


#: Byte budget of one block of pair intervals while repeats are checked.
_BLOCK_BYTES = 1 << 24

#: Hash seeds `_distinct_pairs` tries before it gives up. A 64-bit collision
#: under one seed is already rare, so running out means a broken hash.
_MAX_SEEDS = 64

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
    greedy's but may not be minimal. A candidate with a NaN threshold holds
    for no record, so it is dropped first.

    Sorted by threshold, an indicator's >=-literals hold on a prefix of its
    candidates, as long as the record's rank. So a pair's separating
    candidates on one indicator are the interval [lo, hi) between its two
    records' ranks, as candidate indices; an empty one is stored as [0, 0).
    A candidate's greedy gain is how many uncovered distinct pairs have it
    inside an interval: one difference array over the `lo` and `hi` bounds.

    Pairs are deduped without building intervals for every pair. Each
    record gets a 64-bit hash, the XOR of one pseudo-random word per
    candidate (`_hash_words`) over its true columns: per indicator, a
    prefix XOR up to its rank. The hash is linear over XOR, so a pair's
    separating set hashes to the XOR of its two records' hashes: one outer
    XOR over positives x negatives. One sort of the pair hashes groups the
    pairs, and only each group's first-seen pair is kept. Pairs with
    different hashes have different intervals, and every other pair of a
    group is compared with the pair before it in the group, so the result
    is exact; a mismatch (a 64-bit collision) starts over with the words of
    the next seed, up to `_MAX_SEEDS` seeds. A pair hashing to 0 is
    inseparable exactly when its two records' ranks are equal, which is
    checked directly.

    Memory is about 16 bytes per pair (24 for a moment while the hashes
    are sorted), plus 8 bytes per indicator per distinct pair, plus blocks
    of about `_BLOCK_BYTES` while repeats are compared.

    Raises ContradictionError when some opposite-class pair is separated by
    no candidate at all; its `pairs` lists every such pair, positive-major.
    Raises RuntimeError, an internal fault, when the dedupe runs out of
    seeds or a greedy pick covers no pair: a broken hash or interval test,
    never the input, so it fails instead of looping.
    """
    candidates = sorted(cp for cp in candidates if not math.isnan(cp.threshold))
    view = binarize(records, candidates)
    pos = np.flatnonzero(view.labels)
    neg = np.flatnonzero(~view.labels)
    lo, hi = _distinct_pairs(view, pos, neg)
    n_pairs = lo.shape[1]
    if n_pairs == 0:
        return []
    chosen = _greedy_cover(lo, hi, len(candidates))
    if n_pairs * len(candidates) <= exact_cell_limit:
        covers = _covers(lo, hi, np.arange(len(candidates))[:, None, None])
        masks = [
            int.from_bytes(row.tobytes(), "little")
            for row in np.packbits(covers, axis=1, bitorder="little")
        ]
        chosen = _exact_cover(masks, (1 << n_pairs) - 1, chosen)
    return sorted(candidates[c] for c in chosen)


def _distinct_pairs(
    view: BinaryView, pos: np.ndarray, neg: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The `lo` and `hi` bounds (indicators x distinct pairs) of the
    distinct (positive, negative) pairs, in first-seen positive-major order.

    Raises ContradictionError when some pairs have only empty intervals,
    and RuntimeError when no seed of `_MAX_SEEDS` dedupes the pairs.
    """
    codes = [cp.indicator for cp in view.cutpoints]
    first = np.array([codes.index(code) for code in dict.fromkeys(codes)], dtype=np.int32)
    # Per indicator and record, the candidate index past its true prefix.
    # Indicator-major, so reductions over indicators are row operations.
    ends = np.add.reduceat(view.matrix, first, axis=1, dtype=np.int32) + first
    ends = np.ascontiguousarray(ends.T)
    if not len(pos) or not len(neg):
        return ends[:, :0], ends[:, :0]
    for seed in range(_MAX_SEEDS):
        record_hash = _record_hashes(ends, first, view.matrix.shape[1], seed)
        pair_hash = (record_hash[pos, None] ^ record_hash[None, neg]).ravel()
        # Equal ranks hash to 0 under every seed, so confirming the pairs
        # that hash to 0 finds every inseparable pair.
        zero = np.flatnonzero(pair_hash == 0)
        bad = zero[~_pair_intervals(ends, pos, neg, zero)[1].any(axis=0)]
        if len(bad):
            ids = view.record_ids
            bad_pairs = [
                (ids[pos[i]], ids[neg[j]]) for i, j in zip(*np.divmod(bad, len(neg)))
            ]
            raise ContradictionError(
                "opposite-class records are not separable by any cut-point: "
                + "; ".join(f"{a} vs {b}" for a, b in bad_pairs[:5]),
                pairs=bad_pairs,
            )
        order = np.argsort(pair_hash)
        pair_hash = pair_hash[order]
        is_start = np.r_[True, pair_hash[1:] != pair_hash[:-1]]
        del pair_hash
        if _repeats_match(ends, pos, neg, order, is_start):
            kept = np.minimum.reduceat(order, np.flatnonzero(is_start))
            return _pair_intervals(ends, pos, neg, np.sort(kept))
    raise RuntimeError(f"pair hashes collided under {_MAX_SEEDS} seeds in a row")


def _hash_words(n_columns: int, seed: int) -> np.ndarray:
    """One pseudo-random 64-bit word per candidate column."""
    return np.frombuffer(random.Random(seed).randbytes(8 * n_columns), dtype=np.uint64)


def _record_hashes(
    ends: np.ndarray, first: np.ndarray, n_columns: int, seed: int
) -> np.ndarray:
    """Per record, the XOR of its true columns' `_hash_words`: per
    indicator, the XOR of the words from `first` up to `ends`, as a
    difference of prefix XORs."""
    prefix = np.zeros(n_columns + 1, dtype=np.uint64)
    prefix[1:] = np.bitwise_xor.accumulate(_hash_words(n_columns, seed))
    return np.bitwise_xor.reduce(prefix[ends] ^ prefix[first, None], axis=0)


def _pair_intervals(
    ends: np.ndarray, pos: np.ndarray, neg: np.ndarray, flat: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The `lo` and `hi` bounds of the pairs at flat positive-major indices
    `flat`, with every empty interval as [0, 0)."""
    i = flat // len(neg)
    j = flat - i * len(neg)
    a, b = np.take(ends, pos[i], axis=1), np.take(ends, neg[j], axis=1)
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    empty = lo == hi
    lo[empty] = 0
    hi[empty] = 0
    return lo, hi


def _repeats_match(
    ends: np.ndarray, pos: np.ndarray, neg: np.ndarray, order: np.ndarray, is_start: np.ndarray
) -> bool:
    """Whether every pair of `order` that does not start a hash group has the
    intervals of the pair before it, so that each group holds one set."""
    step = max(1, _BLOCK_BYTES // max(1, 2 * ends.shape[0] * ends.itemsize))
    for start in range(0, len(order), step):
        at = start + np.flatnonzero(~is_start[start : start + step])
        lo, hi = _pair_intervals(ends, pos, neg, order[at])
        before_lo, before_hi = _pair_intervals(ends, pos, neg, order[at - 1])
        if (lo != before_lo).any() or (hi != before_hi).any():
            return False
    return True


def _covers(lo: np.ndarray, hi: np.ndarray, c) -> np.ndarray:
    """Per pair, whether candidate `c` lies inside one of its intervals; `c`
    is an index, or an array of them shaped (candidates, 1, 1)."""
    return ((lo <= c) & (c < hi)).any(axis=-2)


def _gains(lo: np.ndarray, hi: np.ndarray, n_columns: int) -> np.ndarray:
    """Per candidate, how many pairs it covers: the intervals opened minus
    those closed up to it."""
    opened = np.bincount(lo.ravel(), minlength=n_columns + 1)
    closed = np.bincount(hi.ravel(), minlength=n_columns + 1)
    return np.cumsum(opened - closed)[:n_columns]


def _greedy_cover(lo: np.ndarray, hi: np.ndarray, n_columns: int) -> list[int]:
    """Greedy set cover: most uncovered pairs, ties to the earlier candidate.
    Raises RuntimeError when a pick covers no remaining pair, which only
    intervals that disagree with `_gains` can cause."""
    chosen: list[int] = []
    while lo.shape[1]:
        best = int(np.argmax(_gains(lo, hi, n_columns)))
        chosen.append(best)
        left = ~_covers(lo, hi, best)
        if left.all():
            raise RuntimeError(f"greedy pick {best} covers none of {len(left)} pairs")
        lo, hi = np.compress(left, lo, axis=1), np.compress(left, hi, axis=1)
    return chosen


def _exact_cover(masks: list[int], full: int, best: list[int]) -> list[int]:
    """Branch and bound on the uncovered-pair count; `best`, a cover, seeds
    the bound. Past `_EXACT_NODE_BUDGET` nodes the best cover so far is kept."""
    order = sorted(range(len(masks)), key=lambda c: -masks[c].bit_count())
    max_cover = max(m.bit_count() for m in masks)
    nodes = 0

    def recurse(covered: int, chosen: list[int]):
        nonlocal best, nodes
        nodes += 1
        if nodes > _EXACT_NODE_BUDGET:
            return
        if covered == full:
            if len(chosen) < len(best):
                best = list(chosen)
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
                recurse(covered | masks[c], chosen)
                chosen.pop()

    recurse(0, [])
    return best
