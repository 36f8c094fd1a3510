"""Cut-point generation, minimization, and Boolean encoding of records.

A cut-point is a threshold placed between two observed values of one
indicator that belong to opposite binary classes; the induced intervals are
pure. Each cut-point contributes one Boolean column meaning "value >=
threshold"; a missing value makes the column false (the condition cannot be
certified).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, Sequence

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
#: checked and built, unpacked bool rows while cover gains are counted.
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

    Pairs are deduped without building a row per pair. Each record's bit
    row gets a 64-bit hash, the XOR of one pseudo-random word per candidate
    (`_hash_words`) over its true columns. The hash is linear over XOR, so a
    pair's row hashes to the XOR of its two records' hashes: one outer XOR
    over positives x negatives. One sort of the pair hashes groups the
    pairs, and only each group's first-seen pair gets a packed row. Pairs
    with different hashes have different rows, and every other pair of a
    group is compared byte for byte with the pair before it in the group,
    so the result is exact; a mismatch (a 64-bit collision) starts over with
    the words of the next seed. A pair hashing to 0 is inseparable exactly
    when its two records' rows are equal, which is checked directly. Memory
    is about 16 bytes per pair (24 for a moment while the hashes are
    sorted), plus the distinct packed rows, ceil(candidates / 64) x 8 bytes
    each, plus blocks of about `_BLOCK_BYTES` while rows are built and
    compared.

    Raises ContradictionError when some opposite-class pair is separated by
    no candidate at all; its `pairs` lists every such pair, positive-major.
    """
    candidates = sorted(candidates)
    view = binarize(records, candidates)
    pos = np.flatnonzero(view.labels)
    neg = np.flatnonzero(~view.labels)
    pairs = _distinct_pairs(view, pos, neg)
    if pairs.shape[0] == 0:
        return []
    chosen = _greedy_cover(pairs, len(candidates))
    if pairs.shape[0] * len(candidates) <= exact_cell_limit:
        masks = _column_masks(pairs, len(candidates))
        chosen = _exact_cover(masks, (1 << pairs.shape[0]) - 1, chosen)
    return sorted(candidates[c] for c in chosen)


def _distinct_pairs(view: BinaryView, pos: np.ndarray, neg: np.ndarray) -> np.ndarray:
    """The distinct packed XOR rows of all (positive, negative) pairs, in
    first-seen positive-major order.

    Raises ContradictionError when some rows are all zero.
    """
    packed = np.packbits(view.matrix, axis=1)
    width = packed.shape[1]
    if not len(pos) or not len(neg):
        return packed[:0]
    # The same rows zero-padded to 64-bit words: cheaper to XOR and compare.
    packed64 = np.zeros((len(packed), -(-width // 8) * 8), dtype=np.uint8)
    packed64[:, :width] = packed
    packed64 = packed64.view(np.uint64)
    seed = 0
    while True:
        record_hash = _record_hashes(view.matrix, seed)
        pair_hash = (record_hash[pos, None] ^ record_hash[None, neg]).ravel()
        # An all-zero row hashes to 0 under every seed, so confirming the
        # pairs that hash to 0 finds every inseparable pair.
        zero = np.flatnonzero(pair_hash == 0)
        bad = zero[np.bitwise_or.reduce(_pair_rows(packed64, pos, neg, zero), axis=1) == 0]
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
        if _repeats_match(packed64, pos, neg, order, is_start):
            first = np.minimum.reduceat(order, np.flatnonzero(is_start))
            return _pair_rows(packed64, pos, neg, np.sort(first)).view(np.uint8)[:, :width]
        seed += 1


def _hash_words(n_columns: int, seed: int) -> np.ndarray:
    """One pseudo-random 64-bit word per candidate column."""
    return np.frombuffer(random.Random(seed).randbytes(8 * n_columns), dtype=np.uint64)


def _record_hashes(matrix: np.ndarray, seed: int) -> np.ndarray:
    """Per bit row, the XOR of its true columns' `_hash_words`."""
    words = _hash_words(matrix.shape[1], seed)
    return np.bitwise_xor.reduce(np.where(matrix, words, np.uint64(0)), axis=1)


def _pair_rows(
    packed64: np.ndarray, pos: np.ndarray, neg: np.ndarray, flat: np.ndarray
) -> np.ndarray:
    """The XOR rows of the pairs at flat positive-major indices `flat`."""
    rows = np.empty((len(flat), packed64.shape[1]), dtype=packed64.dtype)
    for block in _blocks(len(flat), packed64):
        i = flat[block] // len(neg)
        j = flat[block] - i * len(neg)
        rows[block] = np.take(packed64, pos[i], axis=0)
        rows[block] ^= np.take(packed64, neg[j], axis=0)
    return rows


def _blocks(n_pairs: int, packed64: np.ndarray) -> Iterator[slice]:
    """Slices over `n_pairs` pairs, about `_BLOCK_BYTES` of XOR rows each."""
    step = max(1, _BLOCK_BYTES // max(1, packed64.shape[1] * packed64.itemsize))
    return (slice(start, start + step) for start in range(0, n_pairs, step))


def _repeats_match(
    packed64: np.ndarray,
    pos: np.ndarray,
    neg: np.ndarray,
    order: np.ndarray,
    is_start: np.ndarray,
) -> bool:
    """Whether every pair of `order` that does not start a hash group has
    the same row as the pair before it, so each group holds one row."""
    for block in _blocks(len(order), packed64):
        at = block.start + np.flatnonzero(~is_start[block])
        rows = _pair_rows(packed64, pos, neg, order[at])
        if (rows != _pair_rows(packed64, pos, neg, order[at - 1])).any():
            return False
    return True


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
