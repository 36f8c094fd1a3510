"""Cut-point generation, minimization, and Boolean encoding of records.

A cut-point is a threshold placed between two observed values of one
indicator that belong to opposite binary classes; the induced intervals are
pure. Each cut-point contributes one Boolean column meaning "value >=
threshold"; a missing value, an in-memory NaN included, makes the column
false (the condition cannot be certified).
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass
from itertools import repeat
from typing import Iterator, NamedTuple, Optional, Sequence

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
    so that `>= midpoint` still holds for `b` and not for `a`."""
    order = np.argsort(column)  # NaN sorts last
    present = order[: len(order) - int(np.isnan(column).sum())]
    values = column[present]
    is_start = np.ones(len(values), dtype=bool)
    is_start[1:] = values[1:] != values[:-1]
    starts = np.flatnonzero(is_start)
    runs = values[starts]
    low, high = runs[:-1], runs[1:]
    with np.errstate(over="ignore"):
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
    when its two records' rows are equal, which is checked directly.

    The greedy cover's first gains are counted without unpacking the
    distinct rows. Over all pairs, a candidate true on `p` of the positives
    and `q` of the negatives separates `p (negatives - q) + (positives - p)
    q` of them; the rows of each group's repeats, built anyway to compare
    them, are counted and subtracted. The rows of a group are equal, so
    what is left counts each distinct row once.

    Memory is about 16 bytes per pair (24 for a moment while the hashes
    are sorted), plus the distinct packed rows, ceil(candidates / 64) x 8
    bytes each, plus blocks of about `_BLOCK_BYTES` while rows are built,
    compared and counted.

    Raises ContradictionError when some opposite-class pair is separated by
    no candidate at all; its `pairs` lists every such pair, positive-major.
    """
    candidates = sorted(candidates)
    view = binarize(records, candidates)
    pos = np.flatnonzero(view.labels)
    neg = np.flatnonzero(~view.labels)
    pairs, gains = _distinct_pairs(view, pos, neg)
    if pairs.shape[0] == 0:
        return []
    chosen = _greedy_cover(pairs, gains)
    if pairs.shape[0] * len(candidates) <= exact_cell_limit:
        masks = _column_masks(pairs, len(candidates))
        chosen = _exact_cover(masks, (1 << pairs.shape[0]) - 1, chosen)
    return sorted(candidates[c] for c in chosen)


def _distinct_pairs(
    view: BinaryView, pos: np.ndarray, neg: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The distinct packed XOR rows of all (positive, negative) pairs, in
    first-seen positive-major order, and per candidate how many of them it
    covers.

    Raises ContradictionError when some rows are all zero.
    """
    n_records, n_columns = view.matrix.shape
    width = -(-n_columns // 8)
    # The rows packed into zero-padded 64-bit words, cheaper to XOR and
    # compare; one flat `packbits` over whole words is also cheaper than
    # packing along rows.
    words = -(-n_columns // 64)
    bits = np.zeros((n_records, words * 64), dtype=bool)
    bits[:, :n_columns] = view.matrix
    packed64 = np.packbits(bits).view(np.uint64).reshape(n_records, words)
    if not len(pos) or not len(neg):
        return packed64.view(np.uint8)[:0, :width], np.zeros(n_columns, dtype=np.int64)
    pos_true = view.matrix[pos].sum(axis=0, dtype=np.int64)
    neg_true = view.matrix[neg].sum(axis=0, dtype=np.int64)
    all_pairs = pos_true * (len(neg) - neg_true) + (len(pos) - pos_true) * neg_true
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
        repeats = _repeat_counts(packed64, pos, neg, order, is_start, n_columns)
        if repeats is not None:
            first = np.minimum.reduceat(order, np.flatnonzero(is_start))
            rows = _pair_rows(packed64, pos, neg, np.sort(first)).view(np.uint8)[:, :width]
            return rows, all_pairs - repeats
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


def _repeat_counts(
    packed64: np.ndarray,
    pos: np.ndarray,
    neg: np.ndarray,
    order: np.ndarray,
    is_start: np.ndarray,
    n_columns: int,
) -> Optional[np.ndarray]:
    """Per candidate, how many pairs of `order` that do not start a hash
    group it covers; None when one of them has another row than the pair
    before it, so that some group holds two rows."""
    counts = np.zeros(n_columns, dtype=np.int64)
    for block in _blocks(len(order), packed64):
        at = block.start + np.flatnonzero(~is_start[block])
        rows = _pair_rows(packed64, pos, neg, order[at])
        if (rows != _pair_rows(packed64, pos, neg, order[at - 1])).any():
            return None
        counts += _column_counts(rows.view(np.uint8), np.ones(len(rows), dtype=bool), n_columns)
    return counts


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


def _greedy_cover(pairs: np.ndarray, gains: np.ndarray) -> list[int]:
    """Greedy set cover: most uncovered pairs, ties to the earlier candidate.

    `gains` holds, per candidate, how many rows of `pairs` it covers.
    """
    gains = np.array(gains, dtype=np.int64)
    n_columns = len(gains)
    uncovered = np.ones(pairs.shape[0], dtype=bool)
    left = pairs.shape[0]
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
