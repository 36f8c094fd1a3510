import importlib
import itertools
import math
import random
import time
from typing import Sequence

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ladrating import (
    BinaryView,
    ContradictionError,
    CountryRecord,
    CutPoint,
    DataFormatError,
    Literal,
    all_candidate_cutpoints,
    binarize,
    minimize_cutpoints,
)
from ladrating.binarize import LabeledRecords, StageRecords


def rec(values, country="x", year=2012):
    return CountryRecord(country, year, values)


def labeled(pairs, indicator="G"):
    return [
        (rec({indicator: v}, country=f"c{i}"), positive)
        for i, (v, positive) in enumerate(pairs)
    ]


# independent oracle: a cut-point subset preserves separation iff every
# opposite-class pair separated by the full set stays separated
def separated_pairs(records, cuts):
    def vector(r):
        return tuple(
            r.values.get(c.indicator) is not None and r.values[c.indicator] >= c.threshold
            for c in cuts
        )

    pairs = set()
    for (a, la), (b, lb) in itertools.combinations(records, 2):
        if la != lb and vector(a) != vector(b):
            pairs.add((a.record_id, b.record_id))
    return pairs


def brute_force_minimum(candidates, records):
    full = separated_pairs(records, candidates)
    for size in range(len(candidates) + 1):
        for subset in itertools.combinations(candidates, size):
            if separated_pairs(records, list(subset)) >= full:
                return list(subset)
    raise AssertionError("unreachable")


# Reference cut points and encoding: the per-record dict walks that the
# value-matrix path replaced, kept verbatim (names prefixed). They read an
# in-memory NaN as a present value; the new path reads it as missing, so
# their inputs have NaN values removed (`_without_nan`).
def _reference_candidate_cutpoints(records: LabeledRecords, indicator: str) -> list[CutPoint]:
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


def _reference_binarize(records: LabeledRecords, cutpoints: Sequence[CutPoint]) -> BinaryView:
    """Encode labeled records over `cutpoints`, one indicator at a time.

    An indicator absent from a record's values is missing; a present value,
    NaN included, is compared against the thresholds (NaN >= t and NaN <= t
    are false).
    """
    n, m = len(records), len(cutpoints)
    matrix = np.zeros((n, m), dtype=bool)
    at_most = np.zeros((n, m), dtype=bool)
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
        at_most[:, js] = (values[:, None] <= thresholds) & present[:, None]
    ids = tuple(rec.record_id for rec, _ in records)
    return BinaryView(ids, matrix, at_most, labels, tuple(cutpoints))


def _without_nan(records):
    """The records with every NaN value dropped, under the same ids."""
    return [
        (rec({c: v for c, v in r.values.items() if not math.isnan(v)}, r.country_id, r.year), label)
        for r, label in records
    ]


# Reference minimizer: the Python-int implementation the numpy one replaced,
# kept verbatim (names prefixed) as the oracle for identical cut lists.
def _reference_minimize(
    candidates,
    records,
    *,
    exact_cell_limit: int = 2000,
):
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
        chosen = _reference_exact_cover(masks, full)
    else:
        chosen = _reference_greedy_cover(masks, full)
    return sorted(candidates[c] for c in chosen)


def _reference_greedy_cover(masks: list[int], full: int) -> list[int]:
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


def _reference_exact_cover(masks: list[int], full: int) -> list[int]:
    """Branch and bound on the uncovered-pair count; greedy seeds the bound."""
    best = _reference_greedy_cover(masks, full)
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


# Reference dedupe: the sort-and-merge `_distinct_pairs` the hashed one
# replaced, kept verbatim as the oracle for identical pair rows.
_BLOCK_BYTES = 1 << 24


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One opaque byte-string key per row, for sorting and searching rows."""
    width = rows.shape[1] * rows.itemsize
    return np.ascontiguousarray(rows).view(np.dtype((np.void, width))).ravel()


def _reference_distinct_pairs(
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


def _outcome(minimize, candidates, records, **kwargs):
    """Cut list, or the contradiction's (message, pairs)."""
    try:
        return minimize(candidates, records, **kwargs)
    except ContradictionError as exc:
        return str(exc), exc.pairs


def _dedupe(dedupe, records, candidates):
    """Distinct pair rows as (dtype, shape, bytes), or the contradiction's
    (message, pairs)."""
    view = binarize(records, sorted(candidates))
    pos, neg = np.flatnonzero(view.labels), np.flatnonzero(~view.labels)
    try:
        rows = dedupe(view, pos, neg)
    except ContradictionError as exc:
        return str(exc), exc.pairs
    return rows.dtype.str, rows.shape, rows.tobytes()


def _reference_rows(view, pos, neg):
    """The reference's distinct rows in first-seen order."""
    pairs, rank = _reference_distinct_pairs(view, pos, neg)
    return pairs[np.argsort(rank)]


def _interval_rows(view, pos, neg):
    """`_distinct_pairs`' intervals as packed bit rows over the sorted
    candidates, after checking that every empty interval is [0, 0)."""
    lo, hi = importlib.import_module("ladrating.binarize")._distinct_pairs(view, pos, neg)
    assert lo.shape == hi.shape == (len({cp.indicator for cp in view.cutpoints}), lo.shape[1])
    assert ((lo < hi) | ((lo == 0) & (hi == 0))).all()
    bits = np.zeros((lo.shape[1], len(view.cutpoints)), dtype=bool)
    for k in range(lo.shape[1]):
        for a, b in zip(lo[:, k], hi[:, k]):
            bits[k, a:b] = True
    return np.packbits(bits, axis=1)


def _gains(records, candidates):
    """`_gains` over `_distinct_pairs`' intervals and the plain column sums
    of the reference's distinct rows, or None for a contradiction."""
    module = importlib.import_module("ladrating.binarize")
    view = binarize(records, sorted(candidates))
    pos, neg = np.flatnonzero(view.labels), np.flatnonzero(~view.labels)
    try:
        lo, hi = module._distinct_pairs(view, pos, neg)
    except ContradictionError:
        return None
    rows = np.unpackbits(_reference_rows(view, pos, neg), axis=1, count=len(candidates))
    return module._gains(lo, hi, len(candidates)).tolist(), rows.sum(axis=0).tolist()


CODES = ("G", "EX", "U")

# Records over three indicators with values on a coarse grid (ties and
# values exactly on a threshold are common) and about a quarter missing.
labeled_records = st.lists(
    st.tuples(
        st.fixed_dictionaries(
            {}, optional={c: st.integers(0, 6).map(float) for c in CODES}
        ),
        st.booleans(),
    ),
    min_size=0,
    max_size=10,
).map(lambda rows: [(rec(v, country=f"c{i}"), l) for i, (v, l) in enumerate(rows)])

cutpoint_lists = st.lists(
    st.builds(CutPoint, st.sampled_from(CODES), st.integers(0, 13).map(lambda t: t / 2)),
    max_size=12,
    unique=True,
)

# Records with every indicator present, for every grid threshold: most
# opposite-class pairs are separable.
dense_records = st.lists(
    st.tuples(
        st.fixed_dictionaries({c: st.integers(0, 6).map(float) for c in CODES}), st.booleans()
    ),
    min_size=2,
    max_size=12,
).map(lambda rows: [(rec(v, country=f"c{i}"), l) for i, (v, l) in enumerate(rows)])
GRID = [CutPoint(c, t / 2) for c in CODES for t in range(14)]


@st.composite
def pair_problems(draw):
    """Labeled records with repeats (copies under new ids, a few with the
    other label), sometimes of one class only, and sometimes no candidates."""
    records, candidates = draw(
        st.one_of(
            st.tuples(labeled_records, cutpoint_lists), st.tuples(dense_records, st.just(GRID))
        )
    )
    copies = draw(st.integers(0, 6))
    one_flipped = draw(st.integers(0, 3)) == 0
    for flip in [False] * copies + [True] * one_flipped:
        if records:
            original, label = records[draw(st.integers(0, len(records) - 1))]
            copy = rec(dict(original.values), country=f"d{len(records)}")
            records.append((copy, label != flip))
    classes = draw(st.sampled_from(["both"] * 14 + ["positive", "negative"]))
    if classes != "both":
        records = [(r, classes == "positive") for r, _ in records]
    if draw(st.integers(0, 7)) == 0:
        candidates = []
    return records, candidates


# 400 distinct pairs, every one separated by G >= 0.5: a gain counted in
# 8 bits would wrap there.
WIDE_PAIRS = (
    [(rec({"G": 1.0, "U": 2.0 * i}, country=f"p{i}"), True) for i in range(20)]
    + [(rec({"G": 0.0, "U": 2.0 * i + 1}, country=f"n{i}"), False) for i in range(20)],
    [CutPoint("G", 0.5)] + [CutPoint("U", k + 0.5) for k in range(39)],
)


@st.composite
def edge_problems(draw):
    """Records that may hold +-inf, and candidates that may have +-inf
    thresholds, with some candidates repeated."""
    value = st.one_of(st.integers(0, 6).map(float), st.sampled_from([-math.inf, math.inf]))
    threshold = st.one_of(
        st.integers(0, 13).map(lambda t: t / 2), st.sampled_from([-math.inf, math.inf])
    )
    rows = draw(
        st.lists(
            st.tuples(st.fixed_dictionaries({}, optional={c: value for c in CODES}), st.booleans()),
            max_size=10,
        )
    )
    candidates = draw(st.lists(st.builds(CutPoint, st.sampled_from(CODES), threshold), max_size=10))
    if candidates:
        candidates += draw(st.lists(st.sampled_from(candidates), max_size=4))
    return [(rec(v, country=f"c{i}"), l) for i, (v, l) in enumerate(rows)], candidates


@st.composite
def oracle_problems(draw):
    """Labeled records (values repeated across both classes, missing values,
    sometimes one class only, now and then a NaN value), cut points, and a
    second labeling of the same records."""
    records = draw(labeled_records)
    if draw(st.integers(0, 3)) == 0:
        positive = draw(st.booleans())
        records = [(r, positive) for r, _ in records]
    records = [
        (
            rec(
                {c: math.nan if draw(st.integers(0, 9)) == 0 else v for c, v in r.values.items()},
                country=r.country_id,
            ),
            label,
        )
        for r, label in records
    ]
    other = draw(st.lists(st.booleans(), min_size=len(records), max_size=len(records)))
    return records, draw(cutpoint_lists), other


def _reference_candidates(records, code):
    """The reference's candidates for `code`, [] where it finds `code`
    absent from all records: `all_candidate_cutpoints` skips that code."""
    try:
        return _reference_candidate_cutpoints(records, code)
    except DataFormatError:
        return []


def _assert_matches_reference(given, records, cutpoints):
    """Candidates and encoding of `given` (plain pairs or a `StageRecords`
    over `records`) equal the references' on `records` without NaN."""
    plain = _without_nan(records)
    assert list(given) == records
    for code in CODES:
        got = all_candidate_cutpoints(given, [code])
        assert got == _reference_candidates(plain, code)
        assert all(type(cp.threshold) is float for cp in got)  # as the exported text needs
    merged = [cp for code in CODES for cp in _reference_candidates(plain, code)]
    assert all_candidate_cutpoints(given, CODES) == merged
    got, want = binarize(given, cutpoints), _reference_binarize(plain, cutpoints)
    assert got.record_ids == want.record_ids
    assert got.cutpoints == want.cutpoints
    for field in ("matrix", "at_most", "labels"):
        a, b = getattr(got, field), getattr(want, field)
        assert (a.dtype, a.shape) == (b.dtype, b.shape)
        assert (a == b).all()


class TestMatrixPath:
    """Candidates and encoding from the value matrix against the per-record
    dict walks they replaced."""

    @given(oracle_problems())
    @settings(max_examples=200, deadline=None)
    def test_plain_pairs_match_reference(self, problem):
        records, cutpoints, _ = problem
        _assert_matches_reference(records, records, cutpoints)

    @given(oracle_problems(), st.integers(1, len(CODES)))
    @settings(max_examples=200, deadline=None)
    def test_stages_sharing_a_matrix_match_reference(self, problem, n_codes):
        # As `train_cascade` builds them: one matrix, relabeled per stage. A
        # stage over fewer codes than the cut points name is read anew.
        records, cutpoints, other = problem
        first = StageRecords([r for r, _ in records], CODES[:n_codes], [l for _, l in records])
        second = first.with_labels(other)
        assert second.values is first.values and second.columns is first.columns
        _assert_matches_reference(first, records, cutpoints)
        relabeled = [(r, label) for (r, _), label in zip(records, other)]
        _assert_matches_reference(second, relabeled, cutpoints)
        assert second[:2] == relabeled[:2]


class TestCandidates:
    def test_midpoint_between_opposite_classes(self):
        cuts = all_candidate_cutpoints(labeled([(3166, False), (7189, True)]), ["G"])
        assert cuts == [CutPoint("G", 5177.5)]

    @pytest.mark.parametrize(
        "low, high",
        [(1.0e308, 1.6e308), (-1.6e308, -1.0e308), (1.7e308, 1.7976931348623157e308), (-1.7e308, 1.7e308)],
    )
    def test_midpoint_of_values_whose_sum_overflows(self, low, high):
        # Halving these is exact, so a / 2 + b / 2 is the midpoint rounded once.
        cuts = all_candidate_cutpoints(labeled([(low, False), (high, True)]), ["G"])
        assert cuts == [CutPoint("G", low / 2 + high / 2)]
        assert low < cuts[0].threshold < high

    @pytest.mark.parametrize(
        "low, high",
        [
            (1.0, 1.0000000000000002),  # the midpoint rounds down onto `low`
            (1.0000000000000002, 1.0000000000000004),  # and up onto `high`
            (-1.0000000000000002, -1.0),
            (0.0, 5e-324),
        ],
    )
    def test_midpoint_of_adjacent_floats_is_the_upper_one(self, low, high):
        # No float lies strictly between them; `>= high` still separates.
        assert math.nextafter(low, math.inf) == high
        for low_positive in (False, True):
            records = labeled([(low, low_positive), (high, not low_positive)])
            assert all_candidate_cutpoints(records, ["G"]) == [CutPoint("G", high)]

    def test_no_midpoint_between_infinities(self):
        # -inf + inf is NaN, with no warning; the cut is the upper value.
        for low_positive in (False, True):
            records = labeled([(-math.inf, low_positive), (math.inf, not low_positive)])
            assert all_candidate_cutpoints(records, ["G"]) == [CutPoint("G", math.inf)]

    def test_single_class_yields_nothing(self):
        assert all_candidate_cutpoints(labeled([(1, True), (2, True), (3, True)]), ["G"]) == []

    def test_alternating_classes(self):
        cuts = all_candidate_cutpoints(labeled([(1, False), (2, True), (3, False)]), ["G"])
        assert [c.threshold for c in cuts] == [1.5, 2.5]

    def test_absent_indicator_yields_nothing(self):
        assert all_candidate_cutpoints(labeled([(1, True), (2, False)]), ["EX"]) == []

    def test_sorted_output(self):
        vals = [(5, True), (1, False), (3, True), (2, False), (9, False)]
        cuts = all_candidate_cutpoints(labeled(vals), ["G"])
        thresholds = [c.threshold for c in cuts]
        assert thresholds == sorted(thresholds)

    @given(st.lists(st.tuples(st.integers(0, 30), st.booleans()), min_size=2, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_purity(self, pairs):
        # one label per value: a value carrying both classes is never pure
        pairs = list({v: (v, l) for v, l in pairs}.values())
        records = labeled([(float(v), l) for v, l in pairs])
        cuts = all_candidate_cutpoints(records, ["G"])
        # every interval between consecutive thresholds holds one class only
        bounds = [float("-inf")] + [c.threshold for c in cuts] + [float("inf")]
        for lo, hi in zip(bounds, bounds[1:]):
            classes = {l for v, l in pairs if lo < v < hi}
            assert len(classes) <= 1


class TestMinimize:
    def test_redundant_candidate_dropped(self):
        records = labeled([(1, False), (2, True), (3, True)])
        # 1.5 alone separates everything; 2.5 is not even a class boundary
        cuts = minimize_cutpoints([CutPoint("G", 1.5), CutPoint("G", 2.5)], records)
        assert cuts == [CutPoint("G", 1.5)]

    def test_single_candidate_kept(self):
        records = labeled([(1, False), (2, True)])
        assert minimize_cutpoints([CutPoint("G", 1.5)], records) == [CutPoint("G", 1.5)]

    def test_identical_values_opposite_classes(self):
        records = labeled([(2, True), (2, False)])
        with pytest.raises(ContradictionError):
            minimize_cutpoints([CutPoint("G", 1.0)], records)

    def _random_instance(self, rng, n_records):
        records = []
        for i in range(n_records):
            values = {}
            for code in ("G", "EX"):
                if rng.random() < 0.9:
                    values[code] = float(rng.randint(0, 8))
            records.append((rec(values, country=f"c{i}"), rng.random() < 0.5))
        candidates = [
            CutPoint(code, t + 0.5) for code in ("G", "EX") for t in range(8)
        ]
        return records, candidates

    def test_exact_matches_brute_force_minimum(self):
        rng = random.Random(5)
        for _ in range(25):
            records, candidates = self._random_instance(rng, n_records=7)
            try:
                got = minimize_cutpoints(candidates, records)
            except ContradictionError:
                continue
            best = brute_force_minimum(candidates, records)
            assert len(got) == len(best)
            assert separated_pairs(records, got) >= separated_pairs(records, candidates)

    def test_separation_preserved_in_greedy_mode(self):
        rng = random.Random(11)
        for _ in range(15):
            records, candidates = self._random_instance(rng, n_records=12)
            try:
                got = minimize_cutpoints(candidates, records, exact_cell_limit=0)
            except ContradictionError:
                continue
            assert separated_pairs(records, got) >= separated_pairs(records, candidates)

    def test_greedy_within_log_factor_of_exact(self):
        import math

        rng = random.Random(23)
        for _ in range(20):
            records, candidates = self._random_instance(rng, n_records=7)
            try:
                exact = minimize_cutpoints(candidates, records)
            except ContradictionError:
                continue
            greedy = minimize_cutpoints(candidates, records, exact_cell_limit=0)
            n_pairs = max(1, len(separated_pairs(records, candidates)))
            assert len(greedy) <= len(exact) * (1 + math.log(n_pairs))

    @given(labeled_records, cutpoint_lists)
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_minimizer(self, records, candidates):
        for limit in (2000, 0, 10**6):
            assert _outcome(
                minimize_cutpoints, candidates, records, exact_cell_limit=limit
            ) == _outcome(_reference_minimize, candidates, records, exact_cell_limit=limit)

    @given(edge_problems())
    @settings(max_examples=100, deadline=None)
    def test_infinities_and_repeats_match_reference_minimizer(self, problem):
        records, candidates = problem
        for limit in (2000, 0, 10**6):
            assert _outcome(
                minimize_cutpoints, candidates, records, exact_cell_limit=limit
            ) == _outcome(_reference_minimize, candidates, records, exact_cell_limit=limit)

    @given(labeled_records, cutpoint_lists, st.data())
    @settings(max_examples=100, deadline=None)
    def test_nan_thresholds_change_nothing(self, records, candidates, data):
        # A NaN threshold holds for no record; inserted anywhere, it must not
        # upset the order the other candidates are sorted in.
        nan = st.builds(CutPoint, st.sampled_from(CODES + ("IM",)), st.just(math.nan))
        mixed = list(candidates)
        for cp in data.draw(st.lists(nan, min_size=1, max_size=4)):
            mixed.insert(data.draw(st.integers(0, len(mixed))), cp)
        for limit in (2000, 0):
            assert _outcome(
                minimize_cutpoints, mixed, records, exact_cell_limit=limit
            ) == _outcome(minimize_cutpoints, candidates, records, exact_cell_limit=limit)

    def test_exact_cover_follows_first_seen_pair_order(self):
        # Two optimal covers exist and greedy finds neither; branching on the
        # earliest uncovered pair in first-seen order picks the reference's.
        rows = [
            ({"G": 0.0, "EX": 3.0}, True),
            ({"G": 2.0, "EX": 2.0, "U": 4.0}, True),
            ({"G": 3.0, "EX": 1.0}, False),
            ({"G": 3.0, "EX": 4.0, "U": 3.0}, False),
            ({"G": 3.0, "EX": 0.0, "U": 2.0}, False),
            ({"G": 1.0, "EX": 0.0, "U": 1.0}, False),
        ]
        records = [(rec(v, country=f"c{i}"), l) for i, (v, l) in enumerate(rows)]
        candidates = [
            CutPoint(code, t)
            for code, ts in (("EX", (0.5, 1.0, 1.5, 3.0)), ("G", (0.5, 2.0)),
                             ("U", (0.0, 0.5, 3.0, 3.5)))
            for t in ts
        ]
        got = minimize_cutpoints(candidates, records)
        assert got == _reference_minimize(candidates, records)
        assert got == [CutPoint("EX", 3.0), CutPoint("U", 3.0)]

    def test_zero_candidates(self):
        records = labeled([(1, True), (2, False), (3, True)])
        for limit in (2000, 0, 10**6):
            got = _outcome(minimize_cutpoints, [], records, exact_cell_limit=limit)
            assert got == _outcome(_reference_minimize, [], records, exact_cell_limit=limit)
            assert got[1] == [("c0:2012", "c1:2012"), ("c2:2012", "c1:2012")]
        assert minimize_cutpoints([], labeled([(1, True), (2, True)])) == []

    def test_blocks_of_one_positive_row(self, monkeypatch):
        rng = random.Random(7)
        instances = [self._random_instance(rng, n_records=12) for _ in range(20)]
        # Two contradictory pairs, both reported whatever the block size.
        clash = labeled([(1, True), (5, True), (1, False), (5, False), (3, False)])
        instances.append((clash, [CutPoint("G", 2.0), CutPoint("G", 4.0)]))
        module = importlib.import_module("ladrating.binarize")
        unblocked = [
            _outcome(minimize_cutpoints, c, r, exact_cell_limit=limit)
            for r, c in instances
            for limit in (2000, 0)
        ]
        monkeypatch.setattr(module, "_BLOCK_BYTES", 1)
        blocked = [
            _outcome(minimize_cutpoints, c, r, exact_cell_limit=limit)
            for r, c in instances
            for limit in (2000, 0)
        ]
        assert blocked == unblocked
        assert unblocked[-1][1] == [("c0:2012", "c2:2012"), ("c1:2012", "c3:2012")]

    @given(pair_problems())
    @settings(max_examples=300, deadline=None)
    def test_distinct_pairs_match_reference(self, problem):
        records, candidates = problem
        got = _dedupe(_interval_rows, records, candidates)
        assert got == _dedupe(_reference_rows, records, candidates)

    @given(pair_problems())
    @example(WIDE_PAIRS)
    @settings(max_examples=300, deadline=None)
    def test_gains_match_distinct_row_sums(self, problem):
        gains = _gains(*problem)
        if gains is not None:
            assert gains[0] == gains[1]

    @given(pair_problems())
    @settings(max_examples=100, deadline=None)
    def test_record_hashes_xor_the_true_columns(self, problem):
        # The prefix-XOR hashes equal the XOR of `_hash_words` over each
        # record's true columns, seed by seed.
        records, candidates = problem
        module = importlib.import_module("ladrating.binarize")
        view = binarize(records, sorted(candidates))
        pos, neg = np.flatnonzero(view.labels), np.flatnonzero(~view.labels)
        seen = []
        real = module._record_hashes

        def spy(ends, first, n_columns, seed):
            seen.append((seed, real(ends, first, n_columns, seed)))
            return seen[-1][1]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(module, "_record_hashes", spy)
            try:
                module._distinct_pairs(view, pos, neg)
            except ContradictionError:
                pass
        assert len(seen) == (len(pos) > 0 and len(neg) > 0)
        for seed, hashes in seen:
            words = module._hash_words(len(candidates), seed)
            plain = np.bitwise_xor.reduce(np.where(view.matrix, words, np.uint64(0)), axis=1)
            assert hashes.dtype == np.uint64
            assert hashes.tolist() == plain.tolist()

    def test_hash_collisions_are_rehashed(self, monkeypatch):
        module = importlib.import_module("ladrating.binarize")
        rng = random.Random(13)
        instances = [self._random_instance(rng, n_records=12) for _ in range(20)]
        clash = labeled([(1, True), (5, True), (1, False), (5, False), (3, False)])
        instances.append((clash, [CutPoint("G", 2.0), CutPoint("G", 4.0)]))

        def outcomes():
            return [
                (
                    _dedupe(_interval_rows, r, c),
                    _outcome(minimize_cutpoints, c, r),
                    _gains(r, c),
                )
                for r, c in instances
            ]

        honest = outcomes()
        # Gains equal the distinct-row sums (None marks a contradiction).
        assert all(g is None or g[0] == g[1] for _, _, g in honest)
        seeds = []
        real = module._hash_words

        def colliding(n_columns, seed):
            # Seed 0 gives every column one word: rows of equal parity collide,
            # and every row of even parity hashes to 0.
            seeds.append(seed)
            if seed == 0:
                return np.full(n_columns, 0x9E3779B97F4A7C15, dtype=np.uint64)
            return real(n_columns, seed)

        monkeypatch.setattr(module, "_hash_words", colliding)
        assert outcomes() == honest
        assert 1 in seeds
        # One pair per block: the check of repeats spans many blocks, and a
        # mismatch in any of them must start over with the next seed.
        monkeypatch.setattr(module, "_BLOCK_BYTES", 1)
        assert outcomes() == honest

    def test_exact_cover_node_budget_keeps_a_greedy_bounded_cover(self):
        # Unbudgeted, this 50-pair x 40-candidate instance at 5% density
        # visits about 4.8 million search nodes (13 s on a 2-vCPU Xeon).
        module = importlib.import_module("ladrating.binarize")
        rng = np.random.default_rng(195)
        bits = rng.random((50, 40)) < 0.05
        for i in np.flatnonzero(~bits.any(axis=1)):
            bits[i, rng.integers(40)] = True
        masks = [sum(1 << int(i) for i in np.flatnonzero(bits[:, c])) for c in range(40)]
        full = (1 << 50) - 1
        greedy = _reference_greedy_cover(masks, full)
        start = time.process_time()
        cover = module._exact_cover(masks, full, greedy)
        assert time.process_time() - start < 5.0
        assert len(cover) <= len(greedy)
        assert bits[:, cover].any(axis=1).all()


class TestBinarize:
    def test_threshold_splits_known_values(self):
        cuts = [CutPoint("G", 5436.0)]
        view = binarize(
            [(rec({"G": 7189.0}), True), (rec({"G": 3166.0}), False)], cuts
        )
        assert view.matrix[0, 0]
        assert not view.matrix[1, 0]

    def test_threshold_is_inclusive(self):
        view = binarize([(rec({"G": 5436.0}), True)], [CutPoint("G", 5436.0)])
        assert view.matrix[0, 0]

    def test_missing_is_false_both_ways(self):
        view = binarize([(rec({}), True)], [CutPoint("G", 5436.0)])
        assert not view.matrix[0, 0]
        assert not view.at_most[0, 0]

    @given(
        st.lists(
            st.tuples(st.integers(0, 9), st.integers(0, 9), st.booleans()),
            min_size=2,
            max_size=10,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_monotone_encoding(self, rows):
        records = [
            (rec({"G": float(g), "EX": float(e)}, country=f"c{i}"), l)
            for i, (g, e, l) in enumerate(rows)
        ]
        cuts = [CutPoint(c, t + 0.5) for c in ("G", "EX") for t in range(9)]
        view = binarize(records, cuts)
        for (i, (ra, _)), (j, (rb, _)) in itertools.permutations(enumerate(records), 2):
            dominates = all(ra.values[c] >= rb.values[c] for c in ("G", "EX"))
            if dominates:
                assert (view.matrix[i] >= view.matrix[j]).all()

    @given(labeled_records, cutpoint_lists)
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_literal_evaluate(self, records, cutpoints):
        view = binarize(records, cutpoints)
        assert view.matrix.shape == view.at_most.shape == (len(records), len(cutpoints))
        for i, (r, label) in enumerate(records):
            assert view.labels[i] == label
            for j, cp in enumerate(cutpoints):
                assert view.matrix[i, j] == Literal(cp.indicator, ">=", cp.threshold).evaluate(r)
                assert view.at_most[i, j] == Literal(cp.indicator, "<=", cp.threshold).evaluate(r)

    def test_in_memory_nan_is_missing(self):
        view = binarize([(rec({"G": float("nan")}), True)], [CutPoint("G", 1.0)])
        assert not view.matrix[0, 0]
        assert not view.at_most[0, 0]
