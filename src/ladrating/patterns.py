"""Bounded-degree conjunctive pattern mining and DNF cover selection."""

from __future__ import annotations

import heapq
import itertools
import numbers
from dataclasses import dataclass, replace
from typing import Iterator, Optional

import numpy as np

from .binarize import BinaryView, Literal
from .data import CountryRecord
from .errors import DataFormatError

_EPS = 1e-12


@dataclass(frozen=True)
class Pattern:
    """Conjunction of directed threshold literals with coverage statistics.

    Statistics are None on patterns imported from published trees, where the
    training data is unavailable.
    """

    literals: tuple[Literal, ...]
    covered_positives: Optional[int] = None
    covered_negatives: Optional[int] = None
    prevalence: Optional[float] = None
    homogeneity: Optional[float] = None

    @property
    def degree(self) -> int:
        return len(self.literals)

    def matches(self, record: CountryRecord) -> bool:
        return all(lit.evaluate(record) for lit in self.literals)

    def __str__(self) -> str:
        return "(" + ", ".join(str(lit) for lit in self.literals) + ")"


@dataclass(frozen=True)
class ClassDnf:
    """OR of patterns for one cumulative class boundary k (classes 1..k).

    `uncovered` lists positive training records no selected pattern reaches;
    `relaxations` the prevalence floors that had to be applied to get there.
    """

    rating_index: int
    patterns: tuple[Pattern, ...]
    uncovered: tuple[str, ...] = ()
    relaxations: tuple[float, ...] = ()

    def matches(self, record: CountryRecord) -> bool:
        return any(p.matches(record) for p in self.patterns)


@dataclass(frozen=True)
class MiningConfig:
    """Pattern mining knobs; defaults are degree 3, prevalence 0.70,
    homogeneity 1.0 with full positive coverage.

    A relaxation step of 0.0 means "any pattern covering at least one
    positive record".
    """

    max_degree: int = 3
    min_prevalence: float = 0.70
    min_homogeneity: float = 1.0
    dnf_coverage_target: float = 1.0
    relaxation_schedule: tuple[float, ...] = (0.40, 0.20, 0.0)

    def __post_init__(self):
        degree = self.max_degree
        if isinstance(degree, bool) or not isinstance(degree, numbers.Integral) or degree < 1:
            raise DataFormatError(f"max_degree must be an integer >= 1, got {degree!r}")
        names = ("min_prevalence", "min_homogeneity", "dnf_coverage_target")
        floors = [(name, getattr(self, name)) for name in names]
        floors += [("relaxation_schedule step", v) for v in self.relaxation_schedule]
        for name, v in floors:
            # Type first: a None or a string must not reach the comparison.
            if isinstance(v, bool) or not isinstance(v, numbers.Real) or not 0.0 <= v <= 1.0:
                raise DataFormatError(f"{name} must be a number in [0, 1], got {v!r}")


#: Byte budget of one chunk of candidate conjunctions: their gathered packed
#: truth rows while they are ANDed and counted.
_CHUNK_BYTES = 1 << 20


def _literal_rows(view: BinaryView) -> np.ndarray:
    """One packed truth row per literal, both directions per cut-point
    column: row 2j is where column j's >=-literal holds, row 2j + 1 where
    its <=-literal (same threshold) does, that is where the value is present
    and below it. Row i is `np.packbits` of literal i's truth over the
    records, so bit r of a row (big bit order) is record r.
    """
    present = ~view.missing
    truth = np.empty((2 * len(view.cutpoints), len(view.record_ids)), dtype=bool)
    truth[0::2] = (view.matrix & present).T
    truth[1::2] = (~view.matrix & present).T
    return np.packbits(truth, axis=1)


def _literal_table(view: BinaryView) -> tuple[list[Literal], np.ndarray, np.ndarray]:
    """The literals in `_literal_rows` order, one group id per (indicator,
    direction) pair, and their packed truth rows."""
    literals: list[Literal] = []
    group_ids: dict[tuple[str, str], int] = {}
    groups: list[int] = []
    for cp in view.cutpoints:
        for direction in (">=", "<="):
            literals.append(Literal(cp.indicator, direction, cp.threshold))
            groups.append(group_ids.setdefault((cp.indicator, direction), len(group_ids)))
    return literals, np.array(groups, dtype=np.intp), _literal_rows(view)


def _conjunctions(
    rows: np.ndarray, groups: np.ndarray, labels: np.ndarray, config: MiningConfig, prune: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The conjunctions of `rows` meeting the floors of `config`, as literal
    index rows padded with -1 to the widest possible one, in (degree,
    combinations) order, with their positive and negative counts.

    Only frequent conjunctions, those covering a positive and meeting the
    prevalence floor, are extended to the next degree: adding a literal
    never raises coverage, so no other one has an accepted extension. With
    `prune` set, a conjunction that meets both floors is not extended
    either: each extension has it as a sub-pattern of at least its
    prevalence, so is never prime.
    """
    pos, neg = np.packbits(labels), np.packbits(~labels)
    total_pos = int(labels.sum())
    # A conjunction takes at most one literal of each (indicator, direction)
    # group.
    n_groups = int(groups.max()) + 1 if len(groups) else 0
    width = max(1, min(config.max_degree, n_groups))

    def frequent(combos, covers):
        cp = np.bitwise_count(covers & pos).sum(axis=1, dtype=np.int64)
        keep = (cp > 0) & (cp / total_pos + _EPS >= config.min_prevalence)
        return combos[keep], covers[keep], cp[keep]

    found = []
    level = [frequent(np.arange(len(rows))[:, None], rows)]
    for degree in range(1, width + 1):
        combos, covers, cp = (np.concatenate(part) for part in zip(*level))
        cn = np.bitwise_count(covers & neg).sum(axis=1, dtype=np.int64)
        pure = cp / (cp + cn) + _EPS >= config.min_homogeneity
        keys = np.full((int(pure.sum()), width), -1, dtype=np.intp)
        keys[:, :degree] = combos[pure]
        found.append((keys, cp[pure], cn[pure]))
        if prune:
            combos, covers = combos[~pure], covers[~pure]
        if degree == width or not len(combos):
            break
        level = [frequent(*chunk) for chunk in _extensions(combos, covers, rows, groups)]
        if not level:
            break
    keys, cp, cn = (np.concatenate(part) for part in zip(*found))
    return keys, cp, cn


def _extensions(
    prefixes: np.ndarray, covers: np.ndarray, rows: np.ndarray, groups: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Each prefix conjunction (literal index row, packed cover) extended by
    every later literal of a group it lacks, in combinations order, as
    chunks of (index rows, packed covers) of at most `_CHUNK_BYTES` of
    covers. A second literal of one (indicator, direction) group is
    redundant.
    """
    n_literals, width = rows.shape
    per_chunk = max(1, _CHUNK_BYTES // max(1, width))
    # Prefix i extends by literals last[i] + 1 onwards, which are flat
    # indices ends[i] - counts[i] onwards.
    last = prefixes[:, -1]
    counts = n_literals - 1 - last
    ends = np.cumsum(counts)
    offset = ends - counts - last - 1
    for lo in range(0, int(ends[-1]), per_chunk):
        flat = np.arange(lo, min(lo + per_chunk, int(ends[-1])))
        p = np.searchsorted(ends, flat, side="right")
        j = flat - offset[p]
        fresh = (groups[prefixes[p]] != groups[j, None]).all(axis=1)
        p, j = p[fresh], j[fresh]
        yield np.concatenate((prefixes[p], j[:, None]), axis=1), covers[p] & rows[j]


def enumerate_patterns(
    view: BinaryView, config: MiningConfig, *, prune: bool = True
) -> list[Pattern]:
    """All degree-<=maxDegree conjunctions meeting the prevalence and
    homogeneity floors, in (degree, literal-order) order.

    A pattern must cover at least one positive record. Two literals on the
    same indicator with the same direction are redundant and never combined;
    an interval (>= plus <=) is allowed, and no conjunction is longer than
    the number of (indicator, direction) groups. With `prune` set, a pattern
    is dropped when a proper sub-pattern already meets both floors (prime
    patterns only); disable for oracle comparisons.

    Each literal's truth over the records is one packed bit row
    (`np.packbits`); a conjunction's cover is the AND of its rows, and its
    positive and negative counts are `np.bitwise_count` of that cover
    against the packed labels. Degree by degree, candidates are literal
    index rows in `itertools.combinations` order over the literals
    (cut-point column, then >= before <=), so the result keeps that order.
    Only conjunctions covering a positive and meeting the prevalence floor
    are extended to the next degree, as no extension of another one can be
    accepted; with `prune` set, patterns are not extended either, and a
    listed conjunction with a listed proper sub-conjunction is dropped. The
    smallest pattern inside a non-prime conjunction has only non-pattern
    prefixes, so it is always listed. Memory is bounded by those
    conjunctions of two consecutive degrees, at 8 x degree + ceil(records /
    8) bytes each for their indices and packed covers, plus one chunk of
    candidates: its packed covers take at most `_CHUNK_BYTES`, its
    temporaries a small multiple of that.
    """
    total_pos = view.n_positives
    if total_pos == 0:
        raise DataFormatError("pattern enumeration needs at least one positive record")
    literals, groups, rows = _literal_table(view)
    keys, cp, cn = _conjunctions(rows, groups, view.labels, config, prune)
    if prune:
        prime = ~_has_listed_sub(keys)
        keys, cp, cn = keys[prime], cp[prime], cn[prime]
    return [
        Pattern(
            literals=tuple(literals[i] for i in row if i >= 0),
            covered_positives=c_p,
            covered_negatives=c_n,
            prevalence=c_p / total_pos,
            homogeneity=c_p / (c_p + c_n),
        )
        for row, c_p, c_n in zip(keys.tolist(), cp.tolist(), cn.tolist())
    ]


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One opaque byte-string key per row, for sorting and searching rows."""
    width = rows.shape[1] * rows.itemsize
    return np.ascontiguousarray(rows).view(np.dtype((np.void, width))).ravel()


def _has_listed_sub(keys: np.ndarray) -> np.ndarray:
    """Mask of the listed conjunctions that have a listed proper
    sub-conjunction.

    `keys` holds one row of literal indices per conjunction, padded with -1,
    as pruned enumeration lists them: a sub-conjunction keeps the order of
    its literals, and no prefix of a listed conjunction is listed, since a
    pattern is never extended. So only the other sub-conjunctions are
    looked up, all of one degree's in one search.
    """
    found = np.zeros(len(keys), dtype=bool)
    degree = (keys >= 0).sum(axis=1)
    if not (degree > 1).any():
        return found
    listed = np.sort(_row_keys(keys))
    width = keys.shape[1]
    for d in range(2, width + 1):
        rows = np.flatnonzero(degree == d)
        if not len(rows):
            continue
        block = keys[rows]
        # Combinations are increasing, so a prefix is one ending at size - 1.
        kept = [
            k
            for size in range(1, d)
            for k in itertools.combinations(range(d), size)
            if k[-1] != size - 1
        ]
        subs = np.full((len(rows), len(kept), width), -1, dtype=keys.dtype)
        for i, k in enumerate(kept):
            subs[:, i, :len(k)] = block[:, k]
        sub_keys = _row_keys(subs.reshape(-1, width))
        at = np.searchsorted(listed, sub_keys).clip(max=len(listed) - 1)
        found[rows] = (listed[at] == sub_keys).reshape(len(rows), len(kept)).any(axis=1)
    return found


def select_dnf(
    view: BinaryView,
    config: MiningConfig,
    *,
    rating_index: int = 0,
) -> ClassDnf:
    """Greedy minimum cover of the positive records by prime patterns.

    The prime patterns are enumerated once, at the lowest floor the
    relaxation schedule reaches. A pattern is prime at a higher floor
    exactly when it is prime at the lowest and meets that floor, since its
    sub-patterns cover at least its positives; so a pattern joins the pool
    when the floor reaches its prevalence. Repeatedly takes the pattern
    covering the most uncovered positives; ties go to higher homogeneity,
    then fewer literals, then enumeration order. When the coverage target
    cannot be met, the prevalence floor is relaxed along the schedule,
    skipping steps at or above the current floor, as they could add no
    coverage. A still-unmet target yields a partial DNF with its uncovered
    records flagged.

    Covers are Python ints over the records (bit r of a packed row), built
    from the packed literal rows: with prime patterns only, the pool is
    small enough that per-pattern work in Python costs less than per-pick
    numpy calls. The pool is a heap keyed by gain and the tie order. Gains
    only shrink, so a stale gain is an upper bound: the top is taken when
    its gain, recounted, is unchanged, and pushed back otherwise (lazy
    greedy). Memory beyond enumeration's is one cover of ceil(records / 8)
    bytes per prime pattern.
    """
    labels = view.labels
    target = config.dnf_coverage_target * view.n_positives
    floor = config.min_prevalence
    lowest = replace(config, min_prevalence=min((floor, *config.relaxation_schedule)))
    patterns = enumerate_patterns(view, lowest)
    truth = [int.from_bytes(row.tobytes(), "big") for row in _literal_rows(view)]
    column = {(cp.indicator, cp.threshold): j for j, cp in enumerate(view.cutpoints)}
    packed = np.packbits(labels)
    uncovered = int.from_bytes(packed.tobytes(), "big")
    covers = []
    for p in patterns:
        cover = uncovered
        for lit in p.literals:
            cover &= truth[2 * column[lit.indicator, lit.threshold] + (lit.direction == "<=")]
        covers.append(cover)
    joining = sorted(range(len(patterns)), key=lambda i: -patterns[i].prevalence)
    joined = 0
    heap: list[tuple[int, float, int, int]] = []

    def push(gain: int, i: int) -> None:
        p = patterns[i]
        heapq.heappush(heap, (-gain, -p.homogeneity, p.degree, i))

    selected: list[Pattern] = []
    n_covered = 0
    relaxations: list[float] = []
    schedule = iter(config.relaxation_schedule)

    while True:
        while joined < len(joining) and patterns[joining[joined]].prevalence + _EPS >= floor:
            i = joining[joined]
            joined += 1
            gain = (covers[i] & uncovered).bit_count()
            if gain:
                push(gain, i)
        while heap and n_covered + _EPS < target:
            stale, _, _, i = heapq.heappop(heap)
            gain = (covers[i] & uncovered).bit_count()
            if gain == -stale:
                selected.append(patterns[i])
                uncovered &= ~covers[i]
                n_covered += gain
            elif gain:
                push(gain, i)
        if n_covered + _EPS >= target:
            break
        floor = next((step for step in schedule if step < floor), None)
        if floor is None:
            break
        relaxations.append(floor)

    missed = np.unpackbits(
        np.frombuffer(uncovered.to_bytes(len(packed), "big"), dtype=np.uint8), count=len(labels)
    )
    return ClassDnf(
        rating_index=rating_index,
        patterns=tuple(selected),
        uncovered=tuple(view.record_ids[i] for i in np.flatnonzero(missed)),
        relaxations=tuple(relaxations),
    )
