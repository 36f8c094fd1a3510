"""Bounded-degree conjunctive pattern mining and DNF cover selection."""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass, replace
from operator import attrgetter
from typing import Iterator, Optional

import numpy as np

from .binarize import BinaryView, Literal, _row_keys
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


def _literal_table(view: BinaryView) -> tuple[list[Literal], np.ndarray, np.ndarray]:
    """Both directions per cut-point column: the literals, one group id per
    (indicator, direction) pair, and one packed truth row per literal.

    The >=-literal holds where the column does; the <=-literal (same
    threshold) where the value is present and below it. Order: column index,
    >= before <=. Row i is `np.packbits` of literal i's truth over the
    records, so bit r of a row (big bit order) is record r.
    """
    literals: list[Literal] = []
    group_ids: dict[tuple[str, str], int] = {}
    groups: list[int] = []
    for cp in view.cutpoints:
        for direction in (">=", "<="):
            literals.append(Literal(cp.indicator, direction, cp.threshold))
            groups.append(group_ids.setdefault((cp.indicator, direction), len(group_ids)))
    present = ~view.missing
    truth = np.empty((len(literals), len(view.record_ids)), dtype=bool)
    truth[0::2] = (view.matrix & present).T
    truth[1::2] = (~view.matrix & present).T
    return literals, np.array(groups, dtype=np.intp), np.packbits(truth, axis=1)


def _conjunctions(
    rows: np.ndarray, groups: np.ndarray, labels: np.ndarray, config: MiningConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The conjunctions of `rows` meeting the floors of `config`, as literal
    index rows padded with -1, in (degree, combinations) order, with their
    positive and negative counts.

    Only frequent conjunctions, those covering a positive and meeting the
    prevalence floor, are extended to the next degree: adding a literal
    never raises coverage, so no other one has an accepted extension.
    """
    pos, neg = np.packbits(labels), np.packbits(~labels)
    total_pos = int(labels.sum())

    def frequent(combos, covers):
        cp = np.bitwise_count(covers & pos).sum(axis=1, dtype=np.int64)
        keep = (cp > 0) & (cp / total_pos + _EPS >= config.min_prevalence)
        return combos[keep], covers[keep], cp[keep]

    found = []
    level = [frequent(np.arange(len(rows))[:, None], rows)]
    for degree in range(1, config.max_degree + 1):
        combos, covers, cp = (np.concatenate(part) for part in zip(*level))
        cn = np.bitwise_count(covers & neg).sum(axis=1, dtype=np.int64)
        pure = cp / (cp + cn) + _EPS >= config.min_homogeneity
        keys = np.full((int(pure.sum()), config.max_degree), -1, dtype=np.intp)
        keys[:, :degree] = combos[pure]
        found.append((keys, cp[pure], cn[pure]))
        if degree == config.max_degree or not len(combos):
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
    an interval (>= plus <=) is allowed. With `prune` set, a pattern is
    dropped when a proper sub-pattern already meets both floors (prime
    patterns only); disable for oracle comparisons.

    Each literal's truth over the records is one packed bit row
    (`np.packbits`); a conjunction's cover is the AND of its rows, and its
    positive and negative counts are `np.bitwise_count` of that cover
    against the packed labels. Degree by degree, candidates are literal
    index rows in `itertools.combinations` order over the literals
    (cut-point column, then >= before <=), so the result keeps that order.
    Only conjunctions covering a positive and meeting the prevalence floor
    are extended to the next degree, as no extension of another one can be
    accepted. Memory is bounded by those conjunctions of two consecutive
    degrees, at 8 x degree + ceil(records / 8) bytes each for their indices
    and packed covers, plus one chunk of candidates: its packed covers take
    at most `_CHUNK_BYTES`, its temporaries a small multiple of that.
    """
    total_pos = view.n_positives
    if total_pos == 0:
        raise DataFormatError("pattern enumeration needs at least one positive record")
    literals, groups, rows = _literal_table(view)
    keys, cp, cn = _conjunctions(rows, groups, view.labels, config)
    if prune:
        prevalence = cp / total_pos
        prime = _prime(prevalence, _best_sub_prevalence(keys, prevalence), config.min_prevalence)
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


def _best_sub_prevalence(keys: np.ndarray, prevalence: np.ndarray) -> np.ndarray:
    """Per listed conjunction, the highest prevalence among the listed
    conjunctions that are its proper sub-conjunctions; -inf when none is.

    `keys` holds one row of literal indices per conjunction, padded with -1;
    a sub-conjunction keeps the order of its literals, as enumeration does.
    """
    best = np.full(len(keys), -np.inf)
    degree = (keys >= 0).sum(axis=1)
    if not (degree > 1).any():
        return best
    listed = _row_keys(keys)
    order = np.argsort(listed)
    listed = listed[order]
    width = keys.shape[1]
    for d in range(2, width + 1):
        rows = np.flatnonzero(degree == d)
        if not len(rows):
            continue
        block = keys[rows]
        for size in range(1, d):
            for kept in itertools.combinations(range(d), size):
                sub = np.full((len(rows), width), -1, dtype=keys.dtype)
                sub[:, :size] = block[:, kept]
                sub_keys = _row_keys(sub)
                at = np.searchsorted(listed, sub_keys).clip(max=len(listed) - 1)
                hit = listed[at] == sub_keys
                best[rows[hit]] = np.maximum(best[rows[hit]], prevalence[order[at[hit]]])
    return best


def _prime(prevalence: np.ndarray, best_sub: np.ndarray, floor: float) -> np.ndarray:
    """Mask of the prime patterns at prevalence `floor`: those meeting it
    none of whose listed proper sub-patterns meets it. A pattern with a
    qualifying sub-pattern always has a prime one: its smallest qualifying
    sub-pattern.
    """
    return (prevalence + _EPS >= floor) & ~(best_sub + _EPS >= floor)


def select_dnf(
    view: BinaryView,
    config: MiningConfig,
    *,
    rating_index: int = 0,
) -> ClassDnf:
    """Greedy minimum cover of the positive records by prime patterns.

    Patterns are enumerated once, unpruned, at the lowest floor the
    relaxation schedule reaches. Each pattern's best proper-sub-pattern
    prevalence in that list is found once, so each floor's prime pool is
    one comparison. Repeatedly takes the pattern covering the most
    uncovered positives; ties go to higher homogeneity, then fewer
    literals, then enumeration order. When the coverage target cannot be
    met, the prevalence floor is relaxed along the schedule, skipping steps
    at or above the current floor, as they could add no coverage. A
    still-unmet target yields a partial DNF with its uncovered records
    flagged.

    Positive covers are one packed matrix built from the literal table, a
    row of ceil(records / 8) bytes per listed pattern, and each pick's
    gains are one `np.bitwise_count` of the pool's rows against the
    still-uncovered bits. Memory beyond enumeration's is that matrix plus
    the literal index rows, 8 x max_degree bytes per pattern.
    """
    labels = view.labels
    target = config.dnf_coverage_target * view.n_positives
    floor = config.min_prevalence
    lowest = replace(config, min_prevalence=min((floor, *config.relaxation_schedule)))
    patterns = enumerate_patterns(view, lowest, prune=False)
    literals, _, rows = _literal_table(view)
    # Literals are looked up by their fields: a dataclass hash runs in Python.
    fields = attrgetter("indicator", "direction", "threshold")
    index = {fields(lit): i for i, lit in enumerate(literals)}
    pad = [-1] * config.max_degree
    keys = np.array(
        [[index[fields(lit)] for lit in p.literals] + pad[p.degree:] for p in patterns],
        dtype=np.intp,
    ).reshape(len(patterns), config.max_degree)
    prevalence = np.array([p.prevalence for p in patterns], dtype=float)
    best_sub = _best_sub_prevalence(keys, prevalence)
    # Row -1 of the table is always true, so padding leaves covers unchanged.
    rows = np.vstack((rows, np.full(rows.shape[1], 0xFF, dtype=np.uint8)))
    covers = np.repeat(np.packbits(labels)[None, :], len(patterns), axis=0)
    for column in keys.T:
        covers &= rows[column]
    homogeneity = np.array([p.homogeneity for p in patterns], dtype=float)
    degree = (keys >= 0).sum(axis=1)
    # lexsort is stable, so enumeration order breaks the remaining ties.
    tie_order = np.lexsort((degree, -homogeneity))

    selected: list[Pattern] = []
    covered = np.zeros(rows.shape[1], dtype=np.uint8)
    n_covered = 0
    relaxations: list[float] = []
    schedule = iter(config.relaxation_schedule)

    while True:
        pool = tie_order[_prime(prevalence, best_sub, floor)[tie_order]]
        while n_covered + _EPS < target:
            gains = np.bitwise_count(covers[pool] & ~covered).sum(axis=1)
            # Gains only shrink, so a pattern with none drops out for good.
            pool, gains = pool[gains > 0], gains[gains > 0]
            if not len(pool):
                break
            # argmax keeps the first of equal gains: the tie order decides.
            best = int(np.argmax(gains))
            selected.append(patterns[pool[best]])
            covered |= covers[pool[best]]
            n_covered += int(gains[best])
        if n_covered + _EPS >= target:
            break
        floor = next((step for step in schedule if step < floor), None)
        if floor is None:
            break
        relaxations.append(floor)

    reached = np.unpackbits(covered, count=len(labels)).astype(bool)
    uncovered = tuple(view.record_ids[i] for i in np.flatnonzero(labels & ~reached))
    return ClassDnf(
        rating_index=rating_index,
        patterns=tuple(selected),
        uncovered=uncovered,
        relaxations=tuple(relaxations),
    )
