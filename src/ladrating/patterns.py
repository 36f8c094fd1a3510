"""Bounded-degree conjunctive pattern mining and DNF cover selection."""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass, field, replace
from typing import Optional

from .binarize import BinaryView, Literal, _bit_rows
from .data import CountryRecord
from .errors import DataFormatError

_EPS = 1e-12


@dataclass(frozen=True)
class Pattern:
    """Conjunction of directed threshold literals with coverage statistics.

    Statistics are None on patterns imported from published trees, where the
    training data is unavailable. `cover` is the records of the view the
    pattern was mined from that it holds for, as a Python int (bit r is
    record r); it is None on imported and hand-built patterns, and takes no
    part in equality, hashing or `repr`.
    """

    literals: tuple[Literal, ...]
    covered_positives: Optional[int] = None
    covered_negatives: Optional[int] = None
    prevalence: Optional[float] = None
    homogeneity: Optional[float] = None
    cover: Optional[int] = field(default=None, compare=False, repr=False)

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

    Each literal's truth over the records is a Python int, one per row of
    `view.truth` (`_bit_rows`); a conjunction's cover is the AND of its
    literals' (returned as the pattern's `cover`), its positive count the
    `bit_count` of the cover ANDed with the positives, and its negative
    count the rest of the cover's own `bit_count`. Degree by degree,
    candidates are tuples of literal indices in `itertools.combinations`
    order over `view.literals` (cut point, then >= before <=), so the result
    keeps that order. Only conjunctions covering a positive and meeting the
    prevalence floor are extended to the next degree, as no extension of
    another one can be accepted; with `prune` set, patterns are not extended
    either, and a listed conjunction with a listed proper sub-conjunction is
    dropped. The smallest pattern inside a non-prime conjunction has only
    non-pattern prefixes, so it is always listed. Memory is bounded by the
    frequent conjunctions of two consecutive degrees and the listed
    patterns, each a key plus ceil(records / 8) bytes of cover.
    """
    total_pos = view.n_positives
    if total_pos == 0:
        raise DataFormatError("pattern enumeration needs at least one positive record")
    literals, truth = view.literals, _bit_rows(view.truth)
    [positives] = _bit_rows(view.labels[None])
    groups = [lit[:2] for lit in literals]
    n_literals, max_degree = len(literals), config.max_degree
    # A conjunction is frequent when it covers at least this many positives.
    least = next(
        (c for c in range(1, total_pos + 1) if c / total_pos + _EPS >= config.min_prevalence),
        total_pos + 1,
    )
    min_homogeneity = config.min_homogeneity

    # The conjunctions to extend, as parallel lists: the empty one, then one
    # degree's frequent conjunctions (with `prune`, those not patterns).
    keys: list[tuple[int, ...]] = [()]
    covers = [(1 << len(view.record_ids)) - 1]
    found: list[tuple[tuple[int, ...], int, int, int]] = []
    for degree in range(1, max_degree + 1):
        level = zip(keys, covers)
        keys, covers = [], []
        for key, cover in level:
            used = {groups[i] for i in key}
            for j in range(key[-1] + 1 if key else 0, n_literals):
                if groups[j] in used:
                    continue
                extended = cover & truth[j]
                c_p = (extended & positives).bit_count()
                if c_p < least:
                    continue
                c_n = extended.bit_count() - c_p
                if c_p / (c_p + c_n) + _EPS >= min_homogeneity:
                    found.append((key + (j,), extended, c_p, c_n))
                    if prune:
                        continue
                if degree < max_degree:
                    keys.append(key + (j,))
                    covers.append(extended)
        if not keys:
            break
    if prune:
        listed = {entry[0] for entry in found}
        found = [
            entry
            for entry in found
            if not any(
                sub in listed
                for size in range(1, len(entry[0]))
                for sub in itertools.combinations(entry[0], size)
            )
        ]
    return [
        Pattern(
            literals=tuple(literals[i] for i in key),
            covered_positives=c_p,
            covered_negatives=c_n,
            prevalence=c_p / total_pos,
            homogeneity=c_p / (c_p + c_n),
            cover=cover,
        )
        for key, cover, c_p, c_n in found
    ]


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

    Each prime's positive cover is its enumerated `cover` ANDed with the
    positive records, Python ints with bit r for record r: with prime
    patterns only, the pool is small enough that per-pattern work in Python
    costs less than per-pick numpy calls. At each floor the pool is the primes
    meeting it whose cover still reaches an uncovered positive; a pick
    recounts every member's gain with one AND and one `bit_count`, then
    drops the members that cover nothing still uncovered. Picks are few.
    """
    target = config.dnf_coverage_target * view.n_positives
    floor = config.min_prevalence
    lowest = replace(config, min_prevalence=min((floor, *config.relaxation_schedule)))
    patterns = enumerate_patterns(view, lowest)
    [uncovered] = _bit_rows(view.labels[None])
    covers = [p.cover & uncovered for p in patterns]
    selected: list[Pattern] = []
    n_covered = 0
    relaxations: list[float] = []
    schedule = iter(config.relaxation_schedule)

    def rank(i: int) -> tuple[int, float, int, int]:
        p = patterns[i]
        return (covers[i] & uncovered).bit_count(), p.homogeneity, -p.degree, -i

    while True:
        pool = [i for i, p in enumerate(patterns) if p.prevalence + _EPS >= floor]
        pool = [i for i in pool if covers[i] & uncovered]
        while pool and n_covered + _EPS < target:
            i = max(pool, key=rank)
            selected.append(patterns[i])
            n_covered += (covers[i] & uncovered).bit_count()
            uncovered &= ~covers[i]
            pool = [j for j in pool if covers[j] & uncovered]
        if n_covered + _EPS >= target:
            break
        floor = next((step for step in schedule if step < floor), None)
        if floor is None:
            break
        relaxations.append(floor)

    missed = f"{uncovered:b}"[::-1]
    return ClassDnf(
        rating_index=rating_index,
        patterns=tuple(selected),
        uncovered=tuple(view.record_ids[r] for r, bit in enumerate(missed) if bit == "1"),
        relaxations=tuple(relaxations),
    )
