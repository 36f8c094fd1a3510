"""Bounded-degree conjunctive pattern mining and DNF cover selection."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Optional, Sequence

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
        if self.max_degree < 1:
            raise DataFormatError("max_degree must be >= 1")
        for name in ("min_prevalence", "min_homogeneity", "dnf_coverage_target"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise DataFormatError(f"{name} must lie in [0, 1], got {v}")


def _literal_pool(view: BinaryView) -> list[tuple[Literal, np.ndarray]]:
    """Both directions per cut-point column, with their truth vectors.

    The >=-literal is the column itself; the <=-literal (same threshold)
    holds where the value is present and below it. Order: column index, >=
    before <=.
    """
    pool = []
    for j, cp in enumerate(view.cutpoints):
        col = view.matrix[:, j]
        absent = view.missing[:, j]
        pool.append((Literal(cp.indicator, ">=", cp.threshold), col & ~absent))
        pool.append((Literal(cp.indicator, "<=", cp.threshold), ~col & ~absent))
    return pool


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
    """
    total_pos = view.n_positives
    if total_pos == 0:
        raise DataFormatError("pattern enumeration needs at least one positive record")
    pool = _literal_pool(view)
    labels = view.labels

    accepted: list[Pattern] = []
    accepted_keys: list[frozenset[int]] = []
    for degree in range(1, config.max_degree + 1):
        for combo in itertools.combinations(range(len(pool)), degree):
            dirs = {(pool[i][0].indicator, pool[i][0].direction) for i in combo}
            if len(dirs) != degree:
                continue
            key = frozenset(combo)
            if prune and any(sub < key for sub in accepted_keys):
                continue
            cover = pool[combo[0]][1]
            for i in combo[1:]:
                cover = cover & pool[i][1]
            cp = int((cover & labels).sum())
            if cp == 0:
                continue
            cn = int((cover & ~labels).sum())
            prevalence = cp / total_pos
            homogeneity = cp / (cp + cn)
            if prevalence + _EPS < config.min_prevalence:
                continue
            if homogeneity + _EPS < config.min_homogeneity:
                continue
            accepted.append(
                Pattern(
                    literals=tuple(pool[i][0] for i in combo),
                    covered_positives=cp,
                    covered_negatives=cn,
                    prevalence=prevalence,
                    homogeneity=homogeneity,
                )
            )
            accepted_keys.append(key)
    return accepted


def select_dnf(
    patterns: Sequence[Pattern],
    view: BinaryView,
    config: MiningConfig,
    *,
    rating_index: int = 0,
) -> ClassDnf:
    """Greedy minimum cover of the positive records by patterns.

    Repeatedly takes the pattern covering the most uncovered positives
    (ties: higher homogeneity, fewer literals, then enumeration order). When
    the coverage target cannot be met, the prevalence floor is relaxed along
    the configured schedule and the pool re-enumerated; schedule steps at or
    above the current floor are skipped, as they could add no coverage. A
    still-unmet target yields a partial DNF with its uncovered records
    flagged. Every pattern's literals must be literals of `view`.
    """
    labels = view.labels
    total_pos = view.n_positives
    target = config.dnf_coverage_target * total_pos
    truth = dict(_literal_pool(view))

    def positive_covers(pool: Sequence[Pattern]) -> list[np.ndarray]:
        covers = []
        for p in pool:
            cover = labels.copy()
            for lit in p.literals:
                cover &= truth[lit]
            covers.append(cover)
        return covers

    pool = list(patterns)
    covers = positive_covers(pool)
    selected: list[Pattern] = []
    selected_cover = np.zeros(len(view.record_ids), dtype=bool)
    relaxations: list[float] = []
    floor = config.min_prevalence
    schedule = iter(config.relaxation_schedule)

    while True:
        progressed = True
        while selected_cover.sum() + _EPS < target and progressed:
            best = None
            best_key = None
            for idx, (p, cov) in enumerate(zip(pool, covers)):
                gain = int((cov & ~selected_cover).sum())
                if gain == 0:
                    continue
                key = (-gain, -(p.homogeneity or 0.0), p.degree, idx)
                if best_key is None or key < best_key:
                    best, best_key = idx, key
            if best is None:
                progressed = False
            else:
                selected.append(pool[best])
                selected_cover |= covers[best]
        if selected_cover.sum() + _EPS >= target:
            break
        floor = next((step for step in schedule if step < floor), None)
        if floor is None:
            break
        relaxations.append(floor)
        pool = enumerate_patterns(view, replace(config, min_prevalence=floor))
        covers = positive_covers(pool)

    uncovered = tuple(
        view.record_ids[i]
        for i in np.flatnonzero(labels & ~selected_cover)
    )
    return ClassDnf(
        rating_index=rating_index,
        patterns=tuple(selected),
        uncovered=uncovered,
        relaxations=tuple(relaxations),
    )
