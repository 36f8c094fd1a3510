import itertools
import math
import random
from dataclasses import replace
from typing import Sequence

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ladrating import (
    ClassDnf,
    CountryRecord,
    CutPoint,
    DataFormatError,
    Literal,
    MiningConfig,
    Pattern,
    binarize,
    enumerate_patterns,
    select_dnf,
)
from ladrating import split_dataset, train_cascade
from ladrating.binarize import BinaryView
from ladrating import cascade as cascade_module
from ladrating import patterns as patterns_module
from ladrating.patterns import _EPS
from ladrating.synthetic import clustered_dataset

from conftest import noisy_dataset


def rec(values, country="x"):
    return CountryRecord(country, 2012, values)


def view_of(rows, cutpoints, indicator="G"):
    """rows: (value-or-None, label) on one indicator."""
    records = [
        (rec({} if v is None else {indicator: float(v)}, country=f"c{i}"), l)
        for i, (v, l) in enumerate(rows)
    ]
    return binarize(records, cutpoints), records


# --- independent oracle -----------------------------------------------------
# Enumerates every conjunction of <= max_degree directed literals straight
# off the raw records and keeps those meeting the floors. Shares nothing
# with the implementation under test.

def oracle_enumerate(records, cutpoints, max_degree, min_prev, min_hom):
    def truth(lit, r):
        v = r.values.get(lit.indicator)
        if v is None:
            return False
        return v >= lit.threshold if lit.direction == ">=" else v <= lit.threshold

    literals = []
    for cp in cutpoints:
        literals.append(Literal(cp.indicator, ">=", cp.threshold))
        literals.append(Literal(cp.indicator, "<=", cp.threshold))
    total_pos = sum(1 for _, l in records if l)
    found = set()
    for d in range(1, max_degree + 1):
        for combo in itertools.combinations(literals, d):
            if len({(l.indicator, l.direction) for l in combo}) != d:
                continue
            covered = [(r, l) for r, l in records if all(truth(c, r) for c in combo)]
            cp_ = sum(1 for _, l in covered if l)
            cn = len(covered) - cp_
            if cp_ == 0:
                continue
            if cp_ / total_pos < min_prev - 1e-12:
                continue
            if cp_ / (cp_ + cn) < min_hom - 1e-12:
                continue
            found.add(frozenset(combo))
    return found


class TestEnumerate:
    def test_single_literal_pattern(self):
        view, _ = view_of([(2, True), (3, True), (0, False)], [CutPoint("G", 1.0)])
        out = enumerate_patterns(view, MiningConfig())
        assert any(
            p.literals == (Literal("G", ">=", 1.0),)
            and p.prevalence == 1.0
            and p.homogeneity == 1.0
            for p in out
        )

    def test_no_positives_errors(self):
        view, _ = view_of([(2, False)], [CutPoint("G", 1.0)])
        with pytest.raises(DataFormatError):
            enumerate_patterns(view, MiningConfig())

    def test_all_positive_records(self):
        view, _ = view_of([(2, True), (3, True)], [CutPoint("G", 2.5)])
        out = enumerate_patterns(view, MiningConfig(min_prevalence=0.0))
        assert all(p.degree >= 1 for p in out)  # empty conjunction never appears
        assert all(p.homogeneity == 1.0 for p in out)

    def test_full_prevalence_unreachable(self):
        # positives split by every available literal
        view, _ = view_of(
            [(0, True), (3, True), (1, False), (2, False)],
            [CutPoint("G", 0.5), CutPoint("G", 2.5)],
        )
        out = enumerate_patterns(view, MiningConfig(min_prevalence=1.0))
        assert out == []

    def test_same_direction_same_indicator_never_combined(self):
        view, _ = view_of(
            [(0, False), (2, True), (4, True)],
            [CutPoint("G", 1.0), CutPoint("G", 3.0)],
        )
        for p in enumerate_patterns(view, MiningConfig(min_prevalence=0.0), prune=False):
            dirs = [(l.indicator, l.direction) for l in p.literals]
            assert len(dirs) == len(set(dirs))

    def test_interval_pattern_allowed(self):
        view, _ = view_of(
            [(2, True), (0, False), (4, False)],
            [CutPoint("G", 1.0), CutPoint("G", 3.0)],
        )
        out = enumerate_patterns(view, MiningConfig(min_prevalence=0.0), prune=False)
        interval = (Literal("G", ">=", 1.0), Literal("G", "<=", 3.0))
        assert any(p.literals == interval for p in out)

    def test_deterministic_order(self):
        view, _ = view_of(
            [(0, False), (2, True), (5, True), (7, False)],
            [CutPoint("G", 1.0), CutPoint("G", 6.0)],
        )
        a = enumerate_patterns(view, MiningConfig(min_prevalence=0.0))
        b = enumerate_patterns(view, MiningConfig(min_prevalence=0.0))
        assert a == b
        assert [p.degree for p in a] == sorted(p.degree for p in a)

    def test_oracle_equivalence_unpruned(self):
        rng = random.Random(7)
        for _ in range(20):
            rows = [
                (rng.choice([None, *range(6)]), rng.random() < 0.5) for _ in range(9)
            ]
            if not any(l for _, l in rows):
                continue
            cutpoints = [CutPoint("G", t + 0.5) for t in range(5)]
            view, records = view_of(rows, cutpoints)
            got = enumerate_patterns(
                view, MiningConfig(min_prevalence=0.3, min_homogeneity=0.6), prune=False
            )
            expected = oracle_enumerate(records, cutpoints, 3, 0.3, 0.6)
            assert {frozenset(p.literals) for p in got} == expected

    def test_pruned_is_subset_with_minimal_supports(self):
        view, _ = view_of(
            [(0, False), (2, True), (5, True), (7, False)],
            [CutPoint("G", 1.0), CutPoint("G", 6.0)],
        )
        config = MiningConfig(min_prevalence=0.5)
        pruned = {frozenset(p.literals) for p in enumerate_patterns(view, config)}
        full = {frozenset(p.literals) for p in enumerate_patterns(view, config, prune=False)}
        assert pruned <= full
        for key in pruned:
            assert not any(other < key for other in pruned)


@pytest.mark.parametrize(
    "field, value",
    [
        ("max_degree", 2.5),
        ("max_degree", True),
        ("max_degree", 0),
        ("min_prevalence", None),
        ("min_homogeneity", "1.0"),
        ("dnf_coverage_target", float("nan")),
        ("relaxation_schedule", (0.4, -3.0)),
        ("relaxation_schedule", (1.5,)),
        ("relaxation_schedule", (0.2, None)),
    ],
)
def test_mining_config_rejects_bad_values(field, value):
    with pytest.raises(DataFormatError, match=field):
        MiningConfig(**{field: value})


class TestPatternMatches:
    BBBM_GROUP_1 = Pattern(
        literals=(
            Literal("G", ">=", 5435.98),
            Literal("EX", ">=", 38.185),
            Literal("PPP", "<=", 6.075),
        )
    )

    def test_all_conditions_met(self):
        assert self.BBBM_GROUP_1.matches(rec({"G": 8000, "EX": 40, "PPP": 5}))

    def test_one_condition_fails(self):
        assert not self.BBBM_GROUP_1.matches(rec({"G": 8000, "EX": 10, "PPP": 5}))

    def test_missing_indicator_fails(self):
        assert not self.BBBM_GROUP_1.matches(rec({"G": 8000, "EX": 40}))


def pat(*lits, covers):
    return Pattern(
        literals=tuple(lits),
        covered_positives=len(covers),
        covered_negatives=0,
        prevalence=0.0,
        homogeneity=1.0,
    )


class TestSelectDnf:
    def _view(self, rows, cuts):
        view, _ = view_of(rows, cuts)
        return view

    def test_dominant_pattern_wins(self):
        # positives at 1, 3, 5; pattern pool via cut-points, C = (G >= 0.5) covers all
        view = self._view(
            [(1, True), (3, True), (5, True), (-2, False)],
            [CutPoint("G", 0.5), CutPoint("G", 2.0), CutPoint("G", 4.0)],
        )
        dnf = select_dnf(view, MiningConfig(min_prevalence=0.0))
        assert len(dnf.patterns) == 1
        assert dnf.uncovered == ()

    def test_two_pattern_cover(self):
        # no single homogeneous pattern reaches both positives
        view = self._view(
            [(0, True), (4, True), (2, False)],
            [CutPoint("G", 1.0), CutPoint("G", 3.0)],
        )
        config = MiningConfig(min_prevalence=0.0)
        dnf = select_dnf(view, config)
        assert len(dnf.patterns) == 2
        assert dnf.uncovered == ()

    def test_unreachable_target_flags_uncovered(self):
        # c0 has no G value, so no pattern can cover it
        view = self._view([(None, True), (2, False)], [CutPoint("G", 1.5)])
        config = MiningConfig(min_prevalence=1.0, relaxation_schedule=())
        dnf = select_dnf(view, config)
        assert dnf.patterns == ()
        assert dnf.uncovered == ("c0:2012",)

    def test_relaxation_schedule_applied(self):
        view = self._view(
            [(0, True), (4, True), (2, False)],
            [CutPoint("G", 1.0), CutPoint("G", 3.0)],
        )
        config = MiningConfig(min_prevalence=0.9, relaxation_schedule=(0.4,))
        dnf = select_dnf(view, config)
        assert dnf.relaxations == (0.4,)
        assert dnf.uncovered == ()

    def test_relaxation_skips_floors_at_or_above_start(self):
        # c1 has no G value, so no pattern can cover it and every step runs
        view = self._view(
            [(1, True), (None, True), (3, False)],
            [CutPoint("G", 2.0)],
        )
        config = MiningConfig(min_prevalence=0.2, relaxation_schedule=(0.4, 0.2, 0.0))
        dnf = select_dnf(view, config)
        assert dnf.relaxations == (0.0,)
        assert dnf.uncovered == ("c1:2012",)

    def test_homogeneity_soundness(self):
        rng = random.Random(3)
        for _ in range(10):
            rows = [(rng.randrange(8), rng.random() < 0.5) for _ in range(10)]
            if len({l for _, l in rows}) < 2:
                continue
            cuts = [CutPoint("G", t + 0.5) for t in range(7)]
            view, records = view_of(rows, cuts)
            config = MiningConfig()
            dnf = select_dnf(view, config)
            negatives = [r for r, l in records if not l]
            for p in dnf.patterns:
                assert not any(p.matches(r) for r in negatives)

    def test_coverage_monotone_in_patterns(self):
        view = self._view(
            [(0, True), (4, True), (2, False)],
            [CutPoint("G", 1.0), CutPoint("G", 3.0)],
        )
        config = MiningConfig(min_prevalence=0.0)
        dnf = select_dnf(view, config)
        probe = [rec({"G": float(v)}, country=f"p{v}") for v in range(-2, 7)]
        accepted = set()
        for n in range(len(dnf.patterns) + 1):
            partial = ClassDnf(rating_index=dnf.rating_index, patterns=dnf.patterns[:n])
            now = {r.country_id for r in probe if partial.matches(r)}
            assert accepted <= now
            accepted = now


# --- select_dnf covers against Pattern.matches -------------------------------

# A cell is missing (None), a grid value, or an in-memory NaN, which
# `Literal.evaluate` reads as missing.
CELL = st.one_of(st.none(), st.integers(0, 6), st.just(math.nan))


@given(
    rows=st.lists(st.tuples(CELL, CELL, st.booleans()), min_size=2, max_size=10),
    g_cuts=st.sets(st.integers(0, 5), min_size=1, max_size=3),
    ex_cuts=st.sets(st.integers(0, 5), max_size=2),
    min_prevalence=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
    min_homogeneity=st.sampled_from([0.5, 1.0]),
)
@example(  # a NaN positive must not count as covered by (G <= 0.5)
    rows=[(math.nan, None, True), (2, None, False)],
    g_cuts={0},
    ex_cuts=set(),
    min_prevalence=0.0,
    min_homogeneity=1.0,
)
@settings(max_examples=150, deadline=None)
def test_select_dnf_covers_agree_with_pattern_matches(
    rows, g_cuts, ex_cuts, min_prevalence, min_homogeneity
):
    records = []
    for i, (g, ex, label) in enumerate(rows):
        values = {code: float(v) for code, v in (("G", g), ("EX", ex)) if v is not None}
        records.append((rec(values, country=f"c{i}"), label))
    positives = [r for r, l in records if l]
    negatives = [r for r, l in records if not l]
    if not positives:
        return
    cuts = [CutPoint("EX", t + 0.5) for t in sorted(ex_cuts)]
    cuts += [CutPoint("G", t + 0.5) for t in sorted(g_cuts)]
    view = binarize(records, cuts)
    config = MiningConfig(
        max_degree=2, min_prevalence=min_prevalence, min_homogeneity=min_homogeneity
    )
    dnf = select_dnf(view, config)

    covered = set()
    for p in dnf.patterns:
        hits = {r.record_id for r in positives if p.matches(r)}
        assert p.covered_positives == len(hits)
        assert p.covered_negatives == sum(1 for r in negatives if p.matches(r))
        assert hits - covered, "a selected pattern must cover a new positive"
        covered |= hits
    assert set(dnf.uncovered) == {r.record_id for r in positives} - covered


# --- reference: enumeration and selection before patterns were enumerated ---
# once per stage. Verbatim but for the names: every relaxation step
# re-enumerates, and pruning scans the prime patterns accepted so far. Truth
# vectors come from `_literal_pool`, the unpacked literal pool enumeration
# used before it moved to packed bit rows, verbatim but for reading the
# <=-literal from `BinaryView.at_most`.

def _literal_pool(view: BinaryView) -> list[tuple[Literal, np.ndarray]]:
    """Both directions per cut-point column, with their truth vectors.

    The >=-literal is the `matrix` column; the <=-literal (same threshold)
    is the `at_most` column. Order: column index, >= before <=.
    """
    pool = []
    for j, cp in enumerate(view.cutpoints):
        pool.append((Literal(cp.indicator, ">=", cp.threshold), view.matrix[:, j]))
        pool.append((Literal(cp.indicator, "<=", cp.threshold), view.at_most[:, j]))
    return pool


def _reference_enumerate(
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


def _reference_select_dnf(
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
        pool = _reference_enumerate(view, replace(config, min_prevalence=floor))
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


FLOOR = st.sampled_from([0.0, 0.2, 0.25, 1 / 3, 0.4, 0.5, 0.7, 1.0])
THREE_INDICATOR_ROWS = st.lists(
    st.tuples(CELL, CELL, CELL, st.booleans()), min_size=2, max_size=12
)
CUTS = st.sets(st.integers(0, 5), max_size=2)


def three_indicator_view(rows, g_cuts, ex_cuts, c_cuts):
    """rows: (G, EX, C, label); a cut point at t + 0.5 for each t of a cut
    set. None when no record is positive."""
    records = []
    for i, (g, ex, c, label) in enumerate(rows):
        cells = (("G", g), ("EX", ex), ("C", c))
        values = {code: float(v) for code, v in cells if v is not None}
        records.append((rec(values, country=f"c{i}"), label))
    if not any(label for _, label in records):
        return None
    cuts = [CutPoint("C", t + 0.5) for t in sorted(c_cuts)]
    cuts += [CutPoint("EX", t + 0.5) for t in sorted(ex_cuts)]
    cuts += [CutPoint("G", t + 0.5) for t in sorted(g_cuts)]
    return binarize(records, cuts)


@given(
    rows=THREE_INDICATOR_ROWS,
    g_cuts=st.sets(st.integers(0, 5), min_size=1, max_size=3),
    ex_cuts=CUTS,
    c_cuts=CUTS,
    max_degree=st.integers(1, 3),
    min_prevalence=FLOOR,
    min_homogeneity=st.sampled_from([0.5, 0.75, 1.0]),
    target=st.sampled_from([0.5, 0.8, 1.0]),
    schedule=st.lists(FLOOR, max_size=4).map(tuple),
)
@settings(max_examples=300, deadline=None)
def test_matches_reference_enumeration_and_selection(
    rows, g_cuts, ex_cuts, c_cuts, max_degree, min_prevalence, min_homogeneity, target,
    schedule,
):
    view = three_indicator_view(rows, g_cuts, ex_cuts, c_cuts)
    if view is None:
        return
    config = MiningConfig(
        max_degree=max_degree,
        min_prevalence=min_prevalence,
        min_homogeneity=min_homogeneity,
        dnf_coverage_target=target,
        relaxation_schedule=schedule,
    )
    assert_matches_reference(view, config)


@given(
    rows=THREE_INDICATOR_ROWS,
    g_cuts=st.sets(st.integers(0, 5), min_size=1, max_size=3),
    ex_cuts=CUTS,
    c_cuts=CUTS,
    max_degree=st.integers(1, 4),
    min_homogeneity=st.sampled_from([0.5, 0.75, 1.0]),
    schedule=st.lists(FLOOR, min_size=1, max_size=4),
)
@settings(max_examples=200, deadline=None)
def test_lowest_floor_primes_filtered_are_each_floors_primes(
    rows, g_cuts, ex_cuts, c_cuts, max_degree, min_homogeneity, schedule
):
    # select_dnf takes every floor's pool from the primes of the lowest one.
    view = three_indicator_view(rows, g_cuts, ex_cuts, c_cuts)
    if view is None:
        return
    config = MiningConfig(max_degree=max_degree, min_homogeneity=min_homogeneity)
    primes = enumerate_patterns(view, replace(config, min_prevalence=min(schedule)))
    for floor in schedule:
        expected = enumerate_patterns(view, replace(config, min_prevalence=floor))
        assert [p for p in primes if p.prevalence + _EPS >= floor] == expected


def assert_matches_reference(view, config):
    for prune in (True, False):
        assert enumerate_patterns(view, config, prune=prune) == _reference_enumerate(
            view, config, prune=prune
        )
    expected = _reference_select_dnf(
        _reference_enumerate(view, config), view, config, rating_index=3
    )
    assert select_dnf(view, config, rating_index=3) == expected


def random_view(rng, cuts, n_records):
    """Records over the indicators of `cuts` (code -> thresholds), 20% of
    values missing, classes drawn at random; at least one positive."""
    records = []
    for i in range(n_records):
        values = {
            code: float(rng.randrange(len(ts) + 1))
            for code, ts in cuts.items()
            if rng.random() >= 0.2
        }
        records.append((rec(values, country=f"c{i}"), i == 0 or rng.random() < 0.4))
    cutpoints = [CutPoint(code, t) for code, ts in sorted(cuts.items()) for t in ts]
    return binarize(records, cutpoints)


RANDOM_VIEW_CONFIGS = [
    MiningConfig(max_degree=3, min_prevalence=0.7, min_homogeneity=0.75),
    MiningConfig(max_degree=2, min_prevalence=0.5, dnf_coverage_target=0.8),
    MiningConfig(max_degree=3, min_prevalence=1 / 3, relaxation_schedule=(0.2, 0.0)),
]


@pytest.mark.parametrize("config", RANDOM_VIEW_CONFIGS)
def test_random_views_match_reference(config):
    rng = random.Random(11)
    for _ in range(8):
        view = random_view(rng, {"C": [0.5, 1.5], "EX": [0.5], "G": [0.5, 1.5, 2.5]}, 14)
        assert_matches_reference(view, config)


@pytest.mark.parametrize(
    "dataset, widest",
    [(lambda: clustered_dataset(0), 3), (lambda: split_dataset(noisy_dataset(0), 0.65, 0), 10)],
    ids=["clustered", "noisy"],
)
def test_training_stage_views_match_reference(monkeypatch, dataset, widest):
    # Every view training mines; the weak-signal ones have more cut points
    # than the views above.
    calls = []
    select = cascade_module.select_dnf

    def spy(view, config, **kwargs):
        calls.append((view, config))
        return select(view, config, **kwargs)

    monkeypatch.setattr(cascade_module, "select_dnf", spy)
    train_cascade(dataset())
    assert max(len(view.cutpoints) for view, _ in calls) >= widest
    for view, config in calls:
        assert_matches_reference(view, config)


def bits_record(values, country="x"):
    return rec(dict(zip(("C", "EX", "G"), map(float, values))), country=country)


def bits_view(rows):
    """rows: ((C, EX, G) values, label); one cut point at 0.5 on each."""
    records = [
        (bits_record(values, country=f"c{i}"), label) for i, (values, label) in enumerate(rows)
    ]
    return binarize(records, [CutPoint(code, 0.5) for code in ("C", "EX", "G")])


@pytest.mark.parametrize(
    "rows, min_prevalence",
    [
        # (C, EX, G) is pure, but its only listed sub-pattern is C
        # (homogeneity 0.7): the three pairs fall below the homogeneity floor.
        (
            [((1, 1, 1), True)] + [((1, 0, 0), True)] * 6 + [((1, 1, 0), False)] * 2
            + [((1, 0, 1), False)] + [((0, 1, 1), False)] * 2,
            0.1,
        ),
        # Neither C nor (C, EX) is a pattern, so pruned enumeration builds
        # (C, EX, G); its only listed sub-pattern is G (homogeneity 11/15),
        # as (C, G) and (EX, G) fall below the homogeneity floor.
        (
            [((1, 1, 1), True)] + [((0, 0, 1), True)] * 10 + [((1, 1, 0), False)]
            + [((1, 0, 1), False)] * 2 + [((0, 1, 1), False)] * 2,
            0.05,
        ),
    ],
)
def test_pruning_looks_past_the_sub_patterns_one_literal_shorter(rows, min_prevalence):
    view = bits_view(rows)
    config = MiningConfig(min_prevalence=min_prevalence, min_homogeneity=0.7)
    triple = tuple(Literal(code, ">=", 0.5) for code in ("C", "EX", "G"))
    assert triple in {p.literals for p in enumerate_patterns(view, config, prune=False)}
    assert triple not in {p.literals for p in enumerate_patterns(view, config)}
    assert_matches_reference(view, config)


def test_equal_gains_go_to_homogeneity_before_degree():
    # C covers every positive at homogeneity 0.75; (EX, G) covers them all
    # at 1.0, and neither EX nor G alone reaches the homogeneity floor.
    rows = [((1, 1, 1), True)] * 3
    rows += [((1, 1, 0), False), ((0, 0, 1), False), ((0, 1, 0), False), ((0, 0, 1), False)]
    view = bits_view(rows)
    config = MiningConfig(
        max_degree=2, min_prevalence=1.0, min_homogeneity=0.7, relaxation_schedule=()
    )
    dnf = select_dnf(view, config)
    assert [p.literals for p in dnf.patterns] == [
        (Literal("EX", ">=", 0.5), Literal("G", ">=", 0.5))
    ]
    assert_matches_reference(view, config)


def test_second_pick_uses_the_recounted_gain():
    # C, EX and G are the only primes, covering 5, 4 and 3 of the eight
    # positives. Once C is picked, EX still reaches one uncovered positive
    # and G three, so G goes second and EX is never needed.
    rows = [((1, 1, 0), True)] * 3 + [((1, 0, 0), True)] * 2
    rows += [((0, 1, 1), True)] + [((0, 0, 1), True)] * 2 + [((0, 0, 0), False)]
    view = bits_view(rows)
    config = MiningConfig(min_prevalence=0.3, relaxation_schedule=())
    primes = [p.literals for p in enumerate_patterns(view, config)]
    assert primes == [(Literal(code, ">=", 0.5),) for code in ("C", "EX", "G")]
    dnf = select_dnf(view, config)
    assert [p.literals for p in dnf.patterns] == [primes[0], primes[2]]
    assert dnf.uncovered == ()
    assert_matches_reference(view, config)


@pytest.mark.parametrize(
    "rows, min_homogeneity, winner, runner_up",
    [
        # The relaxed floor adds G (homogeneity 0.5) and (C, EX) (1.0), each
        # reaching the one positive left uncovered: homogeneity wins.
        (
            [((1, 1, 1), True), ((1, 0, 0), False), ((0, 0, 0), True), ((0, 1, 0), False),
             ((0, 0, 0), True), ((0, 1, 0), False), ((1, 0, 1), False)],
            0.5,
            (Literal("C", ">=", 0.5), Literal("EX", ">=", 0.5)),
            (Literal("G", ">=", 0.5),),
        ),
        # G <= 0.5 and (C <= 0.5, EX >= 0.5) are both pure: fewer literals win.
        (
            [((1, 0, 1), True), ((1, 1, 1), False), ((0, 1, 0), True), ((0, 0, 1), False),
             ((1, 0, 1), True)],
            0.6,
            (Literal("G", "<=", 0.5),),
            (Literal("C", "<=", 0.5), Literal("EX", ">=", 0.5)),
        ),
        # EX <= 0.5 and G >= 0.5 are both pure single literals: enumeration
        # order wins. C >= 0.5 reaches the same positive at homogeneity 0.5.
        (
            [((1, 0, 1), True), ((1, 1, 0), False), ((0, 1, 0), True), ((0, 1, 0), True)],
            0.5,
            (Literal("EX", "<=", 0.5),),
            (Literal("G", ">=", 0.5),),
        ),
    ],
    ids=["homogeneity", "degree", "order"],
)
def test_equal_gains_after_a_relaxation_go_to_homogeneity_degree_then_order(
    rows, min_homogeneity, winner, runner_up
):
    # One pick at the 0.5 floor leaves one positive, which only patterns
    # joining at the relaxed floor reach, each with gain 1.
    view = bits_view(rows)
    config = MiningConfig(
        max_degree=2, min_prevalence=0.5, min_homogeneity=min_homogeneity,
        relaxation_schedule=(0.0,),
    )
    dnf = select_dnf(view, config)
    assert dnf.relaxations == (0.0,)
    assert dnf.uncovered == ()
    assert len(dnf.patterns) == 2 and dnf.patterns[1].literals == winner
    relaxed = {p.literals: p for p in enumerate_patterns(view, replace(config, min_prevalence=0.0))}
    records = [bits_record(values) for values, label in rows if label]
    left = [r for r in records if not dnf.patterns[0].matches(r)]
    assert len(left) == 1
    for literals in (winner, runner_up):
        assert relaxed[literals].matches(left[0]) and relaxed[literals].prevalence < 0.5
    assert_matches_reference(view, config)


def test_many_cuts_on_one_indicator_match_reference():
    # 12 cut points on G: most conjunctions repeat (G, >=) or (G, <=).
    rng = random.Random(5)
    cuts = {"G": [t + 0.5 for t in range(12)], "EX": [0.5, 1.5]}
    config = MiningConfig(min_prevalence=0.1, min_homogeneity=0.75)
    for n_records in (12, 20, 30):
        view = random_view(rng, cuts, n_records)
        groups = [(cp.indicator, d) for cp in view.cutpoints for d in (">=", "<=")]
        combos = list(itertools.combinations(groups, config.max_degree))
        repeated = sum(1 for combo in combos if len(set(combo)) < len(combo))
        assert repeated > 0.75 * len(combos)
        assert_matches_reference(view, config)
        assert any(p.degree > 1 for p in enumerate_patterns(view, config, prune=False))


def trace_extensions(monkeypatch) -> list[tuple[Literal, ...]]:
    """Make enumeration record each conjunction it extends, as its literals.

    Enumeration ANDs a conjunction's cover with one literal's truth row to
    extend it; here the rows of `_literal_table` become int subclasses that
    log the left operand's literals on each such AND. The empty
    conjunction's cover is a plain int: extending it logs nothing.
    """
    extended: list[tuple[Literal, ...]] = []
    literal_table = patterns_module._literal_table

    class Cover(int):
        def __and__(self, other):
            if not isinstance(other, Cover):
                return int(self) & other
            extended.append(self.literals)
            return traced(int(self) & int(other), self.literals + other.literals)

        def __rand__(self, other):
            return traced(other & int(self), self.literals)

    def traced(row: int, literals: tuple[Literal, ...]) -> Cover:
        cover = Cover(row)
        cover.literals = literals
        return cover

    def table(view):
        keys, rows, positives = literal_table(view)
        return keys, [traced(r, (Literal(*k),)) for k, r in zip(keys, rows)], positives

    monkeypatch.setattr(patterns_module, "_literal_table", table)
    return extended


def test_patterns_are_not_extended_when_pruning(monkeypatch):
    # An extension of a pattern has that pattern as a sub-pattern, so is
    # never prime: pruned enumeration must not build it.
    rng = random.Random(13)
    config = MiningConfig(min_prevalence=0.1, min_homogeneity=0.75)
    views = [
        random_view(rng, {"C": [0.5, 1.5], "EX": [0.5], "G": [0.5, 1.5, 2.5]}, 20)
        for _ in range(8)
    ]
    expected = [enumerate_patterns(view, config) for view in views]
    extended = trace_extensions(monkeypatch)
    extended_patterns = pruned_prefixes = 0
    for view, primes in zip(views, expected):
        extended.clear()
        accepted = {p.literals for p in enumerate_patterns(view, config, prune=False)}
        extended_patterns += sum(literals in accepted for literals in extended)
        extended.clear()
        assert enumerate_patterns(view, config) == primes
        pruned_prefixes += len(extended)
        assert not any(literals in accepted for literals in extended)
    # Both counts must be non-zero, or the data shows nothing.
    assert extended_patterns > 0
    assert pruned_prefixes > 0


def test_max_degree_is_capped_at_the_literal_groups(monkeypatch):
    # Three indicators give six (indicator, direction) groups, and a
    # conjunction takes at most one literal of each.
    cuts = {"C": [0.5, 1.5], "EX": [0.5, 1.5], "G": [0.5, 1.5]}
    view = random_view(random.Random(2), cuts, 16)
    six = MiningConfig(max_degree=6, min_prevalence=0.0, min_homogeneity=0.5)
    huge = replace(six, max_degree=10_000)
    assert max(p.degree for p in enumerate_patterns(view, six, prune=False)) == 6
    extended = trace_extensions(monkeypatch)
    for prune in (True, False):
        extended.clear()
        at_six = enumerate_patterns(view, six, prune=prune)
        six_extended = list(extended)
        extended.clear()
        assert enumerate_patterns(view, huge, prune=prune) == at_six
        # No conjunction of more than six literals is ever built.
        assert extended == six_extended
        assert max(map(len, extended)) <= 5
    assert select_dnf(view, huge) == select_dnf(view, six)
