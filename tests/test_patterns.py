import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ladrating import (
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
        pool = enumerate_patterns(view, MiningConfig(min_prevalence=0.0))
        dnf = select_dnf(pool, view, MiningConfig(min_prevalence=0.0))
        assert len(dnf.patterns) == 1
        assert dnf.uncovered == ()

    def test_two_pattern_cover(self):
        # no single homogeneous pattern reaches both positives
        view = self._view(
            [(0, True), (4, True), (2, False)],
            [CutPoint("G", 1.0), CutPoint("G", 3.0)],
        )
        config = MiningConfig(min_prevalence=0.0)
        pool = enumerate_patterns(view, config)
        dnf = select_dnf(pool, view, config)
        assert len(dnf.patterns) == 2
        assert dnf.uncovered == ()

    def test_unreachable_target_flags_uncovered(self):
        view = self._view([(1, True), (2, False)], [CutPoint("G", 1.5)])
        config = MiningConfig(min_prevalence=1.0, relaxation_schedule=())
        dnf = select_dnf([], view, config)
        assert dnf.patterns == ()
        assert dnf.uncovered == ("c0:2012",)

    def test_relaxation_schedule_applied(self):
        view = self._view(
            [(0, True), (4, True), (2, False)],
            [CutPoint("G", 1.0), CutPoint("G", 3.0)],
        )
        config = MiningConfig(min_prevalence=0.9, relaxation_schedule=(0.4,))
        dnf = select_dnf(enumerate_patterns(view, config), view, config)
        assert dnf.relaxations == (0.4,)
        assert dnf.uncovered == ()

    def test_relaxation_skips_floors_at_or_above_start(self):
        # c1 has no G value, so no pattern can cover it and every step runs
        view = self._view(
            [(1, True), (None, True), (3, False)],
            [CutPoint("G", 2.0)],
        )
        config = MiningConfig(min_prevalence=0.2, relaxation_schedule=(0.4, 0.2, 0.0))
        dnf = select_dnf(enumerate_patterns(view, config), view, config)
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
            dnf = select_dnf(enumerate_patterns(view, config), view, config)
            negatives = [r for r, l in records if not l]
            for p in dnf.patterns:
                assert not any(p.matches(r) for r in negatives)

    def test_coverage_monotone_in_patterns(self):
        view = self._view(
            [(0, True), (4, True), (2, False)],
            [CutPoint("G", 1.0), CutPoint("G", 3.0)],
        )
        config = MiningConfig(min_prevalence=0.0)
        dnf = select_dnf(enumerate_patterns(view, config), view, config)
        probe = [rec({"G": float(v)}, country=f"p{v}") for v in range(-2, 7)]
        accepted = set()
        from ladrating import ClassDnf

        for n in range(len(dnf.patterns) + 1):
            partial = ClassDnf(rating_index=dnf.rating_index, patterns=dnf.patterns[:n])
            now = {r.country_id for r in probe if partial.matches(r)}
            assert accepted <= now
            accepted = now


# --- select_dnf covers against Pattern.matches -------------------------------

CELL = st.one_of(st.none(), st.integers(0, 6))


@given(
    rows=st.lists(st.tuples(CELL, CELL, st.booleans()), min_size=2, max_size=10),
    g_cuts=st.sets(st.integers(0, 5), min_size=1, max_size=3),
    ex_cuts=st.sets(st.integers(0, 5), max_size=2),
    min_prevalence=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
    min_homogeneity=st.sampled_from([0.5, 1.0]),
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
    dnf = select_dnf(enumerate_patterns(view, config), view, config)

    covered = set()
    for p in dnf.patterns:
        hits = {r.record_id for r in positives if p.matches(r)}
        assert p.covered_positives == len(hits)
        assert p.covered_negatives == sum(1 for r in negatives if p.matches(r))
        assert hits - covered, "a selected pattern must cover a new positive"
        covered |= hits
    assert set(dnf.uncovered) == {r.record_id for r in positives} - covered
