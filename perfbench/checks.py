"""Output checks. Each returns a list of failure messages, empty when the
output is right.

The reference classifier walks the stages in order and tests each pattern
with `Literal.evaluate` only, so it shares no code with `cascade.classify`
beyond the literal itself.
"""

from __future__ import annotations

import hashlib
from typing import Optional, Sequence

_EPS = 1e-12
FALLBACK_TO_LAST = "fallback-to-last"


def _holds(pattern, record) -> bool:
    return all(lit.evaluate(record) for lit in pattern.literals)


def reference_classify(model, record) -> Optional[str]:
    """First-match walk over the stages; the last class by fallback."""
    classes = model.scale.classes
    for stage in model.stages:
        for pattern in stage.patterns:
            if _holds(pattern, record):
                return classes[stage.rating_index - 1]
    if model.scale.fallback_policy == FALLBACK_TO_LAST:
        return classes[-1]
    if model.tail is not None and any(_holds(p, record) for p in model.tail.patterns):
        return classes[-1]
    return None


def _first_differences(what: str, records, got, want, limit: int = 3) -> list[str]:
    if len(got) != len(want):
        return [f"{what}: {len(got)} results for {len(want)} records"]
    bad = [
        f"{what}: {records[i].record_id} gave {got[i]!r}, expected {want[i]!r}"
        for i in range(len(want))
        if got[i] != want[i]
    ]
    if len(bad) > limit:
        bad = bad[:limit] + [f"{what}: {len(bad) - limit} more differences"]
    return bad


def check_classifications(what: str, records, got, reference) -> list[str]:
    """Every classification equals the reference classifier's."""
    return _first_differences(what, records, got, reference)


def check_homogeneity(model, train_records, min_homogeneity: float) -> list[str]:
    """Every trained pattern covers a positive training record and holds the
    configured homogeneity on the training records of its stage."""
    classes = model.scale.classes
    failures = []
    for stage in model.stages:
        positive = set(classes[: stage.rating_index])
        for pattern in stage.patterns:
            cp = cn = 0
            for rec in train_records:
                if _holds(pattern, rec):
                    if rec.observed_rating in positive:
                        cp += 1
                    else:
                        cn += 1
            if cp == 0:
                failures.append(f"stage {stage.rating_index}: {pattern} covers no positive")
            elif cp / (cp + cn) + _EPS < min_homogeneity:
                failures.append(
                    f"stage {stage.rating_index}: {pattern} homogeneity "
                    f"{cp}/{cp + cn} below {min_homogeneity}"
                )
    return failures


def check_same_tree(what: str, got: str, want: str) -> list[str]:
    """Byte-equal tree text."""
    if got == want:
        return []
    return [f"{what}: tree text differs (sha256 {sha256(got)[:12]} vs {sha256(want)[:12]})"]


def check_exact_matches(what: str, exact_matches: int, results, labels) -> list[str]:
    """`evaluate`'s exact-match count equals the count from classify."""
    want = sum(1 for got, label in zip(results, labels) if got == label)
    if exact_matches == want:
        return []
    return [f"{what}: evaluate counts {exact_matches} exact matches, classify gives {want}"]


def parse_cli_classify(text: str) -> list[Optional[str]]:
    """Ratings from `ladrating classify` output lines, in record order."""
    ratings = []
    for line in text.splitlines():
        rating = line.rsplit(",", 1)[-1]
        ratings.append(None if rating == "UNCLASSIFIED" else rating)
    return ratings


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def exact_share(results: Sequence, labels: Sequence) -> float:
    return sum(1 for got, label in zip(results, labels) if got == label) / len(labels)
