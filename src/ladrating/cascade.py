"""Ordinal cascade: train one cumulative DNF per class boundary, classify by
first match, and import/export the decision-tree text form.

Stage k separates classes 1..k from the rest; classification walks the
stages in order and returns the class of the first stage whose DNF accepts
the record. The last class never gets a trained stage: it is reached by
fallback only (or, for imported trees that carry a last-class row, by that
row under the unclassified policy).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .binarize import all_candidate_cutpoints, binarize, minimize_cutpoints
from .data import (
    DEFAULT_REGISTRY,
    CountryRecord,
    Dataset,
    FALLBACK_TO_LAST,
    Indicator,
    RatingScale,
    serialize_dataset,
)
from .errors import DataFormatError, LadError
from .patterns import ClassDnf, MiningConfig, Pattern, select_dnf
from .treetext import parse_tree_text, render_tree_text

TOOL_VERSION = "0.1.0"

#: Records per block in `classify_records`; its arrays then take under
#: 1 MB on the published trees.
_BLOCK_ROWS = 256


@dataclass(frozen=True)
class Provenance:
    config: MiningConfig
    dataset_fingerprint: str
    tool_version: str = TOOL_VERSION


@dataclass(frozen=True)
class CascadeModel:
    scale: RatingScale
    year: int
    stages: tuple[ClassDnf, ...]  # k = 1 .. len(scale)-1, in order
    tail: Optional[ClassDnf] = None  # imported last-class row, if any
    provenance: Optional[Provenance] = None
    notes: tuple[str, ...] = ()  # training/import log, not exported

    def __post_init__(self):
        if len(self.stages) != len(self.scale) - 1:
            raise DataFormatError(
                f"expected {len(self.scale) - 1} stages, got {len(self.stages)}"
            )
        for k, stage in enumerate(self.stages, start=1):
            if stage.rating_index != k:
                raise DataFormatError(
                    f"stage {k} carries rating index {stage.rating_index}"
                )


def dataset_fingerprint(dataset: Dataset) -> str:
    return hashlib.sha256(serialize_dataset(dataset).encode()).hexdigest()[:16]


def train_cascade(
    dataset: Dataset,
    config: MiningConfig = MiningConfig(),
    *,
    year: int = 0,
    registry: Mapping[str, Indicator] = DEFAULT_REGISTRY,
) -> CascadeModel:
    """Fit the full cascade on the training split.

    For every boundary k the records of classes 1..k are positive and the
    rest negative; the binarizer picks a minimal cut-point set for that
    labeling and the pattern engine builds the stage DNF. Boundaries where
    one side is empty become empty stages with a note. Relaxations and
    uncovered positives are recorded in the model notes.
    """
    scale = dataset.scale
    train = dataset.train_records
    observed = {r.observed_rating for r in train}
    if len(observed) < 2:
        raise DataFormatError("training needs records in at least 2 classes")
    codes = [c for c in dataset.indicator_codes() if c in registry]

    stages: list[ClassDnf] = []
    notes: list[str] = []
    for k in range(1, len(scale)):
        positive_labels = set(scale.classes[:k])
        labeled = [(r, r.observed_rating in positive_labels) for r in train]
        n_pos = sum(1 for _, lab in labeled if lab)
        boundary_class = scale.classes[k - 1]
        prefix = f"stage {k} ({boundary_class})"
        if k > 1 and not any(r.observed_rating == boundary_class for r in train):
            # Same binary problem as the previous boundary; an identical DNF
            # could never fire first, so the stage ships empty.
            stages.append(ClassDnf(rating_index=k, patterns=()))
            notes.append(f"{prefix}: no members, boundary unchanged")
            continue
        if n_pos == 0 or n_pos == len(labeled):
            stages.append(ClassDnf(rating_index=k, patterns=()))
            side = "positive" if n_pos == 0 else "negative"
            notes.append(f"{prefix}: empty {side} side")
            continue
        candidates = all_candidate_cutpoints(labeled, codes)
        try:
            cuts = minimize_cutpoints(candidates, labeled)
        except LadError as exc:
            exc.args = (f"{prefix}: {exc}",)
            raise
        view = binarize(labeled, cuts)
        dnf = select_dnf(view, config, rating_index=k)
        stages.append(dnf)
        notes += [f"{prefix}: prevalence relaxed to {floor}" for floor in dnf.relaxations]
        if dnf.uncovered:
            notes.append(f"{prefix}: uncovered positives " + ", ".join(dnf.uncovered))

    return CascadeModel(
        scale=scale,
        year=year,
        stages=tuple(stages),
        provenance=Provenance(config=config, dataset_fingerprint=dataset_fingerprint(dataset)),
        notes=tuple(notes),
    )


def classify(model: CascadeModel, record: CountryRecord) -> Optional[str]:
    """Rating of the first matching stage; None means Unclassified."""
    for stage in model.stages:
        if stage.matches(record):
            return model.scale.classes[stage.rating_index - 1]
    if model.scale.fallback_policy == FALLBACK_TO_LAST:
        return model.scale.classes[-1]
    if model.tail is not None and model.tail.matches(record):
        return model.scale.classes[-1]
    return None


def classify_records(
    model: CascadeModel, records: Sequence[CountryRecord]
) -> list[Optional[str]]:
    """`classify` of every record, computed as arrays.

    The model is lowered into one flat literal list (indicator column,
    threshold, `>=` flag) cut into patterns. Patterns keep first-match order:
    the stages' patterns in stage order, then, under the unclassified policy
    only, the tail's; last comes a zero-literal pattern, which always holds,
    carrying the fallback (the last class, or None for Unclassified). A
    record takes the label of its first matching pattern.

    A missing value, and an in-memory NaN, read as NaN, which satisfies
    neither direction, as in `Literal.evaluate`. Records go through in
    blocks of `_BLOCK_ROWS`, so the arrays held at once take about
    `_BLOCK_ROWS` x (indicators + 2 x literals) x 8 bytes, whatever the
    number of records.
    """
    classes = model.scale.classes
    last = classes[-1]
    labeled = [(classes[s.rating_index - 1], p) for s in model.stages for p in s.patterns]
    if model.scale.fallback_policy == FALLBACK_TO_LAST:
        fallback = last
    else:
        fallback = None
        if model.tail is not None:
            labeled += [(last, p) for p in model.tail.patterns]
    labeled.append((fallback, Pattern(literals=())))
    literals = [lit for _, p in labeled for lit in p.literals]
    codes = sorted({lit.indicator for lit in literals})
    column = np.array([codes.index(lit.indicator) for lit in literals], dtype=np.intp)
    threshold = np.array([lit.threshold for lit in literals], dtype=float)
    ge = np.array([lit.direction == ">=" for lit in literals], dtype=bool)
    # Pattern p owns literals bounds[p]:bounds[p + 1].
    bounds = np.cumsum([0] + [p.degree for _, p in labeled])
    labels = [label for label, _ in labeled]

    out: list[Optional[str]] = []
    nan = float("nan")
    for start in range(0, len(records), _BLOCK_ROWS):
        block = records[start:start + _BLOCK_ROWS]
        values = np.array(
            [[r.values.get(code, nan) for code in codes] for r in block], dtype=float
        )[:, column]
        truth = np.where(ge, values >= threshold, values <= threshold)
        # Literals holding so far; a pattern matches when all of its own hold.
        held = np.zeros((len(block), len(literals) + 1), dtype=np.int32)
        np.cumsum(truth, axis=1, out=held[:, 1:])
        matches = held[:, bounds[1:]] - held[:, bounds[:-1]] == np.diff(bounds)
        out += [labels[i] for i in matches.argmax(axis=1)]
    return out


def _require_unrated(record: CountryRecord) -> None:
    if record.observed_rating is not None:
        raise DataFormatError(
            f"{record.record_id} already carries rating {record.observed_rating!r}"
        )


def suggest_rating(model: CascadeModel, record: CountryRecord) -> Optional[str]:
    """Classify an unrated record; the result is a suggestion, not a fact."""
    _require_unrated(record)
    return classify(model, record)


def import_decision_tree(
    source: str,
    scale: RatingScale,
    year: int,
    *,
    registry: Mapping[str, Indicator] = DEFAULT_REGISTRY,
    strict: bool = True,
) -> CascadeModel:
    """Build a model from published decision-tree text.

    Coverage statistics are unavailable for imported patterns (provenance is
    None, marking the model external). Lenient-mode repairs land in the
    model notes.
    """
    repairs: list[str] = []
    parsed = parse_tree_text(
        source, scale, registry=registry, strict=strict, repairs=repairs
    )
    stages = []
    for k, label in enumerate(scale.classes[:-1], start=1):
        stages.append(ClassDnf(rating_index=k, patterns=parsed.get(label, ())))
    tail = None
    last = scale.classes[-1]
    if parsed.get(last):
        tail = ClassDnf(rating_index=len(scale), patterns=parsed[last])
    return CascadeModel(
        scale=scale,
        year=year,
        stages=tuple(stages),
        tail=tail,
        notes=tuple(repairs),
    )


def export_decision_tree(model: CascadeModel) -> str:
    """Canonical text form; re-importing classifies every record identically."""
    stages: dict[str, tuple[Pattern, ...]] = {}
    for stage in model.stages:
        stages[model.scale.classes[stage.rating_index - 1]] = stage.patterns
    stages[model.scale.classes[-1]] = model.tail.patterns if model.tail else ()
    return render_tree_text(stages)


#: Stage groupings over the 16-class scale (1-based, inclusive bounds).
KEY_VARIABLE_GROUPS: tuple[tuple[int, int], ...] = (
    (1, 1), (2, 4), (5, 7), (8, 10), (11, 13), (14, 16),
)


@dataclass(frozen=True)
class KeyVariableReport:
    """Indicator usage per stage and per stage group.

    Each entry maps an indicator code to (occurrence count, share of the
    patterns that contain it).
    """

    per_stage: dict[str, dict[str, tuple[int, float]]]
    groups: dict[str, dict[str, tuple[int, float]]]


def _usage(patterns: Sequence[Pattern]) -> dict[str, tuple[int, float]]:
    counts: dict[str, int] = {}
    for p in patterns:
        for code in {lit.indicator for lit in p.literals}:
            counts[code] = counts.get(code, 0) + 1
    n = len(patterns)
    return {
        code: (c, c / n if n else 0.0)
        for code, c in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    }


def key_variables(model: CascadeModel) -> KeyVariableReport:
    """Which indicators each stage (and stage group) leans on."""
    all_stages = list(model.stages)
    if model.tail is not None:
        all_stages.append(model.tail)
    per_stage = {
        model.scale.classes[s.rating_index - 1]: _usage(s.patterns)
        for s in all_stages
        if s.patterns
    }
    groups = {}
    for lo, hi in KEY_VARIABLE_GROUPS:
        hi = min(hi, len(model.scale))
        label = (
            model.scale.classes[lo - 1]
            if lo == hi
            else f"{model.scale.classes[lo - 1]}-{model.scale.classes[hi - 1]}"
        )
        patterns = [
            p for s in all_stages if lo <= s.rating_index <= hi for p in s.patterns
        ]
        groups[label] = _usage(patterns)
    return KeyVariableReport(per_stage=per_stage, groups=groups)
