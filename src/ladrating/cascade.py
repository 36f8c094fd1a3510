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
import math
from dataclasses import dataclass
from functools import cached_property
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

_NAN = math.nan

#: One literal as a closed interval: it holds iff the record has a value
#: for `code` and `lo <= value <= hi`.
Check = tuple[str, float, float]


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

    @cached_property
    def _first_match(self) -> tuple[tuple[Optional[str], tuple[Check, ...]], ...]:
        """The model as one first-match table: `(label, checks)` per pattern.

        Order: the stages' patterns in stage order; then the tail's, under
        the unclassified policy only; last a zero-literal entry, which always
        holds, carrying the fallback (the last class, or None). A record
        takes the label of the first entry whose checks all hold.

        Each check is `(code, lo, hi)`: a `>= t` literal is `(code, t, +inf)`,
        a `<= t` literal `(code, -inf, t)`. A missing value or a NaN fails
        both comparisons; with ±inf values or thresholds every check gives
        what `Literal.evaluate` gives. Built on first use, once per model:
        the model is frozen, so nothing invalidates it.
        """
        classes = self.scale.classes
        entries = [(classes[s.rating_index - 1], p) for s in self.stages for p in s.patterns]
        if self.scale.fallback_policy == FALLBACK_TO_LAST:
            fallback = classes[-1]
        else:
            fallback = None
            if self.tail is not None:
                entries += [(classes[-1], p) for p in self.tail.patterns]
        table = [
            (label, tuple(
                (lit.indicator, lit.threshold, math.inf) if lit.direction == ">="
                else (lit.indicator, -math.inf, lit.threshold)
                for lit in p.literals
            ))
            for label, p in entries
        ]
        table.append((fallback, ()))
        return tuple(table)


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
    uncovered positives are recorded in the model notes. A NaN or infinite
    value anywhere in the dataset is a DataFormatError, as in `load_dataset`.
    """
    for record in dataset.records:
        for code, v in record.values.items():
            if not math.isfinite(v):
                raise DataFormatError(f"{record.record_id} ({code}): non-finite value {v!r}")
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
            exc.stage = prefix
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
    """Rating of the first matching stage; None means Unclassified.

    Walks the model's first-match table (`CascadeModel._first_match`): the
    label of the first entry whose `(code, lo, hi)` checks all hold, where a
    missing value or a NaN holds for none. The references it must agree with
    are the stage walks over `Literal.evaluate`: `ClassDnf.matches`, and the
    oracles in the tests and the benchmark.
    """
    get = record.values.get
    for label, checks in model._first_match:
        for code, lo, hi in checks:
            if not lo <= get(code, _NAN) <= hi:
                break
        else:
            return label


def classify_records(
    model: CascadeModel, records: Sequence[CountryRecord]
) -> list[Optional[str]]:
    """`classify` of every record, computed as arrays.

    The model's first-match table (`CascadeModel._first_match`) is flattened
    into arrays: per check, its indicator column, `lo` and `hi`; per entry,
    its slice of the checks and its label. A record takes the label of its
    first entry whose checks all hold, `lo <= x <= hi`; the last entry has
    none and carries the fallback.

    A missing value, and an in-memory NaN, read as NaN, which fails both
    comparisons. Records go through in blocks of `_BLOCK_ROWS`, so the
    arrays held at once take about `_BLOCK_ROWS` x (indicators + 2 x checks)
    x 8 bytes, whatever the number of records.
    """
    table = model._first_match
    checks = [check for _, entry in table for check in entry]
    codes = sorted({code for code, _, _ in checks})
    column = np.array([codes.index(code) for code, _, _ in checks], dtype=np.intp)
    lo = np.array([check[1] for check in checks], dtype=float)
    hi = np.array([check[2] for check in checks], dtype=float)
    # Entry e owns checks bounds[e]:bounds[e + 1].
    bounds = np.cumsum([0] + [len(entry) for _, entry in table])
    labels = [label for label, _ in table]

    out: list[Optional[str]] = []
    for start in range(0, len(records), _BLOCK_ROWS):
        block = records[start:start + _BLOCK_ROWS]
        values = np.array(
            [[r.values.get(code, _NAN) for code in codes] for r in block], dtype=float
        )[:, column]
        truth = (lo <= values) & (values <= hi)
        # Checks holding so far; an entry matches when all of its own hold.
        held = np.zeros((len(block), len(checks) + 1), dtype=np.int32)
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
