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

from .binarize import StageRecords, all_candidate_cutpoints, binarize, minimize_cutpoints
from .data import (
    DEFAULT_REGISTRY,
    CountryRecord,
    Dataset,
    FALLBACK_TO_LAST,
    Indicator,
    RatingScale,
    serialize_dataset,
    value_matrix,
)
from .errors import DataFormatError, LadError
from .patterns import ClassDnf, MiningConfig, Pattern, select_dnf
from .treetext import parse_tree_text, render_tree_text

TOOL_VERSION = "0.1.0"

#: Rows per block in `first_match`. Its arrays then take about
#: `_BLOCK_ROWS` x (codes + 2 + 3 x entries) x 8 bytes: under 0.4 MB on the
#: published trees (20 codes, at most 56 entries).
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
    labeling and the pattern engine builds the stage DNF. The training
    records' value matrix and its presorted columns are built once per call
    (`StageRecords`), and every stage reads them under its own labels.
    Boundaries where one side is empty become empty stages with a note.
    Relaxations and uncovered positives are recorded in the model notes.
    A NaN or infinite value anywhere in the dataset is a DataFormatError,
    as in `load_dataset`, and so is a dataset with no indicator code of
    `registry`.
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
    if not codes:
        raise DataFormatError(
            "no indicator column to train on: no column of the data is a registry indicator code"
        )

    # Stage k's positives are the records rated in classes 1..k: rank < k.
    index = {label: i for i, label in enumerate(scale.classes)}
    rank = np.array([index.get(r.observed_rating, len(scale)) for r in train], dtype=np.intp)
    records = StageRecords(train, codes, rank < 1)

    stages: list[ClassDnf] = []
    notes: list[str] = []
    for k in range(1, len(scale)):
        labeled = records.with_labels(rank < k)
        n_pos = int(labeled.labels.sum())
        boundary_class = scale.classes[k - 1]
        prefix = f"stage {k} ({boundary_class})"
        if k > 1 and not (rank == k - 1).any():
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


def first_match(model: CascadeModel, codes: Sequence[str], values: np.ndarray) -> np.ndarray:
    """Index into `model._first_match` of each row's first matching entry.

    `values` is a float matrix, one row per record and one column per code
    of `codes`, NaN for a missing value (as `value_matrix` builds it); a
    code the matrix lacks reads as NaN. The model's table becomes three
    W x entries arrays, W the most checks of any entry: slot d of entry e
    holds the column, `lo` and `hi` of that entry's d-th check, and a slot
    past an entry's last check holds an always-true check, `-inf <= 0.0 <=
    +inf` on a pad column of zeros. A row matches an entry when the checks
    in all W of its slots hold, `lo <= x <= hi`, which NaN fails; the last
    entry, the fallback, holds only pad slots, so every row matches one.

    Rows go through in blocks of `_BLOCK_ROWS`, so the arrays held at once
    besides `values` take about `_BLOCK_ROWS` x (codes + 2 + 3 x entries)
    x 8 bytes, whatever the number of rows. `values` is only read:
    `evaluate` passes the matrix its dataset builds once and keeps
    (`Dataset.labeled_arrays`), and rows keep their order, which is the
    record order mismatch rows that tie fall back on.
    """
    table = model._first_match
    width = max(len(entry) for _, entry in table) or 1
    # Column len(codes) is all NaN, for the codes `values` lacks; the one
    # after it is the pad column of zeros.
    column_of = {code: j for j, code in enumerate(codes)}
    pad = (len(codes) + 1, -math.inf, math.inf)
    column, lo, hi = np.array([
        [(column_of.get(code, len(codes)), low, high) for code, low, high in entry]
        + [pad] * (width - len(entry))
        for _, entry in table
    ]).transpose(2, 1, 0)
    column = column.astype(np.intp)

    index = np.empty(len(values), dtype=np.intp)
    for start in range(0, len(values), _BLOCK_ROWS):
        block = values[start:start + _BLOCK_ROWS]
        x = np.zeros((len(block), len(codes) + 2))
        x[:, :-2] = block
        x[:, -2] = _NAN
        matches = np.ones((len(block), len(table)), dtype=bool)
        for d in range(width):
            v = x[:, column[d]]
            matches &= lo[d] <= v
            matches &= v <= hi[d]
        index[start:start + len(block)] = matches.argmax(axis=1)
    return index


def classify_records(
    model: CascadeModel, records: Sequence[CountryRecord]
) -> list[Optional[str]]:
    """`classify` of every record: the labels of `first_match`'s entries.

    The records' values go into one matrix over the codes the model's
    checks name (`value_matrix`, the helper `Dataset.labeled_arrays` uses);
    a missing value, and an in-memory NaN, read as NaN, which no check
    passes. The matrix is built on every call, since a plain sequence of
    records has nowhere to keep it; `evaluate` uses the one its dataset
    builds once. The records and their values are only read, and the
    labels come back in record order.
    """
    table = model._first_match
    codes = sorted({code for _, entry in table for code, _, _ in entry})
    labels = [label for label, _ in table]
    index = first_match(model, codes, value_matrix(records, codes))
    return [labels[i] for i in index.tolist()]


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
