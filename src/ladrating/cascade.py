"""Ordinal cascade: train one cumulative DNF per class boundary, classify by
first match, and import/export the decision-tree text form.

Stage k separates classes 1..k from the rest; classification walks the
stages in order and returns the class of the first stage whose DNF accepts
the record. The last class never gets a trained stage: it is reached by
fallback only (or, for imported trees that carry a last-class row, by that
row under the unclassified policy).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, groupby, zip_longest
from operator import itemgetter, xor
from typing import Callable, NamedTuple, Optional, Sequence

from ._numpy import np
from .binarize import Literal, StageRecords, all_candidate_cutpoints, binarize, minimize_cutpoints
from .data import (
    DEFAULT_REGISTRY,
    CountryRecord,
    Dataset,
    FALLBACK_TO_LAST,
    RatingScale,
)
from .errors import DataFormatError, LadError
from .patterns import ClassDnf, MiningConfig, Pattern, select_dnf
from .treetext import parse_tree_text, render_tree_text

TOOL_VERSION = "0.1.0"

#: Rows per block in `first_match`. A block's bool arrays peak at
#: `_BLOCK_ROWS` x (distinct literals + 1 + 2 x entries) bytes: on the
#: published trees (at most 56 entries and 136 distinct literals) about
#: 2.5 MB at 10,000 rows and 4.1 MB for a full block. Its Python loop runs
#: once per `(code, direction)` and literal slot of every block, so small
#: blocks are slow.
_BLOCK_ROWS = 16384

#: `classify` runs a model's table through `_rank_first_match` when its
#: literal occurrences are at least this many times the codes it tests, and
#: through `_compile_first_match` otherwise. Per record, compiled code makes
#: one compare per literal of each entry it walks, up to the deciding one,
#: and the rank kernel one read, one bisect and one mask AND per tested
#: code; building the rank masks costs a fraction of a compile. Compiled
#: code wins per record on the published trees and on models trained on
#: published-tree or nested labels (6–15 literals per code), the rank
#: kernel on every model trained on weak-signal data (64–94).
_RANK_LITERALS_PER_CODE = 32

_NAN = math.nan
_GROUP = itemgetter(0, 1)  # a literal's (indicator, direction)


class _FirstMatchPlan(NamedTuple):
    """A first-match table as `first_match` runs it (see
    `CascadeModel._first_match_plan`)."""

    #: Per `(code, direction)`: the code, `np.greater_equal` or
    #: `np.less_equal`, its literals' rows of the truth matrix, and their
    #: thresholds as a column.
    compares: tuple[tuple[str, np.ufunc, slice, np.ndarray], ...]
    #: Rows of the truth matrix: one per distinct literal, then one that is
    #: all-true.
    truth_rows: int
    #: W x entries, W the most literals of any entry: the truth rows whose
    #: AND is each entry's, padded with the all-true row.
    slots: np.ndarray
    #: The entries' distinct labels, in first-seen order, and per entry the
    #: index of its label among them, so that `evaluate` maps each label to
    #: its rating code once.
    labels: tuple[Optional[str], ...]
    label_of: np.ndarray


@dataclass(frozen=True)
class Provenance:
    config: MiningConfig
    dataset_fingerprint: str


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
    def _first_match(self) -> tuple[tuple[Optional[str], tuple[Literal, ...]], ...]:
        """The model as one first-match table: `(label, literals)` per
        pattern, where `literals` is the pattern's own `literals` tuple.

        Order: the stages' patterns in stage order; then the tail's, under
        the unclassified policy only; last a zero-literal entry, which always
        holds, carrying the fallback (the last class, or None). A record
        takes the label of the first entry whose literals all hold, each as
        `Literal.evaluate` has it: one compare of the value with the
        threshold, which a missing value or a NaN fails. Built on first use,
        once per model: the model is frozen, so nothing invalidates it.
        """
        classes = self.scale.classes
        entries = [(classes[s.rating_index - 1], p) for s in self.stages for p in s.patterns]
        if self.scale.fallback_policy == FALLBACK_TO_LAST:
            fallback = classes[-1]
        else:
            fallback = None
            if self.tail is not None:
                entries += [(classes[-1], p) for p in self.tail.patterns]
        return tuple((label, p.literals) for label, p in entries) + ((fallback, ()),)

    @cached_property
    def _first_match_index(self) -> Callable[[Callable[[str, float], float]], int]:
        """A function of a record's `values.get` that returns the index of
        the first entry of `_first_match` whose literals all hold: the index
        `first_match` gives. Built on the first `classify`, once per model:
        `_rank_first_match` (no code generated) when the table's literal
        occurrences are at least `_RANK_LITERALS_PER_CODE` times the codes
        it tests, as on models trained on weak-signal data, and
        `_compile_first_match` otherwise, as on the published trees."""
        table = self._first_match
        codes = {lit.indicator for _, literals in table for lit in literals}
        if sum(len(literals) for _, literals in table) >= _RANK_LITERALS_PER_CODE * len(codes):
            return _rank_first_match(table)
        return _compile_first_match(table)

    @cached_property
    def _first_match_plan(self) -> _FirstMatchPlan:
        """`_first_match` as arrays for `first_match`: each distinct literal
        is one row of a truth matrix, the rows of one `(code, direction)`
        grouped, and `slots` holds each entry's literal rows; `labels` and
        `label_of` index the entries' labels. Built on the first
        `first_match`, once per model."""
        table = self._first_match
        distinct = sorted(dict.fromkeys(chain.from_iterable(lits for _, lits in table)), key=_GROUP)
        row = dict(zip(distinct, range(len(distinct))))
        thresholds = np.array([lit.threshold for lit in distinct], dtype=np.float64)[:, None]
        compares, start = [], 0
        for (code, direction), group in groupby(distinct, _GROUP):
            rows = slice(start, start + len(tuple(group)))
            compare = np.greater_equal if direction == ">=" else np.less_equal
            compares.append((code, compare, rows, thresholds[rows]))
            start = rows.stop
        true = len(distinct)
        entries = (list(map(row.__getitem__, lits)) or [true] for _, lits in table)
        slots = np.array(list(zip_longest(*entries, fillvalue=true)), dtype=np.intp)
        labels: dict[Optional[str], int] = {}
        label_of = [labels.setdefault(label, len(labels)) for label, _ in table]
        return _FirstMatchPlan(
            tuple(compares), true + 1, slots, tuple(labels), np.array(label_of, dtype=np.intp)
        )

    def __getstate__(self):
        # Neither kernel's function pickles; a copy builds its own.
        state = self.__dict__.copy()
        state.pop("_first_match_index", None)
        return state


def _bound(t: float) -> str:
    """A threshold as source: the `repr` of a finite float, else a name."""
    t = float(t)
    if math.isfinite(t):
        return repr(t)
    return "NAN" if t != t else "INF" if t > 0 else "NINF"


def _compare(x: str, lit: Literal) -> str:
    """`lit` on the local `x` as source: one compare, where any direction
    but `>=` is `<=`, as in `Literal.evaluate`."""
    return f"{x} {'>=' if lit.direction == '>=' else '<='} {_bound(lit.threshold)}"


def _compile_first_match(table: Sequence[tuple[Optional[str], tuple[Literal, ...]]]):
    """One Python function for a first-match table, as `dataclasses` builds
    `__init__`: one `if` per entry, with one compare per literal, returns
    the entry's index, and an entry without literals returns
    unconditionally and ends the function. Each code is read once,
    `x_i = get(K[i], NAN)`, just before the first entry that tests it; the
    function is straight-line, so every later use has run that read. A
    record decided by entry e reads only the codes of entries 0..e. It
    costs a few µs per literal to build, so `classify` runs tables with
    many literals per code through `_rank_first_match` instead.

    Only fixed names, integer indices, the two compare operators and the
    `repr` of finite float thresholds reach `compile`; the codes it reads
    are bound as the tuple `K`, in first-use order, and ±inf and NaN as
    names, so no data string becomes source. The function is popped from
    its globals, so the two form no reference cycle.
    """
    slot: dict[str, str] = {}  # each code read so far: its local, `x` + its index in `K`
    lines = ["def first_match_index(get):"]
    for e, (_, literals) in enumerate(table):
        if not literals:
            lines.append(f"    return {e}")
            break
        for lit in literals:
            if lit.indicator not in slot:
                i = len(slot)
                slot[lit.indicator] = f"x{i}"
                lines.append(f"    x{i} = get(K[{i}], NAN)")
        test = " and ".join(_compare(slot[lit.indicator], lit) for lit in literals)
        lines += [f"    if {test}:", f"        return {e}"]
    namespace = {"K": tuple(slot), "NAN": _NAN, "INF": math.inf, "NINF": -math.inf}
    exec(compile("\n".join(lines), "<first-match table>", "exec"), namespace)
    return namespace.pop("first_match_index")


def _rank_first_match(table: Sequence[tuple[Optional[str], tuple[Literal, ...]]]):
    """A function of a record's `values.get` that returns the index
    `_compile_first_match` and `first_match` give, from one lookup per
    tested code instead of one compare per literal, and with no code
    generated.

    Per tested code, T holds the sorted distinct non-NaN thresholds. A
    present value's rank is 2k+1 when it equals T[k] and 2k otherwise, k
    the thresholds below it, so `x >= T[k]` holds exactly at ranks from
    2k+1 up and `x <= T[k]` at ranks up to 2k+1. An entry's literals on the
    code thus hold on one interval of ranks, its box; an empty box or a NaN
    threshold holds on none. A prefix-XOR sweep over the boxes' ends gives
    one mask per rank: the entries whose box holds it, plus every entry
    that does not test the code, which alone make the mask of a missing or
    NaN value, since no bisect places a NaN.

    The rank of a float, or of an int that a float represents exactly, is
    one `bisect_right` in `edges`: each T[k] followed by
    `math.nextafter(T[k], inf)`, the float just above it, which +inf lacks.
    Edges may repeat, when two thresholds are adjacent floats.

    Entry e is bit n-1-e of the masks, n the entries, so the first entry
    that holds is n minus the `bit_length` of the AND of one mask per code;
    the fallback entry tests no code, so that AND is never 0. Each tested
    code is read once per record, in first-use order.
    """
    n = len(table)
    everyone = (1 << n) - 1
    tests: dict[str, list[tuple[int, Literal]]] = {}  # per code: (entry's bit, literal)
    for e, (_, literals) in enumerate(table):
        bit = 1 << (n - 1 - e)
        for lit in literals:
            tests.setdefault(lit.indicator, []).append((bit, lit))
    codes = []
    for code, entries in tests.items():
        thresholds = sorted(t for t in {float(lit.threshold) for _, lit in entries} if t == t)
        rank = {t: 2 * k + 1 for k, t in enumerate(thresholds)}  # of a value equal to t
        top = 2 * len(thresholds)
        boxes: dict[int, tuple[int, int]] = {}
        for bit, lit in entries:
            lo, hi = boxes.get(bit, (0, top))
            t = float(lit.threshold)
            if t != t:
                lo, hi = 1, 0
            elif lit.direction == ">=":  # conditionals, not max/min calls, which cost more
                lo = rank[t] if rank[t] > lo else lo
            else:
                hi = rank[t] if rank[t] < hi else hi
            boxes[bit] = lo, hi
        flips = [0] * (top + 2)
        for bit, (lo, hi) in boxes.items():
            if lo <= hi:
                flips[lo] ^= bit
                flips[hi + 1] ^= bit
        missing = everyone - sum(boxes)  # the entries that do not test the code
        masks = list(accumulate(flips[:-1], xor, initial=missing))[1:]
        edges = sorted(thresholds + [math.nextafter(t, math.inf) for t in thresholds if t < math.inf])
        codes.append((code, edges, masks, missing))

    def first_match_index(get):
        held = everyone
        for code, edges, masks, missing in codes:
            x = get(code, _NAN)
            held &= masks[bisect_right(edges, x)] if x == x else missing
        return n - held.bit_length()

    return first_match_index


def dataset_fingerprint(dataset: Dataset) -> str:
    """The fingerprint a trained model records: `Dataset.fingerprint`,
    computed once per dataset instance."""
    return dataset.fingerprint


def train_cascade(
    dataset: Dataset,
    config: MiningConfig = MiningConfig(),
    *,
    year: int = 0,
) -> CascadeModel:
    """Fit the full cascade on the training split.

    For every boundary k the records of classes 1..k are positive and the
    rest negative; the binarizer picks a minimal cut-point set for that
    labeling and the pattern engine builds the stage DNF. The training
    records' value matrix and its presorted columns are built once per call
    (`StageRecords`), and every stage reads them under its own labels.
    Boundaries where one side is empty become empty stages with a note.
    Relaxations and uncovered positives are recorded in the model notes.
    A NaN or infinite value or a rating label off the scale anywhere in the
    dataset is a DataFormatError, as in `load_dataset`, and so is a dataset
    with no indicator code of `DEFAULT_REGISTRY`.
    """
    scale = dataset.scale
    for record in dataset.records:
        for code, v in record.values.items():
            if not math.isfinite(v):
                raise DataFormatError(f"{record.record_id} ({code}): non-finite value {v!r}")
        label = record.observed_rating
        if label is not None and label not in scale:
            raise DataFormatError(f"{record.record_id}: unknown rating label {label!r}")
    train = dataset.train_records
    observed = {r.observed_rating for r in train}
    if len(observed) < 2:
        raise DataFormatError("training needs records in at least 2 classes")
    codes = [c for c in dataset.indicator_codes() if c in DEFAULT_REGISTRY]
    if not codes:
        raise DataFormatError(
            "no indicator column to train on: no column of the data is a registry indicator code"
        )

    # Stage k's positives are the records rated in classes 1..k: rank < k.
    index = {label: i for i, label in enumerate(scale.classes)}
    rank = np.array([index[r.observed_rating] for r in train], dtype=np.intp)
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

    The label of the first entry of the model's first-match table
    (`CascadeModel._first_match`) whose literals all hold, where a missing
    value or a NaN holds for none. On the model's first `classify` the
    table becomes one function of the record's `values.get`
    (`CascadeModel._first_match_index`), so a call is that function plus a
    label lookup. Tables with few literals per tested code are compiled
    (`_compile_first_match`), and that function reads a code once, just
    before the first entry that tests it, so a record decided early reads
    only the codes of the entries up to the deciding one. Tables with many
    (`_RANK_LITERALS_PER_CODE`) run the rank kernel (`_rank_first_match`),
    which reads every tested code once, makes one bisect per present value
    and finds the first matching entry from one `bit_length`. The
    references both must agree with are the stage walks over
    `Literal.evaluate`: `ClassDnf.matches`, and the oracles in the tests
    and the benchmark.
    """
    return model._first_match[model._first_match_index(record.values.get)][0]


def first_match(model: CascadeModel, codes: Sequence[str], values: np.ndarray) -> np.ndarray:
    """Index into `model._first_match` of each row's first matching entry.

    `values` is a float64 matrix in any layout, one row per record and one
    column per code of `codes`, NaN for a missing value (as `value_matrix`
    builds it); a column-major one (`Dataset.labeled_arrays`) reads each
    column contiguously. It runs the model's plan
    (`CascadeModel._first_match_plan`) per block of `_BLOCK_ROWS` rows:
    one broadcast compare per `(code, direction)` fills every literal's row
    of a literals x rows truth matrix, where NaN, and a code the matrix
    lacks, hold for none, and its last row is all-true; then the AND of W
    row gathers of it, one per literal slot, gives the entries x rows
    matrix, and each row's result is its column's `argmax`, the first entry
    that holds. The fallback entry's slots are all the all-true row, so
    every row matches one. Besides `values`, a block holds about
    `_BLOCK_ROWS` x (distinct literals + 1 + 2 x entries) bytes.

    `values` is only read, and rows keep their order, which is the record
    order that `evaluate`'s mismatch rows fall back on when they tie.
    """
    plan = model._first_match_plan
    column_of = {code: j for j, code in enumerate(codes)}
    compares = [(column_of.get(code), compare, rows, t) for code, compare, rows, t in plan.compares]
    index = np.empty(len(values), dtype=np.intp)
    for start in range(0, len(values), _BLOCK_ROWS):
        block = values[start:start + _BLOCK_ROWS]
        truth = np.empty((plan.truth_rows, len(block)), dtype=bool)
        truth[-1] = True
        for column, compare, rows, t in compares:
            if column is None:
                truth[rows] = False
            else:
                compare(block[:, column], t, out=truth[rows])
        matches = truth[plan.slots[0]]
        for slot in plan.slots[1:]:
            matches &= truth[slot]
        index[start:start + len(block)] = matches.argmax(axis=0)
    return index


def import_decision_tree(
    source: str,
    scale: RatingScale,
    year: int,
    *,
    strict: bool = True,
) -> CascadeModel:
    """Build a model from published decision-tree text.

    Coverage statistics are unavailable for imported patterns (provenance is
    None, marking the model external). Lenient-mode repairs land in the
    model notes.
    """
    repairs: list[str] = []
    parsed = parse_tree_text(source, scale, repairs=None if strict else repairs)
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
    for first, last in KEY_VARIABLE_GROUPS:
        if first > len(model.scale):
            continue  # a shorter scale has no such group
        last = min(last, len(model.scale))
        label = (
            model.scale.classes[first - 1]
            if first == last
            else f"{model.scale.classes[first - 1]}-{model.scale.classes[last - 1]}"
        )
        patterns = [
            p for s in all_stages if first <= s.rating_index <= last for p in s.patterns
        ]
        groups[label] = _usage(patterns)
    return KeyVariableReport(per_stage=per_stage, groups=groups)
