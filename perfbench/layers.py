"""Per-layer metrics of the traced run: the counters behind them and the
end-to-end metric each one should move.

Counters read the wrapped calls' arguments and results after the span has
closed. They use only the public data types (`CutPoint`, `BinaryView`,
`MiningConfig`, `ClassDnf`, `EvaluationReport`); a counter that cannot read
its inputs is skipped and named in the report's notes.
"""

from __future__ import annotations

from collections import defaultdict
from math import comb

import numpy as np

from tracer import NAME

#: Per-layer metric -> (end-to-end metrics it should move, on which workloads).
LAYER_TO_END_TO_END = {
    "data.load_dataset_s": ("setup_s", "all; cli_s on classify-published"),
    "data.split_dataset_s": ("setup_s", "all"),
    "data.rows": ("setup_s", "all"),
    "binarize.candidates_s": ("train_s", "train-noisy"),
    "binarize.candidates": ("train_s", "train-noisy"),
    "binarize.minimize_s": ("train_s, peak_rss_mb", "train-nested; none on classify-published"),
    "binarize.pairs": ("train_s, peak_rss_mb", "train-nested"),
    "binarize.pairs_distinct": ("train_s, peak_rss_mb", "train-nested"),
    "binarize.exact_stages": ("train_s", "train-nested"),
    "binarize.cuts": ("train_s", "train-nested"),
    "binarize.cut_ratio": ("train_s", "train-nested"),
    "binarize.binarize_s": ("train_s", "train-nested, train-noisy"),
    "binarize.cells": ("train_s", "train-nested, train-noisy"),
    "patterns.enumerate_s": ("train_s", "train-noisy; none on train-nested"),
    "patterns.enumerate_calls": ("train_s", "train-noisy"),
    "patterns.literals": ("train_s", "train-noisy"),
    "patterns.combos": ("train_s", "train-noisy"),
    "patterns.accepted": ("train_s", "train-noisy"),
    "patterns.accept_ratio": ("train_s", "train-noisy"),
    "patterns.select_s": ("train_s", "train-noisy"),
    "patterns.selected": ("train_s", "train-noisy"),
    "patterns.relaxations": ("train_s", "train-noisy"),
    "patterns.uncovered": ("train_s, train_fidelity", "train-noisy"),
    "cascade.train_self_s": ("train_s", "train-nested, train-noisy"),
    "cascade.fingerprint_s": ("train_s", "train-nested, train-noisy"),
    "cascade.classify_s": ("classify_rps, classify_p99_us, evaluate_s", "classify-published"),
    "cascade.stages_tested_mean": ("classify_rps, classify_p99_us, evaluate_s", "classify-published"),
    "cascade.fallback_share": ("classify_rps, classify_p99_us, evaluate_s", "classify-published"),
    "cascade.import_s": ("setup_s, cli_s", "classify-published"),
    "treetext.parse_s": ("setup_s, cli_s", "classify-published"),
    "treetext.render_s": ("setup_s, cli_s", "classify-published"),
    "evaluate.evaluate_s": ("evaluate_s", "all"),
    "evaluate.mismatches": ("evaluate_s", "all"),
    "cli.startup_s": ("cli_s", "all"),
    "cli.overhead_s": ("cli_s", "all"),
    "trace.overhead_s": ("none: traced minus untraced time of the workload's main call", "all"),
}


def distinct_pairs(candidates, records) -> int:
    """Distinct non-empty sets of candidates separating a positive from a
    negative record: the set-cover rows minimization really works on."""
    if not candidates or not records:
        return 0
    columns = defaultdict(list)
    for j, cp in enumerate(candidates):
        columns[cp.indicator].append(j)
    truth = np.zeros((len(records), len(candidates)), dtype=bool)
    for code, js in columns.items():
        values = np.array([rec.values.get(code, np.nan) for rec, _ in records], dtype=float)
        thresholds = np.array([candidates[j].threshold for j in js])
        with np.errstate(invalid="ignore"):
            truth[:, js] = values[:, None] >= thresholds[None, :]
    labels = np.array([label for _, label in records], dtype=bool)
    packed = np.packbits(truth, axis=1)
    diff = (packed[labels][:, None, :] ^ packed[~labels][None, :, :]).reshape(-1, packed.shape[1])
    diff = diff[diff.any(axis=1)]
    return len(np.unique(diff, axis=0)) if len(diff) else 0


def _load(counts, a, result):
    counts["data.rows"] += len(result.records)


def _candidates(counts, a, result):
    counts["binarize.candidates"] += len(result)


def _minimize(counts, a, result):
    candidates, records = list(a["candidates"]), a["records"]
    n_pos = sum(1 for _, label in records if label)
    counts["binarize.pairs"] += n_pos * (len(records) - n_pos)
    distinct = distinct_pairs(candidates, records)
    counts["binarize.pairs_distinct"] += distinct
    if distinct * len(candidates) <= a["exact_cell_limit"]:
        counts["binarize.exact_stages"] += 1
    counts["binarize.cuts"] += len(result)


def _binarize(counts, a, result):
    counts["binarize.cells"] += len(a["records"]) * len(a["cutpoints"])


def _enumerate(counts, a, result):
    literals = 2 * len(a["view"].cutpoints)  # both directions of every cut point
    counts["patterns.enumerate_calls"] += 1
    counts["patterns.literals"] += literals
    counts["patterns.combos"] += sum(
        comb(literals, d) for d in range(1, a["config"].max_degree + 1)
    )
    counts["patterns.accepted"] += len(result)


def _select(counts, a, result):
    counts["patterns.selected"] += len(result.patterns)
    counts["patterns.relaxations"] += len(result.relaxations)
    counts["patterns.uncovered"] += len(result.uncovered)


def _classify(counts, a, result):
    model = a["model"]
    classes = model.scale.classes
    counts["cascade.classified"] += 1
    if result is None or result == classes[-1]:
        counts["cascade.fallbacks"] += 1
        counts["cascade.stages_tested"] += len(model.stages)
    else:
        counts["cascade.stages_tested"] += classes.index(result) + 1


def _evaluate(counts, a, result):
    counts["evaluate.mismatches"] += len(result.mismatches)


HOOKS = {
    "data.load_dataset": _load,
    "binarize.all_candidate_cutpoints": _candidates,
    "binarize.minimize_cutpoints": _minimize,
    "binarize.binarize": _binarize,
    "patterns.enumerate_patterns": _enumerate,
    "patterns.select_dnf": _select,
    "cascade.classify": _classify,
    "evaluate.evaluate": _evaluate,
}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(tracer, measured: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric from the spans and counters; `measured` holds
    the three the workload times itself (cli.startup_s, cli.overhead_s,
    trace.overhead_s)."""
    inc, own = tracer.times()
    c = tracer.counts
    m = {
        "data.load_dataset_s": inc.get("data.load_dataset", 0.0),
        "data.split_dataset_s": inc.get("data.split_dataset", 0.0),
        "data.rows": c["data.rows"],
        "binarize.candidates_s": inc.get("binarize.all_candidate_cutpoints", 0.0),
        "binarize.candidates": c["binarize.candidates"],
        "binarize.minimize_s": own.get("binarize.minimize_cutpoints", 0.0),
        "binarize.pairs": c["binarize.pairs"],
        "binarize.pairs_distinct": c["binarize.pairs_distinct"],
        "binarize.exact_stages": c["binarize.exact_stages"],
        "binarize.cuts": c["binarize.cuts"],
        "binarize.cut_ratio": _ratio(c["binarize.cuts"], c["binarize.candidates"]),
        "binarize.binarize_s": inc.get("binarize.binarize", 0.0),
        "binarize.cells": c["binarize.cells"],
        "patterns.enumerate_s": inc.get("patterns.enumerate_patterns", 0.0),
        "patterns.enumerate_calls": c["patterns.enumerate_calls"],
        "patterns.literals": c["patterns.literals"],
        "patterns.combos": c["patterns.combos"],
        "patterns.accepted": c["patterns.accepted"],
        "patterns.accept_ratio": _ratio(c["patterns.accepted"], c["patterns.combos"]),
        "patterns.select_s": own.get("patterns.select_dnf", 0.0),
        "patterns.selected": c["patterns.selected"],
        "patterns.relaxations": c["patterns.relaxations"],
        "patterns.uncovered": c["patterns.uncovered"],
        "cascade.train_self_s": own.get("cascade.train_cascade", 0.0),
        "cascade.fingerprint_s": inc.get("cascade.dataset_fingerprint", 0.0),
        "cascade.classify_s": inc.get("cascade.classify", 0.0),
        "cascade.stages_tested_mean": _ratio(c["cascade.stages_tested"], c["cascade.classified"]),
        "cascade.fallback_share": _ratio(c["cascade.fallbacks"], c["cascade.classified"]),
        "cascade.import_s": inc.get("cascade.import_decision_tree", 0.0),
        "treetext.parse_s": inc.get("treetext.parse_tree_text", 0.0),
        "treetext.render_s": inc.get("treetext.render_tree_text", 0.0),
        "evaluate.evaluate_s": own.get("evaluate.evaluate", 0.0),
        "evaluate.mismatches": c["evaluate.mismatches"],
    }
    m.update(measured)
    return m


def shape(tracer) -> dict[str, float]:
    """Shares of traced training time, and the count of binarize/patterns
    spans, for the workload-shape self-check."""
    inc, own = tracer.times()
    train = inc.get("cascade.train_cascade", 0.0)
    mining = inc.get("patterns.enumerate_patterns", 0.0) + own.get("patterns.select_dnf", 0.0)
    return {
        "train_s": train,
        "minimize_share": _ratio(own.get("binarize.minimize_cutpoints", 0.0), train),
        "mining_share": _ratio(mining, train),
        "binarize_or_patterns_spans": sum(
            1 for s in tracer.spans if s[NAME].split(".")[0] in ("binarize", "patterns")
        ),
    }
