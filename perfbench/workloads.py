"""The three workloads, each as a measured run (end-to-end metrics) and a
traced run (per-layer metrics).

A measured run makes one mandatory pass over its inputs, then repeats
passes until `--seconds` have gone by. Outputs are checked on every pass;
a failed check marks its operation failed.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import math
import resource
import statistics
import sys
from array import array
from pathlib import Path
from time import perf_counter, process_time_ns
from typing import Optional

import numpy as np

import checks
import inputs
import layers
from harness import Ledger, Samples, cpu_seconds, import_cli, run_cli, setup_probe
from inputs import SPLIT_FRACTION, YEAR
from setup_probe import load_inputs
from tracer import Tracer

SETUP_SAMPLES = 7
# Per train workload, per trained model and pass: records classified in
# batches, then again one at a time with a timer each; records run through
# `evaluate`; and how many of the datasets `ladrating train` trains. On a
# shared host (a 2-vCPU Xeon VM) calls this short run at one of two speeds,
# 2x apart, that alternate many times a second, so batch and evaluate times
# are pooled, and the p99 is taken per timed batch of at least 1000 records
# (ten beyond it) and reported as the median over batches, which a burst of
# slow calls in one batch does not move. Nested models classify 4x faster,
# so that workload classifies more records for the same pooled time.
TRAIN_SETTINGS = {
    "train-nested": {"classify": 3000, "evaluate": 3000, "cli": 2},
    "train-noisy": {"classify": 1000, "evaluate": 750, "cli": 6},
}
TREE_IMPORTS = 50  # per pass on classify-published; 4 ms each, so pooled
CLI_STARTUPS = 3
TRACE_BASELINE_DATASETS = 4
SHAPE_MINIMIZE_SHARE = 0.90
SHAPE_MINING_SHARE = 0.50


class Run:
    """What one benchmark process knows: program, inputs, ledger, report."""

    def __init__(self, lad, root: Path, work: Path, out: Path, args, started: float):
        self.lad, self.root, self.work, self.out = lad, root, work, out
        self.workload, self.seed = args.workload, args.seed
        self.seconds, self.trace = args.seconds, bool(args.trace)
        self.ledger = Ledger(started)
        self.samples = Samples()
        self.report: dict = {}

    def cli(self, *argv: str) -> str:
        return run_cli(self.root, *argv)


def classify_batch(classify, model, records):
    return [classify(model, r) for r in records]


def classify_timed(classify, model, records):
    """Results plus one CPU-time sample per record, in nanoseconds."""
    results, samples = [], array("q")
    clock = process_time_ns
    for r in records:
        start = clock()
        got = classify(model, r)
        samples.append(clock() - start)
        results.append(got)
    return results, samples


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def p99_us(samples_ns: array) -> float:
    return float(np.percentile(np.frombuffer(samples_ns, dtype=np.int64), 99)) / 1000.0


def timed_p99(run: Run, group, model, records, reference) -> Optional[list]:
    """One timed batch; adds its p99 to the samples, returns its results."""
    op = run.ledger.run("classify", classify_timed, run.lad.classify, model, records)
    if not op.ok:
        return None
    results, times = op.result
    run.samples.add("classify_p99_us", group, p99_us(times))
    run.samples.add("classify_p99_records", group, len(times))
    run.ledger.fail(op, checks.check_classifications("classify", records, results, reference))
    return results


def measure_setup(run: Run, spec: dict) -> float:
    """Median of cold set-ups, each in a fresh child process."""
    times = []
    for _ in range(SETUP_SAMPLES):
        op = run.ledger.run("setup", setup_probe, run.root, spec)
        if op.ok:
            times.append(op.result)
    return statistics.median(times) if times else 0.0


def _in_process_cli(argv) -> float:
    """CPU seconds `ladrating.cli.main(argv)` takes in this process."""
    cli = importlib.import_module("ladrating.cli")
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = cpu_seconds()
        code = cli.main(argv)
        seconds = cpu_seconds() - start
    if code != 0:
        raise RuntimeError(f"in-process ladrating {argv[0]} exited {code}")
    return seconds


def _cli_figures(run: Run, argv_for, check) -> dict[str, float]:
    """cli.startup_s and cli.overhead_s for the traced run; `argv_for(out)`
    builds the CLI arguments writing to `out`, `check()` checks that output."""
    starts = [op.seconds for op in (run.ledger.run("cli", import_cli, run.root)
                                    for _ in range(CLI_STARTUPS)) if op.ok]
    op = run.ledger.run("cli", run.cli, *argv_for("cli"))
    if op.ok:
        run.ledger.fail(op, check())
    inproc = run.ledger.run("cli", _in_process_cli, argv_for("cli_inproc"))
    overhead = op.seconds - inproc.result if op.ok and inproc.ok else 0.0
    return {
        "cli.startup_s": statistics.median(starts) if starts else 0.0,
        "cli.overhead_s": overhead,
    }


def _traced(run: Run, body) -> dict[str, float]:
    """Install the tracer, run `body()`, write the spans out."""
    tracer = Tracer(layers.HOOKS)
    tracer.install()
    try:
        measured = body()
    finally:
        tracer.uninstall()
        run.out.mkdir(parents=True, exist_ok=True)
        path = run.out / f"spans-{run.workload}-seed{run.seed}.jsonl"
        tracer.write(path)
        run.report["spans_file"] = str(path.relative_to(run.root))
        run.report["spans"] = len(tracer.spans)
    if tracer.notes:
        run.report["counter_notes"] = sorted(tracer.notes)
    run.report["shape"] = layers.shape(tracer)
    return layers.per_layer(tracer, measured)


# --------------------------------------------------------------- training


def train_inputs(run: Run):
    nested = run.workload == "train-nested"
    count = inputs.NESTED_DATASETS if nested else inputs.NOISY_DATASETS
    seeds = inputs.dataset_seeds(run.seed, count)
    files = []
    for s in seeds:
        if nested:
            codes, rows = inputs.nested_rows(s)
        else:
            codes, rows = inputs.noisy_rows(s, run.lad.DEFAULT_SCALE.classes)
        path = run.work / f"data_{s}.csv"
        inputs.write_csv(path, codes, rows)
        files.append(path)
    spec = {
        "src": str(run.root / "src"),
        "datasets": [[str(p), s] for p, s in zip(files, seeds)],
        "trees": [],
        "split_fraction": SPLIT_FRACTION,
    }
    run.report["dataset_seeds"] = seeds
    return spec, files, seeds


def _train_cli_argv(run: Run, path: Path, seed: int, out_name: str) -> list[str]:
    return [
        "train", "--data", str(path), "--year", str(YEAR),
        "--split-fraction", str(SPLIT_FRACTION), "--seed", str(seed),
        "--out", str(run.work / out_name),
    ]


def _train_checks(run: Run, op, ds, model, config) -> dict:
    """Checks made once per dataset on its first trained model."""
    lad = run.lad
    records = ds.labeled_records
    run.ledger.fail(op, checks.check_homogeneity(model, ds.train_records, config.min_homogeneity))
    tree = lad.export_decision_tree(model)
    return {
        "tree": tree,
        "reference": [checks.reference_classify(model, r) for r in records],
        "labels": [r.observed_rating for r in records],
        "train": [r.key in ds.split.train_keys for r in records],
    }


def measured_train(run: Run) -> dict[str, float]:
    lad, ledger, samples = run.lad, run.ledger, run.samples
    spec, files, seeds = train_inputs(run)
    setup_s = measure_setup(run, spec)
    datasets, _ = load_inputs(lad, spec)
    config = lad.MiningConfig()
    settings = TRAIN_SETTINGS[run.workload]
    first: dict[int, dict] = {}
    hits = {"train": [0, 0], "test": [0, 0]}

    def one_dataset(i: int, ds) -> None:
        op = ledger.run("train", lad.train_cascade, ds, config, year=YEAR)
        if not op.ok:
            return
        samples.add("train_s", i, op.seconds)
        model = op.result
        if i not in first:
            first[i] = _train_checks(run, op, ds, model, config)
        else:
            ledger.fail(op, checks.check_same_tree(
                "retrained model", lad.export_decision_tree(model), first[i]["tree"]))
        ref = first[i]["reference"]
        records = ds.labeled_records
        repeats = math.ceil(settings["classify"] / len(records))
        for _ in range(repeats):
            op = ledger.run("classify", classify_batch, lad.classify, model, records)
            if op.ok:
                samples.add("classify_records", i, len(records))
                samples.add("classify_cpu_s", i, op.seconds)
                ledger.fail(op, checks.check_classifications("classify", records, op.result, ref))
        results = timed_p99(run, i, model, list(records) * repeats, ref * repeats)
        if results is not None:
            results = results[: len(records)]
            if "hits" not in first[i]:
                first[i]["hits"] = True
                for got, label, in_train in zip(results, first[i]["labels"], first[i]["train"]):
                    side = hits["train" if in_train else "test"]
                    side[0] += got == label
                    side[1] += 1
        for _ in range(math.ceil(settings["evaluate"] / len(records))):
            op = ledger.run("evaluate", lad.evaluate, model, ds)
            if op.ok:
                samples.add("evaluate_s", i, op.seconds)
                ledger.fail(op, checks.check_exact_matches(
                    "evaluate", op.result.exact_matches, results or ref, first[i]["labels"]))
        if i < settings["cli"]:
            argv = _train_cli_argv(run, files[i], seeds[i], f"cli_{seeds[i]}")
            op = ledger.run("cli", run.cli, *argv)
            if op.ok:
                samples.add("cli_s", i, op.seconds)
                text = (run.work / f"cli_{seeds[i]}.tree.txt").read_text()
                ledger.fail(op, checks.check_same_tree("ladrating train", text, first[i]["tree"]))
                if "reimported" not in first[i]:
                    first[i]["reimported"] = True
                    again = lad.import_decision_tree(text, lad.DEFAULT_SCALE, YEAR)
                    ledger.fail(op, checks.check_classifications(
                        "re-imported tree", records, classify_batch(lad.classify, again, records), ref))

    deadline = perf_counter() + run.seconds
    passes = 0
    while passes == 0 or perf_counter() < deadline:
        for i, ds in enumerate(datasets):
            if passes and perf_counter() >= deadline:
                break
            one_dataset(i, ds)
        passes += 1

    run.report["passes"] = passes
    run.report["tree_sha256"] = {
        str(seeds[i]): checks.sha256(f["tree"]) for i, f in sorted(first.items())
    }
    return {
        "setup_s": setup_s,
        "train_s": samples.mean_of_medians("train_s"),
        "train_fidelity": hits["train"][0] / hits["train"][1] if hits["train"][1] else 0.0,
        "test_accuracy": hits["test"][0] / hits["test"][1] if hits["test"][1] else 0.0,
        "classify_rps": samples.ratio("classify_records", "classify_cpu_s"),
        "classify_p99_us": samples.median("classify_p99_us"),
        "evaluate_s": samples.mean("evaluate_s"),
        "cli_s": samples.mean_of_medians("cli_s"),
    }


def traced_train(run: Run) -> dict[str, float]:
    lad, ledger = run.lad, run.ledger
    spec, files, seeds = train_inputs(run)
    datasets, _ = load_inputs(lad, spec)
    config = lad.MiningConfig()
    baseline = {}
    for i, ds in enumerate(datasets[:TRACE_BASELINE_DATASETS]):
        op = ledger.run("train", lad.train_cascade, ds, config, year=YEAR)
        if op.ok:
            baseline[i] = (op.seconds, lad.export_decision_tree(op.result))

    def cli_check():
        text = (run.work / "cli.tree.txt").read_text()
        return checks.check_same_tree("ladrating train", text, baseline[0][1]) if 0 in baseline else []

    measured = _cli_figures(
        run, lambda out: _train_cli_argv(run, files[0], seeds[0], out), cli_check)

    def body() -> dict[str, float]:
        extra = []
        for i, (path, seed) in enumerate(zip(files, seeds)):
            with open(path, newline="") as fh:
                ds = lad.split_dataset(lad.load_dataset(fh), SPLIT_FRACTION, seed)
            op = ledger.run("train", lad.train_cascade, ds, config, year=YEAR)
            if not op.ok:
                continue
            model = op.result
            tree = lad.export_decision_tree(model)
            if i in baseline:
                extra.append(op.seconds - baseline[i][0])
                ledger.fail(op, checks.check_same_tree("traced model", tree, baseline[i][1]))
            ledger.fail(op, checks.check_homogeneity(model, ds.train_records, config.min_homogeneity))
            records = ds.labeled_records
            ref = [checks.reference_classify(model, r) for r in records]
            op = ledger.run("classify", classify_batch, lad.classify, model, records)
            if op.ok:
                ledger.fail(op, checks.check_classifications("classify", records, op.result, ref))
                results = op.result
                op = ledger.run("evaluate", lad.evaluate, model, ds)
                if op.ok:
                    ledger.fail(op, checks.check_exact_matches(
                        "evaluate", op.result.exact_matches, results,
                        [r.observed_rating for r in records]))
        return {"trace.overhead_s": statistics.fmean(extra) if extra else 0.0}

    measured.update(_traced(run, body))
    return measured


# ------------------------------------------------------ classify-published


def classify_inputs(run: Run):
    lad = run.lad
    trees = [run.root / "data" / "trees" / f"tree_{y}.txt" for y in inputs.TREE_YEARS]
    models = [
        lad.import_decision_tree(p.read_text(), lad.DEFAULT_SCALE, y, strict=False)
        for p, y in zip(trees, inputs.TREE_YEARS)
    ]
    codes = [ind.code for ind in lad.BUILTIN_INDICATORS]
    probes = inputs.probe_values(run.seed, codes, inputs.threshold_ranges(models))
    rows = []
    for i, values in enumerate(probes):
        record = lad.CountryRecord(f"probe{i:05d}", YEAR, values)
        rows.append((record.country_id, YEAR, checks.reference_classify(models[0], record), values))
    path = run.work / "probes.csv"
    inputs.write_csv(path, codes, rows)
    spec = {
        "src": str(run.root / "src"),
        "datasets": [[str(path), None]],
        "trees": [[str(p), y] for p, y in zip(trees, inputs.TREE_YEARS)],
        "split_fraction": SPLIT_FRACTION,
    }
    return spec, path, trees


def _evaluate_years(lad, models, dataset):
    reports = [lad.evaluate(m, dataset) for m in models]
    return reports, lad.repeat_offenders(reports)


def _import_trees(lad, texts):
    return [
        lad.import_decision_tree(text, lad.DEFAULT_SCALE, y, strict=False)
        for text, y in zip(texts, inputs.TREE_YEARS)
    ]


def _classify_cli_argv(run: Run, probes: Path, tree: Path, out_name: str) -> list[str]:
    return ["classify", "--model", str(tree), "--data", str(probes), "--lenient",
            "--out", str(run.work / out_name)]


def measured_classify(run: Run) -> dict[str, float]:
    lad, ledger, samples = run.lad, run.ledger, run.samples
    spec, probes, trees = classify_inputs(run)
    setup_s = measure_setup(run, spec)
    (dataset,), models = load_inputs(lad, spec)
    texts = [p.read_text() for p in trees]
    records = dataset.labeled_records
    labels = [r.observed_rating for r in records]
    refs = [[checks.reference_classify(m, r) for r in records] for m in models]
    first_results: list = [None] * len(models)

    def one_pass() -> None:
        for _ in range(TREE_IMPORTS):
            op = ledger.run("import", _import_trees, lad, texts)
            if op.ok:
                samples.add("train_s", 0, op.seconds)
        for t, model in enumerate(models):
            op = ledger.run("classify", classify_batch, lad.classify, model, records)
            if op.ok:
                samples.add("classify_records", t, len(records))
                samples.add("classify_cpu_s", t, op.seconds)
                ledger.fail(op, checks.check_classifications(
                    f"classify {inputs.TREE_YEARS[t]}", records, op.result, refs[t]))
                if first_results[t] is None:
                    first_results[t] = op.result
        for t, model in enumerate(models):
            timed_p99(run, t, model, records, refs[t])
        op = ledger.run("evaluate", _evaluate_years, lad, models[1:], dataset)
        if op.ok:
            samples.add("evaluate_s", 0, op.seconds)
            reports, _ = op.result
            for t, report in enumerate(reports, start=1):
                ledger.fail(op, checks.check_exact_matches(
                    f"evaluate {inputs.TREE_YEARS[t]}", report.exact_matches,
                    first_results[t] or refs[t], labels))
        op = ledger.run("cli", run.cli, *_classify_cli_argv(run, probes, trees[-1], "cli.csv"))
        if op.ok:
            samples.add("cli_s", 0, op.seconds)
            got = checks.parse_cli_classify((run.work / "cli.csv").read_text())
            ledger.fail(op, checks.check_classifications(
                "ladrating classify", records, got, refs[-1]))

    deadline = perf_counter() + run.seconds
    passes = 0
    while passes == 0 or perf_counter() < deadline:
        one_pass()
        passes += 1

    run.report["passes"] = passes
    run.report["tree_sha256"] = {
        str(y): checks.sha256(lad.export_decision_tree(m))
        for y, m in zip(inputs.TREE_YEARS, models)
    }
    later = [r for t in range(1, len(models)) for r in (first_results[t] or [])]
    return {
        "setup_s": setup_s,
        "train_s": samples.mean("train_s"),
        "train_fidelity": checks.exact_share(first_results[0], labels) if first_results[0] else 0.0,
        "test_accuracy": checks.exact_share(later, labels * (len(models) - 1)) if later else 0.0,
        "classify_rps": samples.ratio("classify_records", "classify_cpu_s"),
        "classify_p99_us": samples.median("classify_p99_us"),
        "evaluate_s": samples.mean("evaluate_s"),
        "cli_s": samples.mean_of_medians("cli_s"),
    }


def traced_classify(run: Run) -> dict[str, float]:
    lad, ledger = run.lad, run.ledger
    spec, probes, trees = classify_inputs(run)
    (dataset,), models = load_inputs(lad, spec)
    texts = [p.read_text() for p in trees]
    records = dataset.labeled_records
    labels = [r.observed_rating for r in records]
    refs = [[checks.reference_classify(m, r) for r in records] for m in models]
    base = ledger.run("classify", lambda: [classify_batch(lad.classify, m, records) for m in models])

    def cli_check():
        got = checks.parse_cli_classify((run.work / "cli.csv").read_text())
        return checks.check_classifications("ladrating classify", records, got, refs[-1])

    measured = _cli_figures(
        run, lambda out: _classify_cli_argv(run, probes, trees[-1], out + ".csv"), cli_check)

    def body() -> dict[str, float]:
        with open(probes, newline="") as fh:
            traced_ds = lad.load_dataset(fh)
        traced_models = _import_trees(lad, texts)
        op = ledger.run("classify", lambda: [
            classify_batch(lad.classify, m, traced_ds.labeled_records) for m in traced_models])
        if op.ok:
            for t, got in enumerate(op.result):
                ledger.fail(op, checks.check_classifications(
                    f"classify {inputs.TREE_YEARS[t]}", records, got, refs[t]))
        ev = ledger.run("evaluate", _evaluate_years, lad, traced_models[1:], traced_ds)
        if ev.ok:
            for t, report in enumerate(ev.result[0], start=1):
                ledger.fail(ev, checks.check_exact_matches(
                    f"evaluate {inputs.TREE_YEARS[t]}", report.exact_matches, refs[t], labels))
        for m in traced_models:
            lad.export_decision_tree(m)
        overhead = op.seconds - base.seconds if op.ok and base.ok else 0.0
        return {"trace.overhead_s": overhead}

    measured.update(_traced(run, body))
    return measured


MEASURED = {
    "train-nested": measured_train,
    "train-noisy": measured_train,
    "classify-published": measured_classify,
}
TRACED = {
    "train-nested": traced_train,
    "train-noisy": traced_train,
    "classify-published": traced_classify,
}


def shape_verdict(workload: str, shape: dict) -> str:
    """Empty when the workload still loads the layer it is named for."""
    if workload == "train-nested" and shape["minimize_share"] < SHAPE_MINIMIZE_SHARE:
        return (f"binarize.minimize_s is {shape['minimize_share']:.0%} of traced train time, "
                f"below {SHAPE_MINIMIZE_SHARE:.0%}")
    if workload == "train-noisy" and shape["mining_share"] <= SHAPE_MINING_SHARE:
        return (f"patterns.enumerate_s + patterns.select_s are {shape['mining_share']:.0%} "
                f"of traced train time, not above {SHAPE_MINING_SHARE:.0%}")
    if workload == "classify-published" and shape["binarize_or_patterns_spans"]:
        return f"{shape['binarize_or_patterns_spans']} binarize/patterns spans on a classify-only run"
    return ""


def run_workload(run: Run) -> dict[str, float]:
    if run.trace:
        metrics = TRACED[run.workload](run)
        verdict = shape_verdict(run.workload, run.report["shape"])
        run.report["shape"]["ok"] = not verdict
        if verdict:
            print(f"perfbench: WORKLOAD SHAPE CHECK FAILED on {run.workload}: {verdict}",
                  file=sys.stderr)
        return metrics
    metrics = MEASURED[run.workload](run)
    metrics["peak_rss_mb"] = peak_rss_mb()
    metrics["ok_share"] = 1.0 - run.ledger.failed / max(run.ledger.attempted, 1)
    run.report["samples"] = run.samples.counts()
    run.report["classify_p99_records"] = run.samples.total("classify_p99_records")
    return metrics
