#!/usr/bin/env python3
"""ladrating benchmark.

    python3 perfbench/run.py --workload train-nested --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table
    python3 perfbench/run.py --check-shape             # traced runs on seeds 0 and 1

Run from the root of a source checkout: the program is imported from
`src/` and the published trees are read from `data/trees/`. Inputs are
generated from `--seed` and written as CSV under `.perfbench_work/`, which
is removed at the end; traced runs write their spans to `.perfbench_out/`.

With `--trace 0` the run reports the end-to-end metrics of BENCHMARK.json,
with `--trace 1` the per-layer ones. The last line of standard output is
the result object; the line before it holds the environment, the workload's
reason, units, directions, sample counts, tree hashes and the layer map.
A human-readable table goes to standard error.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import harness

STARTED = perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def missing_sources(workload: str) -> str:
    """What the checkout lacks for this workload, or ''."""
    if not (ROOT / "src" / "ladrating" / "__init__.py").is_file():
        return f"no ladrating sources under {ROOT / 'src'}"
    if not (ROOT / "BENCHMARK.json").is_file():
        return f"no BENCHMARK.json in {ROOT}"
    if workload == "classify-published":
        for year in (2012, 2013, 2014, 2015):
            if not (ROOT / "data" / "trees" / f"tree_{year}.txt").is_file():
                return f"no published tree data/trees/tree_{year}.txt"
    return ""


def import_program():
    sys.path.insert(0, str(ROOT / "src"))
    lad = importlib.import_module("ladrating")
    where = Path(lad.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise ImportError(f"ladrating was imported from {where}, not from {ROOT / 'src'}")
    return lad


def environment(seed: int) -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(l.split(":", 1)[1].strip() for l in fh if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "seed": seed,
    }


def print_table(workload: str, metrics: dict, units: dict) -> None:
    print(f"{workload}:", file=sys.stderr)
    for name, value in metrics.items():
        print(f"  {name:28} {value:>14.6g} {units[name]}", file=sys.stderr)


def run_one(args, spec: dict) -> int:
    problem = missing_sources(args.workload)
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    os.environ.update(harness.SINGLE_THREAD)
    try:
        lad = import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    import workloads

    kind = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m for m in spec[kind]}
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    run = workloads.Run(lad, ROOT, work, ROOT / ".perfbench_out", args, STARTED)
    try:
        metrics = workloads.run_workload(run)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    if set(metrics) != set(declared):
        print(f"perfbench: metrics {sorted(set(metrics) ^ set(declared))} do not match "
              f"BENCHMARK.json", file=sys.stderr)
        return 3
    ledger = run.ledger
    why = next(w["why"] for w in spec["workloads"] if w["name"] == args.workload)
    report = {
        "workload": args.workload,
        "why": why,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(args.seed),
        "units": {n: [m["unit"], m["better"]] if "better" in m else [m["unit"]]
                  for n, m in declared.items()},
        "errors": ledger.failures[:10],
        "layer_to_end_to_end": importlib.import_module("layers").LAYER_TO_END_TO_END,
        **run.report,
    }
    print_table(args.workload, {n: metrics[n] for n in declared}, {n: m["unit"] for n, m in declared.items()})
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {n: {"value": metrics[n], "unit": declared[n]["unit"]} for n in declared},
    }))
    return 0


def child(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """Run one workload in a child process and return its parsed output."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"perfbench: {workload} seed {seed} exited {proc.returncode}")
    return {"report": json.loads(lines[-2])["report"], "result": json.loads(lines[-1])}


def run_all(args, names) -> int:
    results = {w: child(w, args.seed, args.seconds, args.trace)["result"] for w in names}
    print(json.dumps({"workloads": results}))
    return 0 if all(r["correct"] for r in results.values()) else 1


def check_shape(args, names) -> int:
    """Traced runs on seed 0 and one other seed; non-zero when any workload
    stopped loading the layer it is named for."""
    import workloads

    bad = 0
    for seed in (0, args.seed or 1):
        for workload in names:
            shape = child(workload, seed, 1, 1)["report"]["shape"]
            verdict = workloads.shape_verdict(workload, shape)
            shares = (f"minimize {shape['minimize_share']:.1%}, mining {shape['mining_share']:.1%}, "
                      f"binarize/patterns spans {shape['binarize_or_patterns_spans']}")
            print(f"{workload:20} seed {seed}: {'FAILED ' + verdict if verdict else 'ok'} ({shares})")
            bad += bool(verdict)
    return 1 if bad else 0


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        print(f"perfbench: no BENCHMARK.json in {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*names, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check-shape", action="store_true",
                        help="traced runs of every workload on seed 0 and on --seed (default 1)")
    args = parser.parse_args(argv)
    if args.check_shape:
        return check_shape(args, names)
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args, names)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
