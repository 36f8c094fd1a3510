"""Operation ledger with a wall-clock budget, sample pooling, and the child
processes a run starts (CLI calls, set-up probes)."""

from __future__ import annotations

import json
import os
import resource
import signal
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent

#: Whole run, counted from process start; a run must end within 180 s.
RUN_BUDGET_S = 150.0
#: One operation. The slowest operation today (a train-nested CLI call)
#: takes about 2.5 s on a 2-core Xeon.
OP_BUDGET_S = 60.0


def cpu_seconds() -> float:
    """CPU time of this process plus every child it has waited for.

    Every timing of the benchmark is CPU time. The program is
    single-threaded, so on an idle core this equals wall time; unlike wall
    time it leaves out the time a shared host takes the virtual CPU away,
    which on the 2-vCPU Xeon VM used to tune this benchmark moved wall
    times by 25% between runs.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + children.ru_utime + children.ru_stime


class OverBudget(BaseException):
    """Raised by the alarm; a BaseException so `except Exception` in the
    program cannot swallow it."""


def _alarm(signum, frame):
    raise OverBudget()


class Op:
    __slots__ = ("kind", "result", "seconds", "error")

    def __init__(self, kind: str):
        self.kind, self.result, self.seconds, self.error = kind, None, None, None

    @property
    def ok(self) -> bool:
        return self.error is None


class Ledger:
    """How many operations a run attempted, and why any of them failed.

    Operations are not kept, so their results are freed once the caller
    is done with them and memory does not grow with the number of passes.
    """

    def __init__(self, started: float):
        self.attempted = 0
        self.failures: list[str] = []
        self.deadline = started + RUN_BUDGET_S
        signal.signal(signal.SIGALRM, _alarm)

    def run(self, kind: str, fn, *args, **kwargs) -> Op:
        """Call `fn` under the budget; `op.seconds` is its CPU time,
        children included.

        An operation that overruns is interrupted and recorded as failed
        "over budget"; one that would start after the run budget is spent
        is recorded the same way without starting.
        """
        op = Op(kind)
        self.attempted += 1
        left = min(OP_BUDGET_S, self.deadline - perf_counter())
        if left <= 0:
            self._failed(op, "over budget: not started")
            return op
        signal.setitimer(signal.ITIMER_REAL, left)
        try:
            start = cpu_seconds()
            op.result = fn(*args, **kwargs)
            op.seconds = cpu_seconds() - start
        except OverBudget:
            self._failed(op, f"over budget: {kind} passed {left:.1f} s")
        except Exception as exc:
            self._failed(op, f"{type(exc).__name__}: {exc}")
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        return op

    def fail(self, op: Op, failures: list[str]) -> None:
        """Mark `op` failed when an output check found something."""
        if failures and op.ok:
            self._failed(op, "; ".join(failures))

    def _failed(self, op: Op, error: str) -> None:
        op.error = error
        self.failures.append(f"{op.kind}: {error}")

    @property
    def failed(self) -> int:
        return len(self.failures)


class Samples:
    """Timing samples grouped by the dataset (or tree) they were taken on."""

    def __init__(self):
        self._by = defaultdict(lambda: defaultdict(list))

    def add(self, metric: str, group, value: float) -> None:
        self._by[metric][group].append(value)

    def mean_of_medians(self, metric: str) -> float:
        """Median per group, then the mean over groups, so that a group
        sampled once more than another does not tilt the figure."""
        groups = self._by[metric]
        if not groups:
            return 0.0
        return statistics.fmean(statistics.median(v) for v in groups.values())

    def median(self, metric: str) -> float:
        values = [v for g in self._by[metric].values() for v in g]
        return statistics.median(values) if values else 0.0

    def mean(self, metric: str) -> float:
        values = [v for g in self._by[metric].values() for v in g]
        return statistics.fmean(values) if values else 0.0

    def total(self, metric: str) -> float:
        return sum(v for g in self._by[metric].values() for v in g)

    def ratio(self, numerator: str, denominator: str) -> float:
        """Sum of one metric over the sum of another, e.g. records per second."""
        total = self.total(denominator)
        return self.total(numerator) / total if total else 0.0

    def counts(self) -> dict[str, int]:
        return {m: sum(len(v) for v in g.values()) for m, g in self._by.items()}


#: Keeps numpy's thread pools, if any, to the one core a run may use.
SINGLE_THREAD = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


def child_env(root: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(root / "src"), **SINGLE_THREAD)


def run_cli(root: Path, *argv: str) -> str:
    """`ladrating <argv>` in a child process; returns its standard output."""
    proc = subprocess.run(
        [sys.executable, "-m", "ladrating.cli", *argv],
        cwd=root, env=child_env(root), capture_output=True, text=True,
    )
    if proc.returncode != 0:
        tail = (proc.stderr.strip().splitlines() or ["no message"])[-1]
        raise RuntimeError(f"ladrating {argv[0]} exited {proc.returncode}: {tail}")
    return proc.stdout


def import_cli(root: Path) -> None:
    """`python -c "import ladrating.cli"`: interpreter start plus imports."""
    subprocess.run(
        [sys.executable, "-c", "import ladrating.cli"],
        cwd=root, env=child_env(root), check=True, capture_output=True,
    )


def setup_probe(root: Path, spec: dict) -> float:
    """One cold set-up in a child process; returns its own timing."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), json.dumps(spec)],
        cwd=root, env=child_env(root), check=True, capture_output=True, text=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])
