"""One cold set-up of a workload, timed (CPU time) from before
`import ladrating`.

Run as a child process by `run.py`, so every sample pays the package
import (numpy included) as a user's process does:

    python3 perfbench/setup_probe.py '<json spec>'

The spec names the source directory, the CSV files with their split seeds
(null for no split) and the tree files with their years. Prints the
CPU seconds taken. `run.py` imports `load_inputs` for its own in-process set-up.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def load_inputs(lad, spec: dict):
    """Load and split every dataset, import every tree (lenient)."""
    datasets = []
    for path, split_seed in spec["datasets"]:
        with open(path, newline="") as fh:
            ds = lad.load_dataset(fh)
        if split_seed is not None:
            ds = lad.split_dataset(ds, spec["split_fraction"], split_seed)
        datasets.append(ds)
    models = [
        lad.import_decision_tree(Path(path).read_text(), lad.DEFAULT_SCALE, year, strict=False)
        for path, year in spec["trees"]
    ]
    return datasets, models


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    start = time.process_time()
    import ladrating

    load_inputs(ladrating, spec)
    print(repr(time.process_time() - start))
    return 0


if __name__ == "__main__":
    sys.exit(main())
