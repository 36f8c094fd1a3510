"""Workload inputs, made from the seed alone and written as CSV.

Nothing here imports `ladrating` at module level: `setup_probe.py` times a
cold import of the program, and the caller passes the imported package in.
"""

from __future__ import annotations

import csv
import random
from pathlib import Path

YEAR = 2012
SPLIT_FRACTION = 0.65

#: Per-run dataset counts. Each run trains several datasets so that one
#: unlucky draw of the generator does not set a run's figures.
NESTED_DATASETS = 4
NOISY_DATASETS = 24

NESTED_RECORDS = 300
NOISY_RECORDS = 150
NOISY_CODES = ("C", "EX", "G", "IM")  # the first four built-in indicators
NOISY_SD = 10.0

PROBES = 10_000
PROBE_WIDEN = 0.25
MISSING_SHARE = 0.10
TREE_YEARS = (2012, 2013, 2014, 2015)


def dataset_seeds(seed: int, count: int) -> list[int]:
    """Generator seeds of a run's datasets; the first is the run seed itself."""
    return [seed + 10_000 * i for i in range(count)]


def write_csv(path: Path, codes, rows) -> None:
    """Rows are (country, year, rating or None, {code: value})."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["country", "year", "rating", *codes])
        for country, year, rating, values in rows:
            cells = [repr(values[c]) if c in values else "" for c in codes]
            writer.writerow([country, year, rating or "", *cells])


def nested_rows(seed: int):
    """`synthetic.nested_dataset`: classes are bands of G, so every stage
    is one >=-literal, but hundreds of candidate cut points must be cut down
    to it."""
    from ladrating.synthetic import nested_dataset

    ds = nested_dataset(seed, n_records=NESTED_RECORDS)
    codes = ds.indicator_codes()
    rows = [(r.country_id, r.year, r.observed_rating, dict(r.values)) for r in ds.records]
    return codes, rows


def noisy_rows(seed: int, classes):
    """Weak-signal data: a 16-class latent (class index plus N(0, 1)) seen
    through four indicators, indicator j scaled by 1 + 0.1 j, each with
    N(0, 10) noise and 10% of values missing (never all four of a record)."""
    rng = random.Random(seed)
    rows = []
    for i in range(NOISY_RECORDS):
        c = rng.randrange(len(classes))
        latent = c + rng.gauss(0.0, 1.0)
        values = {
            code: round(latent * (1 + 0.1 * j) + rng.gauss(0.0, NOISY_SD), 4)
            for j, code in enumerate(NOISY_CODES)
        }
        present = [rng.random() >= MISSING_SHARE for _ in NOISY_CODES]
        while not any(present):
            present = [rng.random() >= MISSING_SHARE for _ in NOISY_CODES]
        values = {code: v for (code, v), keep in zip(values.items(), present) if keep}
        rows.append((f"noisy{i:03d}", YEAR, classes[c], values))
    return list(NOISY_CODES), rows


def threshold_ranges(models) -> dict[str, tuple[float, float]]:
    """Per indicator, the threshold range over every literal of the models."""
    seen: dict[str, list[float]] = {}
    for model in models:
        stages = list(model.stages) + ([model.tail] if model.tail else [])
        for stage in stages:
            for pattern in stage.patterns:
                for lit in pattern.literals:
                    seen.setdefault(lit.indicator, []).append(lit.threshold)
    return {code: (min(v), max(v)) for code, v in seen.items()}


def probe_values(seed: int, codes, ranges) -> list[dict[str, float]]:
    """Uniform over each indicator's threshold range widened by 25% on each
    side, 10% of values missing."""
    rng = random.Random(seed)
    probes = []
    for _ in range(PROBES):
        values = {}
        for code in codes:
            lo, hi = ranges[code]
            pad = PROBE_WIDEN * ((hi - lo) or abs(lo) or 1.0)
            v = round(rng.uniform(lo - pad, hi + pad), 4)
            if rng.random() >= MISSING_SHARE:
                values[code] = v
        probes.append(values)
    return probes
