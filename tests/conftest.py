import csv
import random
from pathlib import Path

import numpy as np
import pytest

from ladrating import (
    CountryRecord,
    DEFAULT_SCALE,
    Dataset,
    Literal,
    classify,
    export_decision_tree,
    import_decision_tree,
    serialize_dataset,
    split_dataset,
    train_cascade,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
TREE_DIR = REPO_ROOT / "data" / "trees"
MISMATCH_CSV = REPO_ROOT / "data" / "mismatches_2012_2015.csv"

TREE_YEARS = (2012, 2013, 2014, 2015)


def tree_text(year: int) -> str:
    return (TREE_DIR / f"tree_{year}.txt").read_text()


def make_record(country: str, values: dict, rating=None, year: int = 2012) -> CountryRecord:
    return CountryRecord(country, year, values, rating)


def literal_rows(cutpoints, records) -> tuple[list[Literal], np.ndarray]:
    """The oracle of a view's rows: per cut point its >=-literal, then its
    <=-literal, and their truth by `Literal.evaluate` (row i, column r is
    literal i on record r)."""
    literals = [Literal(cp.indicator, d, cp.threshold) for cp in cutpoints for d in (">=", "<=")]
    truth = np.array([[lit.evaluate(r) for r in records] for lit in literals], dtype=bool)
    return literals, truth.reshape(len(literals), len(records))


@pytest.fixture(scope="session")
def tree_2012_model():
    return import_decision_tree(tree_text(2012), DEFAULT_SCALE, 2012, strict=False)


@pytest.fixture(scope="session")
def noisy_tree(tmp_path_factory):
    """A model trained on `noisy_dataset(0)` (a 0.65 split), its exported
    tree as `noisy.tree.txt` and the dataset as `noisy.csv`: (tree path,
    data path, model). Its tables hold many literals per code."""
    root = tmp_path_factory.mktemp("noisy")
    dataset = split_dataset(noisy_dataset(0), 0.65, 0)
    model = train_cascade(dataset)
    tree, data = root / "noisy.tree.txt", root / "noisy.csv"
    tree.write_text(export_decision_tree(model))
    data.write_text(serialize_dataset(dataset))
    return tree, data, model


@pytest.fixture(scope="session")
def mismatch_rows():
    """(year, split, country, model, observed) rows of the published tables."""
    with MISMATCH_CSV.open() as fh:
        return [
            (int(r["year"]), r["split"], r["country"], r["model"], r["observed"])
            for r in csv.DictReader(fh)
        ]


def noisy_dataset(seed: int, n_records: int = 150):
    """Weak-signal data: a 16-class latent (class index plus N(0, 1)) seen
    through C, EX, G and IM, indicator j scaled by 1 + 0.1 j, each with
    N(0, 10) noise rounded to 4 places and 10% of values missing (never all
    four of a record). Many cut points and long pattern lists per stage."""
    rng = random.Random(seed)
    classes = DEFAULT_SCALE.classes
    codes = ("C", "EX", "G", "IM")
    records = []
    for i in range(n_records):
        c = rng.randrange(len(classes))
        latent = c + rng.gauss(0.0, 1.0)
        values = {
            code: round(latent * (1 + 0.1 * j) + rng.gauss(0.0, 10.0), 4)
            for j, code in enumerate(codes)
        }
        present = [rng.random() >= 0.1 for _ in codes]
        while not any(present):
            present = [rng.random() >= 0.1 for _ in codes]
        kept = {code: v for (code, v), keep in zip(values.items(), present) if keep}
        records.append(make_record(f"noisy{i:03d}", kept, classes[c]))
    return Dataset(records=tuple(records))


def published_tree_dataset(year: int, seed: int, n_records: int = 100):
    """Records rated by a published tree, at the paper's scale of about 100
    countries: each of the tree's indicators uniform over its threshold range
    widened by a quarter on each side, rounded to 4 places, 10% missing."""
    model = import_decision_tree(tree_text(year), DEFAULT_SCALE, year, strict=False)
    thresholds: dict[str, list[float]] = {}
    for stage in model.stages:
        for pattern in stage.patterns:
            for lit in pattern.literals:
                thresholds.setdefault(lit.indicator, []).append(lit.threshold)
    rng = random.Random(seed)
    records = []
    for i in range(n_records):
        values = {}
        for code, ts in sorted(thresholds.items()):
            lo, hi = min(ts), max(ts)
            pad = 0.25 * ((hi - lo) or abs(lo) or 1.0)
            v = round(rng.uniform(lo - pad, hi + pad), 4)
            if rng.random() >= 0.1:
                values[code] = v
        rating = classify(model, make_record(f"country{i:03d}", values, year=year))
        records.append(make_record(f"country{i:03d}", values, rating, year))
    return Dataset(records=tuple(records))
