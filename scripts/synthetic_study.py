#!/usr/bin/env python3
"""Train/test fidelity distributions on the synthetic generators.

Reports, per seed and generator: training fidelity, held-out accuracy, and
whether the prevalence relaxation fired anywhere in the cascade.
"""

import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ladrating import MiningConfig, evaluate, split_dataset, train_cascade  # noqa: E402
from ladrating.synthetic import clustered_dataset, nested_dataset  # noqa: E402


def main(n_seeds: int = 20) -> int:
    config = MiningConfig()
    print(f"{'generator':12} {'seed':>4} {'train':>7} {'test':>7} relaxed")
    for generator in (nested_dataset, clustered_dataset):
        train_scores, test_scores = [], []
        for seed in range(n_seeds):
            ds = split_dataset(generator(seed=seed, n_records=90), 0.65, seed=seed)
            model = train_cascade(ds, config)
            report = evaluate(model, ds)
            tr, te = report.match_ratio_train, report.match_ratio_test
            relaxed = any(s.relaxations for s in model.stages)
            train_scores.append(tr)
            test_scores.append(te)
            print(f"{generator.__name__:12} {seed:>4} {tr:>7.3f} {te:>7.3f} {relaxed}")
        print(
            f"{generator.__name__:12} mean  train {statistics.mean(train_scores):.3f}  "
            f"test {statistics.mean(test_scores):.3f}  "
            f"(test min {min(test_scores):.3f})\n"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]) if len(sys.argv) > 1 else 20))
