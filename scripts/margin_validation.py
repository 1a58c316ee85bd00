"""Check that margin weights separate the minority class on synthetic data.

For each (setup, rho) cell this draws one dataset, computes the sample
weights u over a quantile sweep, and reports the two-sample KS distance
between the classes. A label-shuffle control on the same draws shows the
distances collapse once the labels are scrambled.

Usage:
    python scripts/margin_validation.py --rho 0.9 --setups 1,2,3
"""

import argparse
import sys

import numpy as np

from mlscore.data import Dataset
from mlscore.evaluation import margin_weight_separation
from mlscore.margins import MarginConfig
from mlscore.synth import SynthSpec, gen_setup

DEFAULT_QUANTILES = (0.025, 0.05, 0.1, 0.2)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--setups", default="1,2,3")
    parser.add_argument("--rho", type=float, default=0.9)
    parser.add_argument("--n", type=int, default=1000, dest="n_samples")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--quantiles", default=",".join(str(q) for q in DEFAULT_QUANTILES)
    )
    parser.add_argument("--shuffles", type=int, default=5,
                        help="label-shuffle control repeats per cell")
    return parser.parse_args(argv)


def shuffled_copy(ds: Dataset, rng: np.random.Generator) -> Dataset:
    return Dataset(
        values=ds.values,
        feature_names=ds.feature_names,
        labels=rng.permutation(ds.labels),
    )


def main(argv=None):
    args = parse_args(argv)
    setups = [int(s) for s in args.setups.split(",")]
    quantiles = [float(q) for q in args.quantiles.split(",")]
    config = MarginConfig()

    header = f"{'setup':>5} {'q':>6} {'ks_distance':>12} {'p_value':>10} {'shuffled_max_D':>15}"
    print(header)
    for setup in setups:
        spec = SynthSpec(
            setup=setup, rho=args.rho, n_samples=args.n_samples, seed=args.seed
        )
        ds = gen_setup(spec).dataset
        rows = margin_weight_separation(ds, config, quantiles)

        rng = np.random.default_rng(args.seed + 1)
        control = np.zeros(len(quantiles))
        for _ in range(args.shuffles):
            noise = margin_weight_separation(
                shuffled_copy(ds, rng), config, quantiles
            )
            control = np.maximum(control, [d for _, d, _ in noise])

        for (q, d, p), ctrl in zip(rows, control):
            print(f"{setup:>5} {q:>6.3f} {d:>12.3f} {p:>10.2e} {ctrl:>15.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
