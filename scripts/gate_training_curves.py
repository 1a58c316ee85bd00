"""Train both gate variants on one synthetic draw and dump their traces.

Writes one CSV per variant with the loss history and prints the final gate
means next to the planted marginal columns, so the optimization behavior of
the two losses can be compared directly.

Usage:
    python scripts/gate_training_curves.py --epochs 300 --out-dir traces
"""

import argparse
import csv
import pathlib
import sys

from mlscore.data import standardize
from mlscore.evaluation import score_dataset
from mlscore.gates import TrainConfig
from mlscore.scores import select_top
from mlscore.synth import SynthSpec, gen_setup

VARIANTS = ("dufs", "dufs-mls")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--setup", type=int, default=1)
    parser.add_argument("--rho", type=float, default=0.9)
    parser.add_argument("--n", type=int, default=300, dest="n_samples")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--epochs", type=int, default=300)
    parser.add_argument("--lr", type=float, default=0.1)
    parser.add_argument("--out-dir", default=".")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    drawn = gen_setup(
        SynthSpec(setup=args.setup, rho=args.rho, n_samples=args.n_samples,
                  seed=args.seed)
    )
    ds, _ = standardize(drawn.dataset)
    config = TrainConfig(epochs=args.epochs, learning_rate=args.lr, seed=args.seed)
    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    planted = set(drawn.marginal_feature_indices)
    print(f"planted marginal columns: {sorted(planted)}")
    for variant in VARIANTS:
        report, trace = score_dataset(ds, variant, train_config=config)

        path = out_dir / f"loss-{variant}.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "loss"])
            for epoch, loss in enumerate(trace.loss_history):
                writer.writerow([epoch, repr(float(loss))])

        top = select_top(report, 5)
        hits = len(planted & set(top))
        print(f"{variant}: final loss {trace.loss_history[-1]:.4f}, "
              f"top-5 by gate mean {sorted(top)} "
              f"({hits}/5 planted), wrote {path}")
        for line in report.warnings:
            print(f"{variant}: {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
