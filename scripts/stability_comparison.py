#!/usr/bin/env python3
"""Paired stability runs: every loss on identical data, margin sweep.

For each margin, trains the toy cosine classifier with each loss kind on
the same seeded dataset and prints final accuracy, the gradient-norm peak,
and whether anything went non-finite.  N-Softmax has no margin, so it is
trained once; so is any other config listed twice.  Telemetry CSVs land
in --outdir, named by loss and margin; two margins that print alike there
are refused.
"""

import argparse
import os
import sys

from chebymargin.cli import _comma_list
from chebymargin.losses import LossKind, LossSpec
from chebymargin.toytrain import STABILITY_SCALE, TrainConfig, train


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--margins", default="0.3,0.5")
    parser.add_argument("--scale", type=float, default=STABILITY_SCALE)
    parser.add_argument("--degree", type=int, default=LossSpec.degree)
    parser.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    parser.add_argument("--seed", type=int, default=TrainConfig.seed)
    parser.add_argument("--outdir", default="out")
    args = parser.parse_args()
    # Every run's config is built, and so checked, before the first
    # directory or file is made.  A dict keeps each distinct config once,
    # in the order first built, with its file tag.
    try:
        configs, margins = {}, {}
        for margin in _comma_list("--margins", args.margins, float, "margin"):
            for kind in LossKind:
                # N-Softmax runs without a margin.
                loss_margin = 0.0 if kind is LossKind.N_SOFTMAX else margin
                spec = LossSpec(kind, margin=loss_margin, scale=args.scale, degree=args.degree)
                tag = f"{spec.kind.value}_m{spec.margin:g}"
                if margins.setdefault(tag, spec.margin) != spec.margin:
                    raise ValueError(
                        f"margins {margins[tag]!r} and {spec.margin!r} share the file tag {tag}"
                    )
                configs[TrainConfig(loss=spec, epochs=args.epochs, seed=args.seed)] = tag
        os.makedirs(args.outdir, exist_ok=True)
    except (ValueError, OSError) as exc:
        sys.exit(f"{parser.prog}: error: {exc}")

    print(f"{'margin':>6} {'loss':>10} {'accuracy':>9} {'grad_max':>9} {'nan':>5}")
    for config, tag in configs.items():
        telemetry = train(config)
        spec = config.loss
        telemetry.write_csv(os.path.join(args.outdir, f"telemetry_{tag}.csv"))
        telemetry.write_summary(os.path.join(args.outdir, f"telemetry_{tag}.summary"))
        print(
            f"{spec.margin:6g} {spec.kind.value:>10} {telemetry.final_accuracy:9.4f} "
            f"{telemetry.grad_norm_max:9.2f} {str(telemetry.nan_seen).lower():>5}"
        )


if __name__ == "__main__":
    main()
