#!/usr/bin/env python3
"""Write gap_sweep.csv into --outdir: the hard/easy gradient-gap ratios of
AAM-Softmax and ChebyAAM across logit scales.  The curve and surface CSVs
behind the other plots come from ``chebymargin landscape`` (see README).
"""

import argparse
import os
import sys

from chebymargin.fileio import write_lines_atomic
from chebymargin.landscape import derivative_gap
from chebymargin.losses import LossKind, LossSpec


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--margin", type=float, default=LossSpec.margin)
    parser.add_argument("--degree", type=int, default=LossSpec.degree)
    parser.add_argument("--outdir", default="out")
    args = parser.parse_args()
    # The sweep's specs are its only checks, made before the directory is.
    try:
        specs = [
            spec
            for scale in (1.0, 30.0, 32.0, 64.0)
            for spec in (
                LossSpec(LossKind.AAM_SOFTMAX, margin=args.margin, scale=scale),
                LossSpec(LossKind.CHEBY_AAM, margin=args.margin, scale=scale, degree=args.degree),
            )
        ]
        os.makedirs(args.outdir, exist_ok=True)
    except (ValueError, OSError) as exc:
        sys.exit(f"{parser.prog}: error: {exc}")

    lines = ["scale,loss,grad_A,grad_B,ratio"]
    for spec in specs:
        gap = derivative_gap(spec)
        lines.append(
            f"{spec.scale:g},{spec.kind.value},{gap.grad_a!r},{gap.grad_b!r},{gap.ratio!r}"
        )
    sweep_path = os.path.join(args.outdir, "gap_sweep.csv")
    write_lines_atomic(sweep_path, lines)
    print(f"wrote {sweep_path}")


if __name__ == "__main__":
    main()
