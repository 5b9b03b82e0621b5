#!/usr/bin/env python3
"""Regenerate the curve and surface CSVs behind the transform/landscape plots.

Writes, into --outdir:
  curves_m{margin}.csv     exact transform + series approximations with
                           first and second derivatives
  surfaces_m{margin}.csv   two-class dL/ds_p surfaces for nsoftmax,
                           aamsoftmax, and chebyaam
  gap_sweep.csv            hard/easy gradient-gap ratios across scales
"""

import argparse
import os
import sys

from chebymargin.cli import _comma_list
from chebymargin.fileio import write_lines_atomic
from chebymargin.landscape import derivative_gap, export_curves, export_surfaces
from chebymargin.losses import LossKind, LossSpec


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--margin", type=float, default=LossSpec.margin)
    parser.add_argument("--degrees", default="2,30")
    parser.add_argument("--scale", type=float, default=LossSpec.scale)
    parser.add_argument("--grid", type=int, default=2001)
    parser.add_argument("--surface-grid", type=int, default=201)
    parser.add_argument("--outdir", default="out")
    args = parser.parse_args()
    # Every grid and spec is checked before the first directory or file
    # is made; a curve degree is checked as a ChebyAAM spec's.  The gap
    # sweep's specs differ from these only in their fixed scales.
    try:
        for flag, grid in (("--grid", args.grid), ("--surface-grid", args.surface_grid)):
            if grid < 2:
                raise ValueError(f"{flag} needs at least 2 grid points, got {grid}")
        degrees = _comma_list("--degrees", args.degrees, int, "degree")
        for k, degree in enumerate(degrees):
            LossSpec(LossKind.CHEBY_AAM, margin=args.margin, scale=args.scale, degree=degree)
            # ``export_curves`` refuses this too, but only after makedirs.
            if degree in degrees[:k]:
                raise ValueError(f"duplicate degree {degree} in curve export")
        specs = [
            LossSpec(LossKind.N_SOFTMAX, scale=args.scale),
            LossSpec(LossKind.AAM_SOFTMAX, margin=args.margin, scale=args.scale),
            LossSpec(LossKind.CHEBY_AAM, margin=args.margin, scale=args.scale, degree=max(degrees)),
        ]
        os.makedirs(args.outdir, exist_ok=True)
    except (ValueError, OSError) as exc:
        sys.exit(f"{parser.prog}: error: {exc}")

    curves_path = os.path.join(args.outdir, f"curves_m{args.margin:g}.csv")
    export_curves(args.margin, degrees, args.grid, curves_path)
    print(f"wrote {curves_path}")

    surfaces_path = os.path.join(args.outdir, f"surfaces_m{args.margin:g}.csv")
    export_surfaces(specs, args.surface_grid, surfaces_path)
    print(f"wrote {surfaces_path}")

    sweep_path = os.path.join(args.outdir, "gap_sweep.csv")
    lines = ["scale,loss,grad_A,grad_B,ratio"]
    for scale in (1.0, 30.0, 32.0, 64.0):
        for spec in (
            LossSpec(LossKind.AAM_SOFTMAX, margin=args.margin, scale=scale),
            LossSpec(LossKind.CHEBY_AAM, margin=args.margin, scale=scale, degree=max(degrees)),
        ):
            gap = derivative_gap(spec)
            lines.append(
                f"{scale:g},{spec.kind.value},{gap.grad_a!r},{gap.grad_b!r},{gap.ratio!r}"
            )
    write_lines_atomic(sweep_path, lines)
    print(f"wrote {sweep_path}")


if __name__ == "__main__":
    main()
