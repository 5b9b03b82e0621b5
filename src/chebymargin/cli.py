"""Command-line interface.

Subcommands: coeffs, eval-psi, gradcheck, lipschitz, landscape, train,
score.  Every run prints its fully resolved configuration on stderr, data
tables go to stdout, and bulk grids go to ``--out`` files.  Exit codes:
0 success, 1 usage or I/O error, 2 check failure.

Defaults for ``--seed`` come from the ``CHEBYMARGIN_SEED`` environment
variable when set.  Each subcommand accepts ``--config FILE`` with
``key=value`` lines (``#`` comments allowed); explicit flags win over
config-file values.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import cheby_core, landscape, verif_metrics
from .losses import CosineBatch, LossKind, LossSpec, default_margin, loss_grad_check
from .toytrain import TrainConfig, train

SEED_ENV = "CHEBYMARGIN_SEED"
LOSS_CHOICES = [kind.value for kind in LossKind]


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit 1 instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _loss_spec(args) -> LossSpec:
    return LossSpec(LossKind(args.loss), margin=args.margin, scale=args.scale, degree=args.degree)


def _default_margin(args):
    """``--margin`` left out: each loss's own default, comma-listed in
    ``--losses`` order for landscape surfaces; curves plot ChebyAAM's."""
    if "loss" in args:
        return default_margin(LossKind(args.loss))
    if args.kind == "curves":
        return default_margin(LossKind.CHEBY_AAM)
    return ",".join(str(default_margin(LossKind(name))) for name in args.losses.split(",") if name)


def _print_resolved(args) -> None:
    skip = {"func", "config"}
    pairs = " ".join(
        f"{key}={value}" for key, value in sorted(vars(args).items()) if key not in skip
    )
    print(f"# config {pairs}", file=sys.stderr)


def _with_config(subparsers, argv: list[str]) -> list[str]:
    """Splice the ``--config`` file in right after the subcommand.

    Each ``key=value`` line becomes the flag ``--key=value``, so argparse
    checks it like a flag and explicit flags, which come later, win.
    """
    sub_name = next((token for token in argv if not token.startswith("-")), None)
    path = None
    for token, following in zip(argv, argv[1:] + [None]):
        if token == "--config":
            path = following
        elif token.startswith("--config="):
            path = token.split("=", 1)[1]
    subparser = subparsers.choices.get(sub_name)
    if subparser is None or path is None:
        return argv
    try:
        with open(path, "rb") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        subparser.error(f"cannot read config file {path}: {exc.strerror}")
    tokens = []
    for lineno, raw in enumerate(lines, start=1):
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            subparser.error(f"{path}:{lineno}: cannot decode byte 0x{raw[exc.start]:02x} as UTF-8")
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        key, sep, value = (part.strip() for part in stripped.partition("="))
        if not sep:
            subparser.error(f"{path}:{lineno}: expected key=value, got {stripped!r}")
        option = "--" + key.replace("_", "-")
        if option not in subparser._option_string_actions:
            subparser.error(f"{path}:{lineno}: unknown config key {key!r}")
        tokens.append(f"{option}={value}")
    sub_index = argv.index(sub_name) + 1
    return argv[:sub_index] + tokens + argv[sub_index:]


def _cmd_coeffs(args) -> int:
    series = cheby_core.coefficients(args.margin, args.degree)
    print("k,a_k")
    for k, a_k in enumerate(series.coefficients):
        print(f"{k},{float(a_k)!r}")
    return 0


def _cmd_eval_psi(args) -> int:
    series = cheby_core.coefficients(args.margin, args.degree)
    exact = cheby_core.exact_psi(args.x, args.margin)
    approx = cheby_core.clenshaw_eval(series, args.x)
    print(f"psi={exact!r}")
    print(f"cheb{args.degree}={approx!r}")
    print(f"abs_error={abs(exact - approx)!r}")
    print(f"error_bound={cheby_core.approx_error_bound(args.margin, args.degree)!r}")
    return 0


def _cmd_gradcheck(args) -> int:
    rng = np.random.default_rng(args.seed)
    cosines = rng.uniform(-0.95, 0.95, (args.batch_size, args.classes))
    labels = rng.integers(0, args.classes, args.batch_size)
    report = loss_grad_check(_loss_spec(args), CosineBatch(cosines, labels), step=args.step)
    print(f"max_rel_error={report.max_rel_error!r}")
    print(f"max_abs_grad={report.max_abs_grad!r}")
    if report.has_large_grad:
        print(f"large_grad_entries={report.large_grad_entries}")
    if report.max_rel_error <= args.tol:
        print("gradcheck PASS")
        return 0
    print(f"gradcheck FAIL (tol {args.tol!r})")
    return 2


def _cmd_lipschitz(args) -> int:
    series = cheby_core.coefficients(args.margin, args.degree)
    print(f"{cheby_core.lipschitz_constant(series)!r}")
    return 0


def _cmd_landscape(args) -> int:
    if args.kind == "curves":
        degrees = [int(d) for d in args.degrees.split(",") if d]
        landscape.export_curves(args.margin, degrees, args.grid, args.out)
    else:
        names = [name for name in args.losses.split(",") if name]
        margins = [float(margin) for margin in str(args.margin).split(",") if margin]
        if len(margins) == 1:  # a given --margin serves every loss
            margins *= len(names)
        specs = [
            LossSpec(LossKind(name), margin=margin, scale=args.scale, degree=args.degree)
            for name, margin in zip(names, margins)
        ]
        landscape.export_surfaces(specs, args.grid, args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_train(args) -> int:
    config = TrainConfig(
        loss=_loss_spec(args),
        epochs=args.epochs,
        batch_size=args.batch_size,
        peak_lr=args.peak_lr,
        warmup_fraction=args.warmup_fraction,
        seed=args.seed,
        dim=args.dim,
        num_classes=args.classes,
        samples_per_class=args.samples_per_class,
        spread=args.spread,
        momentum=args.momentum,
    )
    telemetry = train(config)
    telemetry.write_csv(args.out)
    summary_path = args.summary_out or f"{args.out}.summary"
    telemetry.write_summary(summary_path)
    print(f"steps={len(telemetry.records)}")
    print(f"final_accuracy={telemetry.final_accuracy!r}")
    print(f"grad_norm_max={telemetry.grad_norm_max!r}")
    print(f"nan_seen={str(telemetry.nan_seen).lower()}")
    print(f"wrote {args.out} and {summary_path}")
    return 0


def _cmd_score(args) -> int:
    trials = verif_metrics.parse_trials(args.trials, args.scores)
    eer, _ = verif_metrics.compute_eer(trials)
    min_dcf = verif_metrics.compute_min_dcf(trials, verif_metrics.DcfParams(args.p_target))
    print(f"EER% {eer * 100.0:.4f}")
    print(f"minDCF {min_dcf:.4f}")
    return 0


def _add_margin_flag(sub):
    # No argparse default: ``main`` fills in the one that fits the loss.
    sub.add_argument(
        "--margin",
        type=float,
        default=argparse.SUPPRESS,
        help="margin (default: 2 for asoftmax, an integer multiplier; 0.3 otherwise)",
    )


def _add_loss_flags(sub):
    sub.add_argument("--loss", choices=LOSS_CHOICES, default="chebyaam", help="loss kind")
    _add_margin_flag(sub)
    sub.add_argument("--scale", type=float, default=32.0, help="logit scale factor")
    sub.add_argument("--degree", type=int, default=30, help="series degree")


def build_parser() -> tuple[_Parser, argparse._SubParsersAction]:
    # No abbreviated long options: ``--conf`` would bypass the config-file
    # splice, and ``landscape --loss`` would be read as ``--losses``.
    parser = _Parser(
        prog="chebymargin",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        allow_abbrev=False,
    )
    subparsers = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, func, help_text):
        sub = subparsers.add_parser(
            name,
            help=help_text,
            formatter_class=argparse.ArgumentDefaultsHelpFormatter,
            allow_abbrev=False,
        )
        sub.add_argument("--config", default=None, help="key=value config file")
        sub.set_defaults(func=func)
        return sub

    sub = add("coeffs", _cmd_coeffs, "print the series coefficients as k,a_k CSV")
    sub.add_argument("--margin", type=float, default=0.3, help="margin in radians")
    sub.add_argument("--degree", type=int, default=30, help="series degree")

    sub = add("eval-psi", _cmd_eval_psi, "evaluate the exact and series transforms at x")
    sub.add_argument("--margin", type=float, default=0.3, help="margin in radians")
    sub.add_argument("--degree", type=int, default=30, help="series degree")
    sub.add_argument("--x", type=float, default=0.5, help="cosine evaluation point")

    sub = add("gradcheck", _cmd_gradcheck, "finite-difference check of the analytic gradient")
    _add_loss_flags(sub)
    sub.add_argument("--batch-size", type=int, default=8, help="rows in the random batch")
    sub.add_argument("--classes", type=int, default=16, help="columns in the random batch")
    sub.add_argument("--step", type=float, default=1e-5, help="finite-difference step")
    sub.add_argument("--tol", type=float, default=1e-5, help="max relative error to pass")
    sub.add_argument("--seed", type=int, default=os.environ.get(SEED_ENV, "0"), help="batch seed")

    sub = add("lipschitz", _cmd_lipschitz, "exact Lipschitz constant f'(1) of the series transform")
    sub.add_argument("--margin", type=float, default=0.3, help="margin in radians")
    sub.add_argument("--degree", type=int, default=30, help="series degree")

    sub = add("landscape", _cmd_landscape, "export curve or surface CSV data")
    sub.add_argument("--kind", choices=["curves", "surfaces"], default="curves")
    _add_margin_flag(sub)
    sub.add_argument("--degrees", default="2,30", help="comma list of degrees (curves)")
    sub.add_argument("--degree", type=int, default=30, help="series degree (surfaces)")
    sub.add_argument("--scale", type=float, default=32.0, help="logit scale (surfaces)")
    sub.add_argument(
        "--losses",
        default="nsoftmax,aamsoftmax,chebyaam",
        help="comma list of loss kinds (surfaces)",
    )
    sub.add_argument("--grid", type=int, default=201, help="grid points per axis")
    sub.add_argument("--out", required=True, help="output CSV path")

    sub = add("train", _cmd_train, "train the toy cosine classifier and dump telemetry")
    _add_loss_flags(sub)
    sub.add_argument("--epochs", type=int, default=30, help="training epochs")
    sub.add_argument("--batch-size", type=int, default=64, help="SGD batch size")
    sub.add_argument("--peak-lr", type=float, default=0.2, help="peak learning rate")
    sub.add_argument("--warmup-fraction", type=float, default=0.1, help="warmup span")
    sub.add_argument("--dim", type=int, default=32, help="embedding dimension")
    sub.add_argument("--classes", type=int, default=16, help="number of classes")
    sub.add_argument("--samples-per-class", type=int, default=200, help="points per class")
    sub.add_argument("--spread", type=float, default=0.005, help="cluster noise scale")
    sub.add_argument("--momentum", type=float, default=0.0, help="SGD momentum")
    sub.add_argument("--seed", type=int, default=os.environ.get(SEED_ENV, "0"), help="run seed")
    sub.add_argument("--out", required=True, help="telemetry CSV path")
    sub.add_argument("--summary-out", default=None, help="summary path (default OUT.summary)")

    sub = add("score", _cmd_score, "EER and minDCF from trial and score files")
    sub.add_argument("--trials", required=True, help="trial list: label enroll test")
    sub.add_argument("--scores", required=True, help="score list: enroll test score")
    sub.add_argument("--p-target", type=float, default=0.01, help="target prior")

    return parser, subparsers


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, subparsers = build_parser()
    try:
        args = parser.parse_args(_with_config(subparsers, argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if "margin" not in args and args.subcommand in ("gradcheck", "landscape", "train"):
            args.margin = _default_margin(args)
        _print_resolved(args)
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"chebymargin {args.subcommand}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
