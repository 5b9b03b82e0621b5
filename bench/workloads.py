"""The benchmark workloads: their CLI argv, inputs and output checks.

Every workload runs ``chebymargin.cli.main`` in-process.  One op is one
``cli.main`` invocation, except on ``landscape-export``, where one op is
the surfaces invocation followed by the curves invocation, so that every
op of a workload does the same work and the median op is meaningful.

``prepare`` runs in the benchmark's parent process and writes any inputs;
``check_op`` runs in the worker after each op, outside the timed region.
The checks do not call chebymargin: coefficients, Lipschitz constants,
surfaces and EER/minDCF are recomputed here with closed forms and
``numpy.polynomial``.
"""

from __future__ import annotations

import hashlib
import math
import os
import time

import numpy as np

import vox1e

WORKLOADS = {
    "train-toy": "CLI-default desk-scale run: 1500 SGD steps of 64x16, so per-call overhead in the "
    "Clenshaw transform dominates",
    "score-vox1e": "579,818 generated VoxCeleb1-E-sized trials through parse_trials, EER and minDCF; "
    "file parsing, no training layer",
    "landscape-export": "surfaces (3 losses, grid 201) plus curves (degrees 2/30/100): the only bulk "
    "CSV writer and the only caller of series_hessian",
}

# Full sizes and the tiny sizes used by the harness self-test.
SIZES = {
    False: {
        "toy": {"epochs": 30, "spc": 200},  # the CLI defaults, not passed
        "vox": {},
        "surface_grid": 201,
        "curve_grid": 20001,
    },
    True: {
        "toy": {"epochs": 2, "spc": 8},
        "vox": {"n_trials": 2001, "n_speakers": 20, "n_utts": 600},
        "surface_grid": 11,
        "curve_grid": 101,
    },
}

MARGIN, SCALE, DEGREE = 0.3, 32.0, 30  # CLI defaults of train and landscape
CURVE_DEGREES = (2, 30, 100)
SURFACE_LOSSES = ("nsoftmax", "aamsoftmax", "chebyaam")
P_TARGET = 0.01  # CLI default of score
COS_EDGE_EPS = 1e-7  # documented clamp of the exact derivative at |x| = 1


def prepare(name: str, seed: int, work_dir: str, tiny: bool = False) -> dict:
    """Build the spec a worker runs: op argv, outputs to hash, expectations."""
    sizes = SIZES[tiny]
    path = lambda leaf: os.path.join(work_dir, leaf)  # noqa: E731
    spec = {"workload": name, "seed": seed, "generate_s": 0.0}
    if name == "train-toy":
        toy = sizes["toy"]
        extra = ["--epochs", str(toy["epochs"]), "--samples-per-class", str(toy["spc"])]
        argv = ["train", "--seed", str(seed), *(extra if tiny else []), "--out", path("train.csv")]
        steps = toy["epochs"] * -(-16 * toy["spc"] // 64)  # CLI defaults: 16 classes, batch 64
        spec.update(ops=[argv], outputs=[path("train.csv"), path("train.csv.summary")],
                    items_per_op=steps, item_unit="steps",
                    expect={"steps": steps, "grad_bound": grad_bound(MARGIN, DEGREE, SCALE)})
    elif name == "score-vox1e":
        start = time.perf_counter()
        scores, is_target = vox1e.write_files(seed, path("trials.txt"), path("scores.txt"),
                                              **sizes["vox"])
        eer, min_dcf = vox1e.reference_metrics(scores, is_target, P_TARGET)
        spec["generate_s"] = time.perf_counter() - start
        argv = ["score", "--trials", path("trials.txt"), "--scores", path("scores.txt")]
        spec.update(ops=[argv], outputs=[], items_per_op=int(scores.size), item_unit="trials",
                    expect={"eer_pct": eer * 100.0, "min_dcf": min_dcf})
    elif name == "landscape-export":
        sg, cg = sizes["surface_grid"], sizes["curve_grid"]
        surfaces = ["landscape", "--kind", "surfaces", "--grid", str(sg),
                    "--out", path("surfaces.csv")]
        curves = ["landscape", "--kind", "curves", "--degrees",
                  ",".join(map(str, CURVE_DEGREES)), "--grid", str(cg),
                  "--out", path("curves.csv")]
        spec.update(ops=[surfaces, curves], outputs=[path("surfaces.csv"), path("curves.csv")],
                    items_per_op=len(SURFACE_LOSSES) * sg * sg + cg, item_unit="rows",
                    expect={"surface_grid": sg, "curve_grid": cg})
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    return spec


# ---------------------------------------------------------------- oracles


def series_coefficients(margin: float, degree: int) -> np.ndarray:
    """Chebyshev coefficients of cos(arccos(x) + m), summed from the
    expansion sqrt(1 - x^2) = 2/pi - (4/pi) sum_k T_{2k}(x) / (4k^2 - 1)."""
    a = np.zeros(degree + 1)
    a[1] = math.cos(margin)
    a[0] = -2.0 * math.sin(margin) / math.pi
    k = np.arange(1, degree // 2 + 1)
    a[2 * k] = 4.0 * math.sin(margin) / (math.pi * (4.0 * k * k - 1.0))
    return a


def grad_bound(margin: float, degree: int, scale: float) -> float:
    """``scale * max(1, L)``: the paper's bound on any loss-vs-cosine entry.

    Non-target entries are ``s p_j <= s``; the target entry is
    ``s |f'(x)| (1 - p_y) <= s L`` with ``L = max |f'|`` on [-1, 1].
    """
    d1 = np.polynomial.chebyshev.chebder(series_coefficients(margin, degree))
    grid = np.linspace(-1.0, 1.0, 100001)
    lipschitz = float(np.max(np.abs(np.polynomial.chebyshev.chebval(grid, d1))))
    return scale * max(1.0, lipschitz)


def _close(a: float, b: float, rtol: float = 1e-8, atol: float = 1e-10) -> bool:
    return abs(a - b) <= atol + rtol * abs(b)


def _check_curves(path: str, grid_n: int) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = ["x", "psi", "psi_d1", "psi_d2"] + [
        f"cheb{d}{suffix}" for d in CURVE_DEGREES for suffix in ("", "_d1", "_d2")
    ]
    if lines[0].split(",") != header:
        return [f"curves header {lines[0]!r}"]
    if len(lines) != grid_n + 1:
        return [f"curves has {len(lines) - 1} rows, expected {grid_n}"]
    cheb = np.polynomial.chebyshev
    series = {}
    for d in CURVE_DEGREES:
        a = series_coefficients(MARGIN, d)
        series[d] = (a, cheb.chebder(a), cheb.chebder(a, 2))
    errors = []
    for row in sorted({0, 1, grid_n // 3, grid_n // 2, grid_n - 2, grid_n - 1}
                      | set(range(0, grid_n, max(1, grid_n // 97)))):
        cells = lines[row + 1].split(",")
        x = float(cells[0])
        if not _close(x, -1.0 + 2.0 * row / (grid_n - 1)):
            errors.append(f"curves row {row}: x={x}")
        expect = [math.cos(math.acos(x) + MARGIN)]
        xc = math.copysign(1.0 - COS_EDGE_EPS, x) if abs(x) >= 1.0 else x
        expect.append(math.cos(MARGIN) + xc * math.sin(MARGIN) / math.sqrt(1.0 - xc * xc))
        expect.append(math.sin(MARGIN) * (1.0 - x * x) ** -1.5 if abs(x) <= 1.0 - 1e-3 else None)
        for d in CURVE_DEGREES:
            expect += [float(cheb.chebval(x, c)) for c in series[d]]
        for col, (cell, want) in enumerate(zip(cells[1:], expect), start=1):
            if want is None:
                ok = cell == ""
            else:
                ok = cell != "" and _close(float(cell), want, rtol=1e-7, atol=1e-9)
            if not ok:
                errors.append(f"curves row {row} col {header[col]}: {cell!r} vs {want!r}")
    return errors[:5]


def _surface_grad(loss: str, sp: float, sn: float) -> float:
    """d loss / d s_p of the two-class softmax loss with target logit s_p."""
    if loss == "nsoftmax":
        psi, dpsi = sp, 1.0
    elif loss == "aamsoftmax":
        psi = sp * math.cos(MARGIN) - math.sqrt(max(0.0, 1.0 - sp * sp)) * math.sin(MARGIN)
        xc = math.copysign(1.0 - COS_EDGE_EPS, sp) if abs(sp) >= 1.0 else sp
        dpsi = math.cos(MARGIN) + xc * math.sin(MARGIN) / math.sqrt(1.0 - xc * xc)
    else:
        a = series_coefficients(MARGIN, DEGREE)
        cheb = np.polynomial.chebyshev
        psi, dpsi = float(cheb.chebval(sp, a)), float(cheb.chebval(sp, cheb.chebder(a)))
    # Non-target probability 1 / (1 + exp(s (psi - s_n))).
    z = SCALE * (psi - sn)
    nontarget = math.exp(-z) / (1.0 + math.exp(-z)) if z > 0 else 1.0 / (1.0 + math.exp(z))
    return -SCALE * dpsi * nontarget


def _check_surfaces(path: str, grid_n: int) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if lines[0] != "loss,s_p,s_n,dL_dsp":
        return [f"surfaces header {lines[0]!r}"]
    per_loss = grid_n * grid_n
    if len(lines) != len(SURFACE_LOSSES) * per_loss + 1:
        return [f"surfaces has {len(lines) - 1} rows, expected {len(SURFACE_LOSSES) * per_loss}"]
    errors = []
    step = max(1, per_loss // 211)
    for li, loss in enumerate(SURFACE_LOSSES):
        for k in sorted(set(range(0, per_loss, step)) | {per_loss - 1}):
            row = li * per_loss + k
            cells = lines[row + 1].split(",")
            sp, sn, grad = float(cells[1]), float(cells[2]), float(cells[3])
            want_sp = -1.0 + 2.0 * (k // grid_n) / (grid_n - 1)
            want_sn = -1.0 + 2.0 * (k % grid_n) / (grid_n - 1)
            if cells[0] != loss or not (_close(sp, want_sp) and _close(sn, want_sn)):
                errors.append(f"surfaces row {row}: {lines[row + 1]!r}")
            elif not _close(grad, _surface_grad(loss, sp, sn), rtol=1e-7, atol=1e-9):
                errors.append(f"surfaces row {row}: {grad!r} vs {_surface_grad(loss, sp, sn)!r}")
    return errors[:5]


def _stdout_fields(text: str) -> dict:
    fields = {}
    for line in text.splitlines():
        for sep in ("=", " "):
            if sep in line:
                key, value = line.split(sep, 1)
                fields[key] = value
                break
    return fields


def digest(spec: dict, stdouts: list[str]) -> str:
    """Hash of every output file and the stdout of every invocation."""
    h = hashlib.sha256()
    for text in stdouts:
        h.update(text.encode())
    for path in spec["outputs"]:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def check_op(spec: dict, stdouts: list[str], first: bool) -> list[str]:
    """Output errors of one op; the deep file checks run on the first op
    only, since later ops must reproduce its bytes exactly."""
    name, expect = spec["workload"], spec["expect"]
    errors = []
    if name == "train-toy":
        fields = _stdout_fields(stdouts[0])
        if fields.get("nan_seen") != "false":
            errors.append(f"nan_seen={fields.get('nan_seen')}")
        if fields.get("steps") != str(expect["steps"]):
            errors.append(f"steps={fields.get('steps')}, expected {expect['steps']}")
        grad_max = float(fields.get("grad_norm_max", "nan"))
        if not grad_max <= expect["grad_bound"] * (1.0 + 1e-12):
            errors.append(f"grad_norm_max={grad_max} above bound {expect['grad_bound']}")
        if first:
            with open(spec["outputs"][0], encoding="utf-8") as fh:
                rows = fh.read().splitlines()
            if rows[0] != "step,lr,mean_loss,grad_norm,max_target_cosine":
                errors.append(f"telemetry header {rows[0]!r}")
            if len(rows) != expect["steps"] + 1:
                errors.append(f"telemetry has {len(rows) - 1} rows, expected {expect['steps']}")
    elif name == "score-vox1e":
        fields = _stdout_fields(stdouts[0])
        for key, want in (("EER%", expect["eer_pct"]), ("minDCF", expect["min_dcf"])):
            got = fields.get(key)
            # The printed value must be the 4-decimal rounding of the
            # reference; the slack covers only last-bit differences.
            if got is None or len(got.split(".")[-1]) != 4 or abs(float(got) - want) > 5e-5 + 1e-9:
                errors.append(f"{key} printed {got!r}, reference {want:.6f}")
    elif first:
        errors += _check_surfaces(spec["outputs"][0], expect["surface_grid"])
        errors += _check_curves(spec["outputs"][1], expect["curve_grid"])
    return errors
