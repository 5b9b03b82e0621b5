"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and the recorded sweeps.
"""

import math
import subprocess
import sys
import time

import numpy as np

from chebymargin.cheby_core import (
    clenshaw_eval,
    coefficients,
    exact_psi,
    exact_psi_grad,
    lipschitz_constant,
    series_derivative,
    series_hessian,
)
from chebymargin.landscape import derivative_gap
from chebymargin.losses import CosineBatch, LossKind, LossSpec, loss_grad_check
from chebymargin.toytrain import STABILITY_SCALE, TrainConfig, train
from chebymargin.verif_metrics import DcfParams, Trials, compute_eer, compute_min_dcf
from test_verif_metrics import brute_force_eer, brute_force_min_dcf


def report(number: int, name: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    print(f"[ACCEPTANCE {number}] {status} {name}" + (f" ({detail})" if detail else ""))
    assert passed, f"criterion {number} ({name}): {detail}"


def test_criterion_1_reference_coefficients():
    """coefficients(0.2, 30) reproduces the reference leading values."""
    expected = np.array([-0.1265, 0.98007, 0.08433, 0.0, 0.01687])
    elapsed = min(
        _timed(lambda: coefficients(0.2, 30))[1] for _ in range(10)
    )
    series = coefficients(0.2, 30)
    deviation = np.max(np.abs(series.coefficients[:5] - expected))
    passed = deviation < 5e-4 and elapsed < 1e-3
    report(
        1,
        "reference coefficient reproduction",
        passed,
        f"max deviation {deviation:.2e}, runtime {elapsed * 1e6:.1f}us",
    )


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def test_criterion_2_approximation_bound():
    """Grid sup error stays under the telescoped tail bound for the whole
    margin/degree sweep, and degree 30 strictly beats degree 2."""
    start = time.perf_counter()
    grid = np.linspace(-1.0, 1.0, 100001)
    worst_excess = -np.inf
    ok = True
    for margin in (0.1, 0.2, 0.3, 0.5):
        errors = {}
        for degree in (2, 5, 10, 20, 30, 40, 50):
            series = coefficients(margin, degree)
            err = float(np.max(np.abs(exact_psi(grid, margin) - clenshaw_eval(series, grid))))
            bound = 2.0 * math.sin(margin) / (math.pi * (2 * (degree // 2) + 1))
            # the bound is attained exactly at x = +-1; allow rounding slack
            worst_excess = max(worst_excess, err - bound)
            ok &= err <= bound + 1e-12
            errors[degree] = err
        ok &= errors[30] < errors[2]
    elapsed = time.perf_counter() - start
    ok &= elapsed < 5.0
    report(
        2,
        "approximation bound sweep",
        ok,
        f"worst err-bound excess {worst_excess:.2e}, runtime {elapsed:.2f}s",
    )


def test_criterion_3_gradient_correctness():
    """100 seeded batches pass the loss gradient check for all four kinds;
    the series derivative and Hessian pass their own FD gates."""
    start = time.perf_counter()
    specs = [
        LossSpec(LossKind.N_SOFTMAX, margin=0.0),
        LossSpec(LossKind.AM_SOFTMAX, margin=0.2),
        LossSpec(LossKind.AAM_SOFTMAX, margin=0.3),
        LossSpec(LossKind.CHEBY_AAM, margin=0.3, degree=30),
    ]
    worst = {}
    for spec in specs:
        worst_err = 0.0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            batch = CosineBatch(
                rng.uniform(-0.95, 0.95, (8, 16)), rng.integers(0, 16, 8)
            )
            worst_err = max(worst_err, loss_grad_check(spec, batch).max_rel_error)
        worst[spec.kind.value] = worst_err
    losses_ok = all(err <= 1e-5 for err in worst.values())

    series = coefficients(0.3, 30)
    x = np.linspace(-0.99, 0.99, 2001)
    h1 = 1e-5
    fd1 = (clenshaw_eval(series, x + h1) - clenshaw_eval(series, x - h1)) / (2 * h1)
    d1 = series_derivative(series, x)
    rel1 = float(np.max(np.abs(fd1 - d1) / np.maximum(1e-12, np.abs(d1))))
    # step 2e-5: at 1e-4 the stencil's own truncation error exceeds the
    # 1e-5 gate where the fourth derivative of the series peaks
    h2 = 2e-5
    fd2 = (series_derivative(series, x + h2) - series_derivative(series, x - h2)) / (2 * h2)
    d2 = series_hessian(series, x)
    rel2 = float(np.max(np.abs(fd2 - d2) / np.maximum(1.0, np.maximum(np.abs(fd2), np.abs(d2)))))

    elapsed = time.perf_counter() - start
    passed = losses_ok and rel1 <= 1e-6 and rel2 <= 1e-5 and elapsed < 10.0
    detail = (
        "loss worst " + ", ".join(f"{k}={v:.1e}" for k, v in worst.items())
        + f"; d1 {rel1:.1e}, d2 {rel2:.1e}, runtime {elapsed:.2f}s"
    )
    report(3, "gradient correctness", passed, detail)


def test_criterion_4_bounded_versus_exploding():
    """Series Lipschitz constant stays small while the exact derivative
    blows up approaching the edge.

    Both are slopes against the cosine, the ``dL/dcos`` factor ``psi'``.
    Along the sphere the weight rows move on, AAM's pull
    ``|psi'(x)| sin(theta)`` stays at most 1 and nothing explodes; this
    criterion does not measure that.
    """
    start = time.perf_counter()
    series = coefficients(0.3, 30)
    lip = lipschitz_constant(series)
    exact_near = exact_psi_grad(1 - 1e-6, 0.3)
    exact_nearer = exact_psi_grad(1 - 1e-10, 0.3)
    series_near = series_derivative(series, 1 - 1e-6)
    series_nearer = series_derivative(series, 1 - 1e-10)
    series_change = abs(series_nearer - series_near) / abs(series_near)
    elapsed = time.perf_counter() - start
    passed = (
        lip < 10
        and exact_near > 100
        and exact_nearer >= 10 * exact_near
        and series_change < 0.01
        and elapsed < 1.0
    )
    report(
        4,
        "bounded vs exploding derivative",
        passed,
        f"Lipschitz {lip:.3f}, exact {exact_near:.1f}->{exact_nearer:.1f}, "
        f"series change {series_change:.2e}, runtime {elapsed:.2f}s",
    )


def test_criterion_5_hard_easy_gradient_gap():
    """The series loss separates hard from easy examples more than the
    arccos-path loss at the default scale; the scale sweep is recorded."""
    start = time.perf_counter()
    sweep = []
    for scale in (1.0, 30.0, 32.0, 64.0):
        cheby = derivative_gap(LossSpec(LossKind.CHEBY_AAM, margin=0.3, scale=scale, degree=30))
        aam = derivative_gap(LossSpec(LossKind.AAM_SOFTMAX, margin=0.3, scale=scale))
        sweep.append((scale, cheby.ratio, aam.ratio))
        print(f"  gap sweep s={scale:g}: cheby {cheby.ratio:.6g}, aam {aam.ratio:.6g}")
    default = next(entry for entry in sweep if entry[0] == 32.0)
    elapsed = time.perf_counter() - start
    passed = default[1] > default[2] and elapsed < 1.0
    report(
        5,
        "hard/easy gradient gap",
        passed,
        f"at s=32: cheby {default[1]:.6g} > aam {default[2]:.6g}, runtime {elapsed:.2f}s",
    )


def test_criterion_6_desk_scale_stability():
    """Paired 30-epoch runs at margin 0.5 on identical data: the series
    run finishes clean and accurate with no larger gradient peaks than the
    arccos-path run.  (Full-benchmark verification numbers are out of
    reach at desk scale; this bounded-gradient property is the stand-in.)

    ``grad_norm_max`` is the largest norm of ``dL/dcos``, the gradient
    against the cosines, not of the step the renormalized weights take.
    The inequality holds at the degree this runs at, 30, not at every
    degree: below its slope cap the series' slope overshoots ``psi'``,
    and at degree 100 (seed 0) ChebyAAM's peak is 48.4 against AAM's
    47.5.
    """
    start = time.perf_counter()
    shared = dict(
        epochs=30, batch_size=64, seed=0, dim=32, num_classes=16, samples_per_class=200
    )
    cheby = train(
        TrainConfig(
            loss=LossSpec(LossKind.CHEBY_AAM, margin=0.5, scale=STABILITY_SCALE, degree=30),
            **shared,
        )
    )
    aam = train(
        TrainConfig(
            loss=LossSpec(LossKind.AAM_SOFTMAX, margin=0.5, scale=STABILITY_SCALE),
            **shared,
        )
    )
    elapsed = time.perf_counter() - start
    passed = (
        not cheby.nan_seen
        and cheby.final_accuracy >= 0.95
        and cheby.grad_norm_max <= aam.grad_norm_max
        and elapsed < 120.0
    )
    report(
        6,
        "desk-scale stability run",
        passed,
        f"cheby acc {cheby.final_accuracy:.3f}, gmax {cheby.grad_norm_max:.2f} "
        f"<= aam gmax {aam.grad_norm_max:.2f}, runtime {elapsed:.1f}s",
    )


def test_criterion_7_metric_oracle_equivalence():
    """EER and minDCF match an exhaustive threshold sweep on 1000 random
    score sets, plus the degenerate-detector edge cases."""
    start = time.perf_counter()
    params = DcfParams(p_target=0.01)
    rng = np.random.default_rng(2024)
    worst_eer = worst_dcf = 0.0
    for _ in range(1000):
        n_t = int(rng.integers(1, 26))
        n_n = int(rng.integers(1, 26))
        targets = list(rng.normal(0.5, 1.0, n_t))
        nontargets = list(rng.normal(-0.5, 1.0, n_n))
        scores = Trials(targets + nontargets, [True] * n_t + [False] * n_n)
        eer = compute_eer(scores)
        worst_eer = max(worst_eer, abs(eer - brute_force_eer(targets, nontargets)))
        dcf = compute_min_dcf(scores, params)
        worst_dcf = max(worst_dcf, abs(dcf - brute_force_min_dcf(targets, nontargets, params)))

    perfect = Trials([0.9, 0.1], [True, False])
    eer_perfect = compute_eer(perfect)
    dcf_perfect = compute_min_dcf(perfect, params)
    blind = Trials([0.5, 0.3, 0.5, 0.3], [True, True, False, False])
    dcf_blind = compute_min_dcf(blind, params)

    elapsed = time.perf_counter() - start
    passed = (
        worst_eer <= 1e-12
        and worst_dcf <= 1e-12
        and eer_perfect == 0.0
        and dcf_perfect == 0.0
        and dcf_blind == 1.0
        and elapsed < 10.0
    )
    report(
        7,
        "metric oracle equivalence",
        passed,
        f"worst |eer delta| {worst_eer:.1e}, worst |dcf delta| {worst_dcf:.1e}, "
        f"runtime {elapsed:.2f}s",
    )


def test_criterion_8_clenshaw_equivalence():
    """Clenshaw evaluation equals naive T_k summation to 1e-12 across the
    full margin/degree/point sweep."""
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    for margin in (0.1, 0.2, 0.3, 0.5):
        for degree in (2, 5, 10, 30, 50):
            series = coefficients(margin, degree)
            x = rng.uniform(-1.0, 1.0, 1000)
            naive = np.polynomial.chebyshev.chebvander(x, degree) @ series.coefficients
            worst = max(worst, float(np.max(np.abs(clenshaw_eval(series, x) - naive))))
    elapsed = time.perf_counter() - start
    passed = worst <= 1e-12 and elapsed < 1.0
    report(
        8,
        "clenshaw equivalence",
        passed,
        f"worst |clenshaw - naive| {worst:.1e}, runtime {elapsed:.2f}s",
    )


def test_criterion_9_cli_determinism(tmp_path):
    """Repeated train and landscape invocations produce byte-identical
    files."""
    start = time.perf_counter()

    def run(*argv):
        result = subprocess.run(
            [sys.executable, "-m", "chebymargin.cli", *argv],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        return result

    train_files = []
    for name in ("train_a.csv", "train_b.csv"):
        path = tmp_path / name
        run(
            "train", "--loss", "chebyaam", "--margin", "0.3", "--epochs", "3",
            "--seed", "11", "--out", str(path),
        )
        train_files.append(path.read_bytes())
    landscape_files = []
    for name in ("scape_a.csv", "scape_b.csv"):
        path = tmp_path / name
        run("landscape", "--kind", "curves", "--grid", "2001", "--out", str(path))
        landscape_files.append(path.read_bytes())

    elapsed = time.perf_counter() - start
    passed = (
        train_files[0] == train_files[1]
        and landscape_files[0] == landscape_files[1]
        and elapsed < 120.0
    )
    report(
        9,
        "train/landscape determinism",
        passed,
        f"train bytes {len(train_files[0])}, landscape bytes {len(landscape_files[0])}, "
        f"runtime {elapsed:.1f}s",
    )
