"""Tests for the desk-scale training harness."""

import dataclasses
import math
import os
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chebymargin import losses
from chebymargin.cheby_core import coefficients, lipschitz_constant
from chebymargin.losses import CosineBatch, LossKind, LossSpec, loss_forward
from chebymargin.toytrain import (
    STABILITY_SCALE,
    WARMUP_FRACTION,
    StepRecord,
    TrainConfig,
    TrainTelemetry,
    _unit_rows,
    _warmup_cosine_lr,
    make_sphere_clusters,
    train,
)

CHEBY = LossSpec(LossKind.CHEBY_AAM, margin=0.3, scale=32.0, degree=30)


def small_config(loss, seed=0, **overrides):
    defaults = dict(
        loss=loss,
        epochs=5,
        batch_size=32,
        seed=seed,
        dim=16,
        num_classes=4,
        samples_per_class=50,
    )
    defaults.update(overrides)
    return TrainConfig(**defaults)


class TestSphereClusters:
    def test_shapes_and_balance(self):
        config = small_config(CHEBY, dim=8, num_classes=2, samples_per_class=10)
        data = make_sphere_clusters(config)
        assert data.points.shape == (20, 8)
        assert np.bincount(data.labels).tolist() == [10, 10]

    def test_unit_norm_rows(self):
        data = make_sphere_clusters(small_config(CHEBY))
        np.testing.assert_allclose(np.linalg.norm(data.points, axis=1), 1.0, atol=1e-9)

    def test_deterministic_per_seed(self):
        config = small_config(CHEBY, seed=42)
        a = make_sphere_clusters(config)
        b = make_sphere_clusters(config)
        assert a.points.tobytes() == b.points.tobytes()
        assert a.labels.tobytes() == b.labels.tobytes()

    def test_different_seed_changes_data(self):
        a = make_sphere_clusters(small_config(CHEBY, seed=1))
        b = make_sphere_clusters(small_config(CHEBY, seed=2))
        assert a.points.tobytes() != b.points.tobytes()

    def test_zero_spread_collapses_to_prototypes(self):
        config = small_config(CHEBY, spread=0.0)
        data = make_sphere_clusters(config)
        prototypes = data.points[:: config.samples_per_class]
        np.testing.assert_allclose(
            data.points, prototypes[data.labels], rtol=0, atol=1e-15
        )

    def test_rejects_small_dim(self):
        with pytest.raises(ValueError, match="^dim must be >= 2, got 1$"):
            small_config(CHEBY, dim=1)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("peak_lr", math.nan, "peak_lr must be positive and finite, got nan"),
            ("peak_lr", math.inf, "peak_lr must be positive and finite, got inf"),
            ("spread", math.nan, "spread must be non-negative and finite, got nan"),
            ("spread", math.inf, "spread must be non-negative and finite, got inf"),
        ],
    )
    def test_rejects_non_finite_or_negative_setting(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            small_config(CHEBY, **{field: value})

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("batch_size", 0, "batch_size must be >= 1, got 0"),
            ("num_classes", 1, "num_classes must be >= 2, got 1"),
            ("epochs", -1, "epochs must be >= 0, got -1"),
            ("samples_per_class", 0, "samples_per_class must be >= 1, got 0"),
            ("seed", -1, "seed must be >= 0, got -1"),
        ],
    )
    def test_rejects_out_of_range_setting(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            small_config(CHEBY, **{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("epochs", 2.5),
            ("epochs", True),
            ("batch_size", True),
            ("seed", True),
            ("dim", 16.0),
            ("num_classes", np.float64(4.0)),
            ("samples_per_class", 2.0),
        ],
    )
    def test_rejects_non_integer_count(self, field, value):
        """A float, even an integral one, or a bool is refused when the
        config is built, naming the field, not at the first step."""
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value}$"):
            small_config(CHEBY, **{field: value})

    def test_numpy_integer_counts_train_as_ints(self):
        counts = dict(epochs=2, batch_size=32, seed=1, dim=16, num_classes=4, samples_per_class=50)
        as_numpy = {name: np.int64(value) for name, value in counts.items()}
        want = train(small_config(CHEBY, **counts))
        got = train(small_config(CHEBY, **as_numpy))
        assert got.records == want.records
        np.testing.assert_array_equal(got.final_weights, want.final_weights)


class TestWarmupCosine:
    def test_starts_at_zero(self):
        assert _warmup_cosine_lr(0, 100, 0.2, 0.1) == 0.0

    def test_peak_at_warmup_end(self):
        assert _warmup_cosine_lr(10, 100, 0.2, 0.1) == pytest.approx(0.2, abs=1e-15)

    def test_linear_ramp(self):
        assert _warmup_cosine_lr(5, 100, 0.2, 0.1) == pytest.approx(0.1, abs=1e-15)

    def test_final_step_near_zero(self):
        total = 10000
        value = _warmup_cosine_lr(total - 1, total, 0.2, 0.1)
        eps = 1.0 / (total - 0.1 * total)
        oracle = 0.2 * (1 - math.cos(math.pi * eps)) / 2
        assert value == pytest.approx(oracle, rel=1e-9)
        assert value < 1e-5

    def test_rejects_out_of_range_step(self):
        with pytest.raises(ValueError):
            _warmup_cosine_lr(100, 100, 0.2, 0.1)
        with pytest.raises(ValueError):
            _warmup_cosine_lr(-1, 100, 0.2, 0.1)

    @given(
        total=st.integers(min_value=5, max_value=5000),
        peak=st.floats(min_value=1e-4, max_value=10.0),
        fraction=st.floats(min_value=0.01, max_value=0.99),
    )
    @settings(max_examples=100)
    def test_schedule_bounded_and_step_continuous(self, total, peak, fraction):
        """The rate never exceeds the peak, never goes negative, and no
        single step jumps by more than the worst local slope (covers the
        handoff at fractional warmup boundaries)."""
        values = [_warmup_cosine_lr(s, total, peak, fraction) for s in range(total)]
        assert all(0.0 <= v <= peak * (1 + 1e-12) for v in values)
        warmup_slope = peak / (fraction * total)
        cosine_slope = math.pi * peak / (2 * (total - fraction * total))
        max_jump = max(abs(b - a) for a, b in zip(values, values[1:]))
        assert max_jump <= max(warmup_slope, cosine_slope) * (1 + 1e-9)


class TestTrain:
    def test_learns_the_clusters(self):
        telemetry = train(small_config(CHEBY))
        assert telemetry.final_accuracy >= 0.95
        assert not telemetry.nan_seen
        assert np.isfinite(telemetry.grad_norm_max)

    def test_deterministic_telemetry(self):
        a = train(small_config(CHEBY, seed=3))
        b = train(small_config(CHEBY, seed=3))
        assert len(a.records) == len(b.records)
        for ra, rb in zip(a.records, b.records):
            assert (ra.step, ra.lr, ra.mean_loss, ra.grad_norm, ra.max_target_cosine) == (
                rb.step,
                rb.lr,
                rb.mean_loss,
                rb.grad_norm,
                rb.max_target_cosine,
            )
        assert a.final_accuracy == b.final_accuracy

    def test_zero_epochs_scores_initialization(self):
        telemetry = train(small_config(CHEBY, epochs=0))
        assert telemetry.records == []
        assert 0.0 <= telemetry.final_accuracy <= 1.0

    @pytest.mark.parametrize(
        "batch_size, epochs", [(64, 1), (100, 1), (1, 1), (5000, 1), (64, 0)]
    )
    def test_final_accuracy_matches_the_whole_set_oracle(self, batch_size, epochs):
        """The accuracy pass runs in row blocks of the batch size; it scores
        the same predictions as one product over every point.  220 points
        are not a multiple of 100, and 5000 exceeds them."""
        config = small_config(
            CHEBY, batch_size=batch_size, epochs=epochs, samples_per_class=55, spread=0.5
        )
        telemetry = train(config)
        data = make_sphere_clusters(config)
        predictions = np.argmax(data.points @ telemetry.final_weights.T, axis=1)
        assert telemetry.final_accuracy == np.mean(predictions == data.labels)

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/task")
    def test_default_run_leaves_blas_workers_idle(self):
        """At the default shapes no product in a run is large enough for
        BLAS to hand to a worker thread, the final accuracy pass included,
        so the process's other threads accrue no CPU time."""

        def other_threads_cpu_ticks():
            ticks = 0
            for tid in os.listdir("/proc/self/task"):
                if int(tid) == os.getpid():
                    continue
                try:
                    with open(f"/proc/self/task/{tid}/stat") as fh:
                        fields = fh.read().rsplit(")", 1)[1].split()
                except FileNotFoundError:  # the thread exited meanwhile
                    continue
                ticks += int(fields[11]) + int(fields[12])  # utime, stime
            return ticks

        # OpenBLAS stops its worker pool at fork (as a multi-CPU landscape
        # export does) and starts it again for the next product large enough
        # to thread, so this one makes the workers exist to be watched.
        square = np.ones((512, 512))
        square @ square
        if len(os.listdir("/proc/self/task")) < 2:
            pytest.skip("BLAS runs single-threaded: no worker thread to watch")
        time.sleep(0.5)  # let workers busy-waiting after that product settle
        before = other_threads_cpu_ticks()
        train(TrainConfig(loss=CHEBY, epochs=1))
        time.sleep(0.3)
        assert other_threads_cpu_ticks() == before

    def test_weight_rows_stay_unit_norm(self):
        for epochs in (1, 5):
            telemetry = train(small_config(CHEBY, epochs=epochs))
            np.testing.assert_allclose(
                np.linalg.norm(telemetry.final_weights, axis=1), 1.0, atol=1e-9
            )

    @pytest.mark.parametrize(
        "kind,margin",
        [
            (LossKind.N_SOFTMAX, 0.0),
            (LossKind.AM_SOFTMAX, 0.2),
            (LossKind.AAM_SOFTMAX, 0.3),
            (LossKind.CHEBY_AAM, 0.3),
        ],
        ids=lambda v: str(v),
    )
    def test_loss_decreases_for_every_kind(self, kind, margin):
        spec = LossSpec(kind, margin=margin, scale=32.0, degree=30)
        telemetry = train(small_config(spec))
        steps_per_epoch = len(telemetry.records) // 5
        first = np.mean([r.mean_loss for r in telemetry.records[:steps_per_epoch]])
        last = np.mean([r.mean_loss for r in telemetry.records[-steps_per_epoch:]])
        assert last < first

    def test_cheby_gradient_ceiling(self):
        """Every recorded gradient norm respects s * (1 + Lipschitz)."""
        telemetry = train(small_config(CHEBY))
        ceiling = CHEBY.scale * (1 + lipschitz_constant(coefficients(0.3, 30)))
        assert all(r.grad_norm <= ceiling for r in telemetry.records)

    def test_margin_concentrates_target_cosines(self):
        """The margin keeps pulling after plain softmax saturates, so the
        final target-cosine concentration is higher for the series loss."""
        cheby = train(small_config(CHEBY, seed=5))
        plain = train(small_config(LossSpec(LossKind.N_SOFTMAX, scale=32.0), seed=5))
        steps_per_epoch = len(cheby.records) // 5
        cheby_final = np.mean([r.max_target_cosine for r in cheby.records[-steps_per_epoch:]])
        plain_final = np.mean([r.max_target_cosine for r in plain.records[-steps_per_epoch:]])
        assert cheby_final > plain_final

    def test_numeric_blowup_flags_instead_of_crashing(self):
        """An absurd learning rate overflows the update; the run halts
        with the NaN flag set rather than raising."""
        telemetry = train(small_config(CHEBY, epochs=2, peak_lr=1e308))
        assert telemetry.nan_seen
        assert telemetry.nan_step is not None
        assert len(telemetry.records) >= telemetry.nan_step

    def test_non_finite_loss_halts_before_the_update(self):
        """At scale 1e308 the first loss overflows: the run halts at step 0
        with one record, never updates the weights and counts no gradient."""
        spec = LossSpec(LossKind.CHEBY_AAM, scale=1e308)
        with np.errstate(all="ignore"):
            telemetry = train(small_config(spec))
            untrained = train(small_config(spec, epochs=0))
        assert not math.isfinite(telemetry.records[0].mean_loss)
        assert telemetry.nan_step == 0
        assert telemetry.nan_seen
        assert len(telemetry.records) == 1
        assert telemetry.grad_norm_max == 0.0
        np.testing.assert_array_equal(telemetry.final_weights, untrained.final_weights)

    def test_nan_seen_is_derived_from_nan_step(self):
        telemetry = TrainTelemetry()
        assert telemetry.nan_step is None and not telemetry.nan_seen
        telemetry.nan_step = 3
        assert telemetry.nan_seen
        with pytest.raises(AttributeError):
            telemetry.nan_seen = False

    def test_full_size_run_is_clean_at_classification_scale(self):
        """The default desk-scale configuration (16 classes, dim 32,
        200 per class, 30 epochs, margin 0.3, scale 32) trains to high
        accuracy with finite gradients and no NaN halt."""
        telemetry = train(TrainConfig(loss=CHEBY, epochs=30, seed=0))
        assert telemetry.final_accuracy >= 0.95
        assert not telemetry.nan_seen
        assert np.isfinite(telemetry.grad_norm_max)

    def test_paired_stability_contrast(self):
        """At margin 0.5 and the stability scale, the arccos-path run hits
        larger gradient peaks than the series run on shared data."""
        cheby_spec = LossSpec(
            LossKind.CHEBY_AAM, margin=0.5, scale=STABILITY_SCALE, degree=30
        )
        aam_spec = LossSpec(LossKind.AAM_SOFTMAX, margin=0.5, scale=STABILITY_SCALE)
        shared = dict(
            seed=0, dim=32, num_classes=16, samples_per_class=50, epochs=20
        )
        cheby = train(small_config(cheby_spec, **shared))
        aam = train(small_config(aam_spec, **shared))
        assert not cheby.nan_seen
        assert cheby.grad_norm_max <= aam.grad_norm_max


def reference_train(config):
    """``train`` through the public loss path: per step, a ``take`` of the
    batch's points and labels, a checked ``CosineBatch`` and ``loss_forward``,
    then the same update and halt."""
    data = make_sphere_clusters(config)
    rng = np.random.default_rng([config.seed, 1])
    weights = _unit_rows(rng.standard_normal((config.num_classes, config.dim)))
    n = data.labels.size
    total_steps = config.epochs * -(-n // config.batch_size)
    telemetry = TrainTelemetry()
    batches = (
        order[start : start + config.batch_size]
        for order in (rng.permutation(n) for _ in range(config.epochs))
        for start in range(0, n, config.batch_size)
    )
    for step, idx in enumerate(batches):
        points, labels = data.points.take(idx, axis=0), data.labels.take(idx)
        cosines = (points @ weights.T).clip(-1.0, 1.0)
        out = loss_forward(config.loss, CosineBatch(cosines, labels))
        lr = _warmup_cosine_lr(step, total_steps, config.peak_lr, WARMUP_FRACTION)
        grad_norm = float(np.abs(out.grad_cosines).max())
        record = StepRecord(step, lr, out.mean_loss, grad_norm, float(out.target_cosines.max()))
        telemetry.records.append(record)
        finite = math.isfinite(out.mean_loss) and math.isfinite(grad_norm)
        if finite:
            telemetry.grad_norm_max = max(telemetry.grad_norm_max, grad_norm)
            with np.errstate(over="ignore", invalid="ignore"):
                weights = _unit_rows(weights - lr * (out.grad_cosines.T @ points / labels.size))
        if not (finite and np.isfinite(weights).all()):
            telemetry.nan_step = step
            break
    predictions = np.argmax(data.points @ weights.T, axis=1)
    telemetry.final_accuracy = float(np.mean(predictions == data.labels))
    telemetry.final_weights = weights
    return telemetry


def assert_same_run(got, want):
    assert got.records == want.records
    assert (got.nan_step, got.grad_norm_max, got.final_accuracy) == (
        want.nan_step,
        want.grad_norm_max,
        want.final_accuracy,
    )
    np.testing.assert_array_equal(got.final_weights, want.final_weights)


class TestPreparedStep:
    """The step ``train`` prepares once per run gives the bits of the
    public path that checks every batch."""

    @pytest.mark.parametrize("kind", list(LossKind), ids=lambda kind: kind.value)
    def test_matches_the_public_path(self, kind):
        """220 points at batch 64 leave a short last batch of 28."""
        spec = LossSpec(kind, scale=8.0, degree=30)
        config = small_config(spec, epochs=3, batch_size=64, samples_per_class=55, spread=0.5)
        assert_same_run(train(config), reference_train(config))

    def test_matches_the_public_path_at_the_overflow_halt(self):
        spec = LossSpec(LossKind.CHEBY_AAM, scale=1e308)
        config = small_config(spec, batch_size=64, samples_per_class=55)
        with np.errstate(all="ignore"):
            got, want = train(config), reference_train(config)
        assert got.nan_step == 0
        assert_same_run(got, want)

    # At 1e308 the points overflow; at 1e200 only the squares of their norms.
    @pytest.mark.parametrize("spread, shown", [(1e308, r"1e\+308"), (1e200, r"1e\+200")])
    def test_rejects_points_that_overflow(self, spread, shown):
        """A spread so large that the cluster points overflow is an error
        at the run's boundary, as the batch check made it at the first step,
        and no overflow warning escapes."""
        with pytest.raises(ValueError, match=f"^spread {shown} overflows the cluster points$"):
            train(small_config(CHEBY, spread=spread))


class TestTelemetryFiles:
    def test_csv_and_summary_round_trip(self, tmp_path):
        telemetry = train(small_config(CHEBY, epochs=2))
        csv_path = tmp_path / "telemetry.csv"
        summary_path = tmp_path / "telemetry.summary"
        telemetry.write_csv(str(csv_path))
        telemetry.write_summary(str(summary_path))

        lines = csv_path.read_text().splitlines()
        assert lines[0] == "step,lr,mean_loss,grad_norm,max_target_cosine"
        assert len(lines) == 1 + len(telemetry.records)
        first = lines[1].split(",")
        assert int(first[0]) == 0
        assert float(first[2]) == telemetry.records[0].mean_loss

        summary = dict(line.split("=", 1) for line in summary_path.read_text().splitlines())
        assert float(summary["final_accuracy"]) == telemetry.final_accuracy
        assert summary["nan_seen"] == "false"
        assert int(summary["steps"]) == len(telemetry.records)


def _hybrid(transform, series_part):
    """Test-local target transform for a ChebyAAM spec that takes only
    ``series_part`` from the series: ``"slope"`` pairs AAM's exact value
    ``psi`` with the series slope ``f_K'``, and ``"value"`` pairs the series
    value ``f_K`` with AAM's exact slope ``psi'``."""

    def hybrid(spec):
        exact = transform(dataclasses.replace(spec, kind=LossKind.AAM_SOFTMAX))
        series = transform(spec)

        def evaluate(x):
            (psi, dpsi), (f, df) = exact(x), series(x)
            return (psi, df) if series_part == "slope" else (f, dpsi)

        return evaluate

    return hybrid


@pytest.mark.parametrize("seed", [0, 1])
def test_slope_not_value_sets_the_gradient_peak(monkeypatch, seed):
    """At scale 4, m 0.5, degree 30, ChebyAAM's lower ``grad_norm_max``
    comes through the series slope ``f_K'``: the "slope" hybrid trains like
    ChebyAAM, and the "value" hybrid like AAM.  Measured: "slope" within
    +0.2% and +0.0% of ChebyAAM, "value" within +0.7% and +0.7% of AAM.
    At degree 10 the same bounds fail (+1.6% and +1.4%; +4.2% and +5.3%),
    so they are not pinned there."""
    cheby = LossSpec(LossKind.CHEBY_AAM, margin=0.5, scale=STABILITY_SCALE, degree=30)
    aam = dataclasses.replace(cheby, kind=LossKind.AAM_SOFTMAX)
    peak = {
        spec.kind: train(TrainConfig(loss=spec, seed=seed)).grad_norm_max for spec in (cheby, aam)
    }
    transform = losses._target_transform
    for series_part in ("slope", "value"):
        monkeypatch.setattr(losses, "_target_transform", _hybrid(transform, series_part))
        peak[series_part] = train(TrainConfig(loss=cheby, seed=seed)).grad_norm_max
    # The two references lie far apart, so each bound tells the hybrids apart.
    assert peak[LossKind.CHEBY_AAM] < 0.5 * peak[LossKind.AAM_SOFTMAX]
    assert abs(peak["slope"] / peak[LossKind.CHEBY_AAM] - 1) <= 0.01
    assert abs(peak["value"] / peak[LossKind.AAM_SOFTMAX] - 1) <= 0.05
