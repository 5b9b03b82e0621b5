"""Tests for the margin-loss family and its analytic gradients."""

import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chebymargin.cheby_core import (
    approx_error_bound,
    exact_psi,
    exact_psi_grad,
    coefficients,
    lipschitz_constant,
)
from chebymargin import losses
from chebymargin.losses import (
    CosineBatch,
    LossKind,
    LossSpec,
    binary_derivative_surface,
    loss_forward,
    loss_grad_check,
    transform_target_logit,
)

ALL_SPECS = [
    LossSpec(LossKind.N_SOFTMAX, margin=0.0),
    LossSpec(LossKind.A_SOFTMAX, margin=2),
    LossSpec(LossKind.AM_SOFTMAX, margin=0.2),
    LossSpec(LossKind.AAM_SOFTMAX, margin=0.3),
    LossSpec(LossKind.CHEBY_AAM, margin=0.3, degree=30),
]


def random_batch(seed, rows=8, classes=16, limit=0.95):
    rng = np.random.default_rng(seed)
    return CosineBatch(
        rng.uniform(-limit, limit, (rows, classes)),
        rng.integers(0, classes, rows),
    )


def grad_target(spec, s_p, s_n):
    """``d loss / d s_p`` of the two-class loss at one point, via loss_forward."""
    out = loss_forward(spec, CosineBatch(np.array([[s_p, s_n]]), np.array([0])))
    return float(out.grad_cosines[0, 0])


class TestLossSpec:
    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            LossSpec(LossKind.N_SOFTMAX, scale=0.0)

    @pytest.mark.parametrize("scale", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_scale(self, scale):
        with pytest.raises(ValueError, match=rf"scale must be positive and finite, got {scale}"):
            LossSpec(LossKind.CHEBY_AAM, scale=scale)

    def test_rejects_negative_margin(self):
        message = r"^margin must be non-negative and finite, got -0\.1$"
        with pytest.raises(ValueError, match=message):
            LossSpec(LossKind.AAM_SOFTMAX, margin=-0.1)

    def test_a_softmax_needs_integer_margin(self):
        with pytest.raises(ValueError):
            LossSpec(LossKind.A_SOFTMAX, margin=1.5)
        LossSpec(LossKind.A_SOFTMAX, margin=3)

    def test_cheby_needs_degree(self):
        with pytest.raises(ValueError):
            LossSpec(LossKind.CHEBY_AAM, degree=0)

    @pytest.mark.parametrize("margin", [2.0, 5.0, math.inf, math.nan])
    def test_am_softmax_margin_below_two(self, margin):
        """At m >= 2 the target logit x - m is at most -1, so it can never win."""
        with pytest.raises(ValueError, match=rf"AM-Softmax margin must be below 2, got {margin}"):
            LossSpec(LossKind.AM_SOFTMAX, margin=margin)
        LossSpec(LossKind.AM_SOFTMAX, margin=1.99)

    @pytest.mark.parametrize("kind", [LossKind.AAM_SOFTMAX, LossKind.CHEBY_AAM])
    @pytest.mark.parametrize("margin", [2.0, math.pi / 2, math.nan])
    def test_angular_margin_below_half_pi(self, kind, margin):
        """An angular margin of pi/2 or more is rejected when the spec is
        built, not accepted (AAM) or failed later in loss_forward (ChebyAAM)."""
        with pytest.raises(ValueError, match=rf"\[0, pi/2\), got {margin}"):
            LossSpec(kind, margin=margin)
        LossSpec(kind, margin=math.pi / 2 - 1e-9)

    @pytest.mark.parametrize("margin", [math.inf, math.nan])
    @pytest.mark.parametrize("kind", list(LossKind), ids=lambda kind: kind.value)
    def test_rejects_non_finite_margin(self, kind, margin):
        """Every kind refuses a NaN or infinite margin with a ValueError
        naming it; A-Softmax's integer check must not reach int() first."""
        message = {
            LossKind.N_SOFTMAX: "margin must be non-negative and finite",
            LossKind.A_SOFTMAX: "A-Softmax margin must be a positive integer",
            LossKind.AM_SOFTMAX: "AM-Softmax margin must be below 2",
        }.get(kind, r"angular margin must be in \[0, pi/2\)")
        with pytest.raises(ValueError, match=rf"^{message}, got {margin}$"):
            LossSpec(kind, margin=margin)


class TestSpecSeries:
    def test_built_once_per_spec(self):
        spec = LossSpec(LossKind.CHEBY_AAM, margin=0.3, degree=30)
        assert spec.series is spec.series
        np.testing.assert_array_equal(spec.series.coefficients, coefficients(0.3, 30).coefficients)

    def test_dropped_spec_frees_its_series(self):
        """The series lives on its spec, so no process-wide cache holds
        it: a margin schedule that builds a spec per margin stays bounded."""
        spec = LossSpec(LossKind.CHEBY_AAM, margin=0.3)
        transform_target_logit(spec, 0.5)
        series = weakref.ref(spec.series)
        del spec
        gc.collect()
        assert series() is None

    def test_equality_and_hash_ignore_the_built_series(self):
        built, fresh = LossSpec(LossKind.CHEBY_AAM), LossSpec(LossKind.CHEBY_AAM)
        transform_target_logit(built, 0.5)
        assert "series" in vars(built) and "series" not in vars(fresh)
        assert built == fresh
        assert hash(built) == hash(fresh)


class TestCosineBatch:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match=r"^x must lie in \[-1, 1\], got 1\.5$"):
            CosineBatch(np.array([[0.5, 1.5]]), np.array([0]))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            CosineBatch(np.array([[0.5, np.nan]]), np.array([0]))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_with_message(self, value):
        """The evaluators' domain check is the only finiteness check on
        cosines, and it names the first bad value."""
        with pytest.raises(ValueError, match=rf"^x must lie in \[-1, 1\], got {value}$"):
            CosineBatch(np.array([[0.5, 0.2], [value, 0.1], [2.0, 0.0]]), np.array([0, 1, 0]))

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            CosineBatch(np.array([[0.5, 0.2]]), np.array([2]))

    @pytest.mark.parametrize("cosines", [[0.5, 0.2], [[[0.5, 0.2]]]])
    def test_rejects_non_matrix_cosines(self, cosines):
        with pytest.raises(ValueError, match=r"^cosines must be a \[batch x classes\] matrix$"):
            CosineBatch(np.array(cosines), np.array([0]))

    @pytest.mark.parametrize("labels", [[0], [0, 1, 0], [[0, 1]], 0])
    def test_rejects_labels_not_one_per_row(self, labels):
        with pytest.raises(ValueError, match="^labels must hold one class index per row$"):
            CosineBatch(np.array([[0.5, 0.2], [0.1, 0.3]]), np.array(labels))

    @pytest.mark.parametrize("shape", [(0, 4), (3, 0), (0, 0)])
    def test_rejects_empty_batch_when_built(self, shape):
        with pytest.raises(ValueError, match="^batch must not be empty$"):
            CosineBatch(np.zeros(shape), np.zeros(shape[0], dtype=int))

    def test_rejects_single_class_when_built(self):
        with pytest.raises(ValueError, match="^batch needs at least two classes$"):
            CosineBatch(np.array([[0.5], [0.1]]), np.array([0, 0]))

    @pytest.mark.parametrize("label", [0.7, -0.5, math.nan, math.inf])
    def test_rejects_non_integral_label(self, label):
        """A fractional label is an error naming the value, not label 0."""
        with pytest.raises(ValueError, match=f"labels must be integers, got {label}"):
            CosineBatch(np.array([[0.5, 0.2], [0.1, 0.3]]), [1, label])

    def test_integral_float_labels_become_ints(self):
        batch = CosineBatch(np.array([[0.5, 0.2], [0.1, 0.3]]), [1.0, 0.0])
        assert batch.labels.dtype.kind == "i"
        assert batch.labels.tolist() == [1, 0]


class TestTransform:
    def test_aam_value(self):
        spec = LossSpec(LossKind.AAM_SOFTMAX, margin=0.3)
        assert transform_target_logit(spec, 0.5) == pytest.approx(
            exact_psi(0.5, 0.3), abs=1e-15
        )
        assert transform_target_logit(spec, 0.5) == pytest.approx(0.22174, abs=1e-5)

    def test_am_is_plain_subtraction(self):
        spec = LossSpec(LossKind.AM_SOFTMAX, margin=0.2)
        assert transform_target_logit(spec, 0.5) == pytest.approx(0.3, abs=1e-15)

    def test_cheby_close_to_aam(self):
        spec = LossSpec(LossKind.CHEBY_AAM, margin=0.3, degree=30)
        aam = exact_psi(0.5, 0.3)
        assert abs(transform_target_logit(spec, 0.5) - aam) <= approx_error_bound(0.3, 30)

    def test_n_softmax_is_identity(self):
        spec = LossSpec(LossKind.N_SOFTMAX)
        x = np.linspace(-1, 1, 11)
        np.testing.assert_array_equal(transform_target_logit(spec, x), x)

    def test_a_softmax_multiplies_angle(self):
        """A-Softmax with m=2 equals the monotone continuation of
        cos(2 theta); at theta <= pi/2 that is plain cos(2 theta)."""
        spec = LossSpec(LossKind.A_SOFTMAX, margin=2)
        x = 0.8
        assert transform_target_logit(spec, x) == pytest.approx(
            math.cos(2 * math.acos(x)), abs=1e-9
        )
        # beyond theta = pi/2 the continuation branch takes over
        assert transform_target_logit(spec, -0.5) == pytest.approx(
            -math.cos(2 * math.acos(-0.5)) - 2.0, abs=1e-9
        )

    def test_a_softmax_monotone_decreasing_in_angle(self):
        spec = LossSpec(LossKind.A_SOFTMAX, margin=2)
        x = np.linspace(-1, 1, 501)
        values = transform_target_logit(spec, x)
        assert np.all(np.diff(values) > 0)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_a_softmax_continuous_across_branch_seams(self, m):
        """The piecewise continuation is C0 and C1 at every seam
        m*arccos(x) = k*pi: values agree across the seam and the slope
        tends to zero there (sin(m theta) -> 0)."""
        spec = LossSpec(LossKind.A_SOFTMAX, margin=m)
        eps = 1e-9
        for k in range(1, m):
            seam = math.cos(k * math.pi / m)
            below = transform_target_logit(spec, seam - eps)
            above = transform_target_logit(spec, seam + eps)
            assert below == pytest.approx(above, abs=1e-6)
            fd = (above - below) / (2 * eps)
            local_scale = m * m  # slope magnitude away from the seam
            assert abs(fd) < local_scale

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("x", [1 - 5e-8, -(1 - 5e-8)])
    def test_a_softmax_evaluated_where_it_is_near_the_edge(self, m, x):
        """The edge clamp moves only points exactly on |x| = 1, so a cosine
        within COS_EDGE_EPS of the edge keeps its own value."""
        spec = LossSpec(LossKind.A_SOFTMAX, margin=m)
        theta = math.acos(x)
        k = math.floor(m * theta / math.pi)
        expected = (-1) ** k * math.cos(m * theta) - 2 * k
        assert transform_target_logit(spec, x) == pytest.approx(expected, rel=0, abs=1e-12)

    @given(x=st.floats(min_value=-0.98, max_value=0.999))
    @settings(max_examples=100)
    def test_margins_penalize_target(self, x):
        """AAM and AM transforms sit strictly below the identity wherever
        the shifted angle stays within [0, pi]; the AAM inequality flips on
        the sliver x < -cos(m/2) where arccos(x) + m wraps past pi."""
        am = LossSpec(LossKind.AM_SOFTMAX, margin=0.2)
        aam = LossSpec(LossKind.AAM_SOFTMAX, margin=0.3)
        assert transform_target_logit(am, x) < x
        if x > -math.cos(0.15):
            assert transform_target_logit(aam, x) < x

    def test_cheby_converges_to_aam_with_degree(self):
        x = np.linspace(-1, 1, 2001)
        aam = exact_psi(x, 0.3)
        gaps = []
        for degree in (2, 4, 8, 16, 30, 50):
            spec = LossSpec(LossKind.CHEBY_AAM, margin=0.3, degree=degree)
            gap = np.max(np.abs(transform_target_logit(spec, x) - aam))
            assert gap <= approx_error_bound(0.3, degree) + 1e-12
            gaps.append(gap)
        assert all(b <= a + 1e-15 for a, b in zip(gaps, gaps[1:]))

    def test_rejects_out_of_domain(self):
        with pytest.raises(ValueError):
            transform_target_logit(LossSpec(LossKind.N_SOFTMAX), 1.2)

    @pytest.mark.parametrize("kind", list(LossKind))
    @pytest.mark.parametrize(
        "x, named", [(1.5, "1.5"), (math.nan, "nan"), ([0.5, -2.0, math.nan], "-2.0")]
    )
    def test_out_of_domain_message_names_first_value(self, kind, x, named):
        """Every kind checks the cosine domain at one place, naming the value."""
        margin = 2 if kind is LossKind.A_SOFTMAX else 0.3
        with pytest.raises(ValueError, match=rf"x must lie in \[-1, 1\], got {named}$"):
            transform_target_logit(LossSpec(kind, margin=margin), x)


class TestLossForward:
    def test_equal_logits_give_ln2(self):
        spec = LossSpec(LossKind.N_SOFTMAX, scale=1.0)
        for c in (-0.4, 0.0, 0.7):
            batch = CosineBatch(np.array([[c, c]]), np.array([0]))
            out = loss_forward(spec, batch)
            assert out.mean_loss == pytest.approx(math.log(2), abs=1e-14)

    def test_two_class_softmax_arithmetic(self):
        """-log(e^1.8 / (e^1.8 + e^0.2)) = log(1 + e^-1.6)."""
        spec = LossSpec(LossKind.N_SOFTMAX, scale=2.0)
        batch = CosineBatch(np.array([[0.9, 0.1]]), np.array([0]))
        out = loss_forward(spec, batch)
        assert out.mean_loss == pytest.approx(math.log(1 + math.exp(-1.6)), abs=1e-14)
        assert out.mean_loss == pytest.approx(0.18390, abs=1e-4)

    def test_cheby_zero_margin_equals_n_softmax(self):
        batch = random_batch(7)
        cheby = loss_forward(LossSpec(LossKind.CHEBY_AAM, margin=0.0, degree=12), batch)
        plain = loss_forward(LossSpec(LossKind.N_SOFTMAX), batch)
        np.testing.assert_allclose(cheby.per_sample_loss, plain.per_sample_loss, atol=1e-12)
        np.testing.assert_allclose(cheby.grad_cosines, plain.grad_cosines, atol=1e-12)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind.value)
    def test_reports_target_cosines(self, spec):
        batch = random_batch(4, rows=9, classes=5)
        out = loss_forward(spec, batch)
        expected = batch.cosines[np.arange(9), batch.labels]
        np.testing.assert_array_equal(out.target_cosines, expected)

    def test_loss_non_negative(self):
        for spec in ALL_SPECS:
            out = loss_forward(spec, random_batch(3))
            assert np.all(out.per_sample_loss >= 0.0)

    @given(classes=st.integers(min_value=2, max_value=40), scale=st.floats(0.5, 64.0))
    @settings(max_examples=30)
    def test_uniform_logits_give_ln_c(self, classes, scale):
        spec = LossSpec(LossKind.N_SOFTMAX, scale=scale)
        batch = CosineBatch(np.full((3, classes), 0.25), np.array([0, 1, classes - 1]))
        out = loss_forward(spec, batch)
        np.testing.assert_allclose(out.per_sample_loss, math.log(classes), atol=1e-12)

    def test_n_softmax_gradient_rows_sum_to_zero(self):
        out = loss_forward(LossSpec(LossKind.N_SOFTMAX, scale=32.0), random_batch(11))
        np.testing.assert_allclose(out.grad_cosines.sum(axis=1), 0.0, atol=1e-12)

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        rows=st.integers(min_value=1, max_value=16),
        classes=st.integers(min_value=2, max_value=64),
        scale=st.floats(0.5, 100.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_n_softmax_gradient_rows_sum_to_zero_property(self, seed, rows, classes, scale):
        """Softmax probabilities sum to 1, so each row of the N-Softmax
        gradient, s (p - onehot), sums to 0 up to rounding, edges included."""
        batch = random_batch(seed, rows, classes, limit=1.0)
        edges = np.random.default_rng(seed).integers(-1, 2, batch.cosines.shape)
        cosines = np.where(edges != 0, edges, batch.cosines)
        spec = LossSpec(LossKind.N_SOFTMAX, scale=scale)
        out = loss_forward(spec, CosineBatch(cosines, batch.labels))
        assert np.max(np.abs(out.grad_cosines.sum(axis=1))) <= 1e-12 * scale

    def test_rejects_empty_batch(self):
        with pytest.raises(ValueError):
            loss_forward(
                LossSpec(LossKind.N_SOFTMAX),
                CosineBatch(np.empty((0, 4)), np.empty(0, dtype=int)),
            )

    def test_rejects_single_class(self):
        with pytest.raises(ValueError):
            loss_forward(
                LossSpec(LossKind.N_SOFTMAX), CosineBatch(np.array([[0.5]]), np.array([0]))
            )

    def test_overflow_safe_at_scale_64(self):
        spec = LossSpec(LossKind.N_SOFTMAX, scale=64.0)
        out = loss_forward(spec, random_batch(5, limit=0.999))
        assert np.all(np.isfinite(out.per_sample_loss))
        assert np.all(np.isfinite(out.grad_cosines))

    def test_target_gradient_survives_deep_saturation(self):
        """Deep in the saturated regime the target probability rounds to
        exactly 1, but the non-target mass is still representable; the
        target gradient must keep its tiny non-zero value instead of
        collapsing to 0 through 1 - p."""
        spec = LossSpec(LossKind.N_SOFTMAX, scale=100.0)
        out = loss_forward(spec, CosineBatch(np.array([[0.9, -0.9]]), np.array([0])))
        target_grad = out.grad_cosines[0, 0]
        assert target_grad != 0.0
        assert target_grad == pytest.approx(-100.0 * math.exp(-180.0), rel=1e-12)


def reference_even_clenshaw(a, x):
    """The even-form Clenshaw kernel as first written: one pass over all
    of ``x``, adding each coefficient column by broadcasting."""
    a1 = a[1] if len(a) > 1 else 0.0
    c = a[0::2]
    cols = np.array([c, np.arange(len(c)) * c]).T.reshape((len(c), 2) + (1,) * x.ndim)
    two_y = np.empty((2,) + x.shape)
    two_y[...] = 4.0 * x * x - 2.0
    b1 = np.zeros_like(two_y)
    b2 = np.zeros_like(two_y)
    work = np.empty_like(two_y)
    for col in cols[:0:-1]:
        np.multiply(two_y, b1, out=work)
        work -= b2
        work += col
        b2, b1, work = b1, work, b2
    value = a1 * x + (c[0] + 0.5 * two_y[0] * b1[0] - b2[0])
    return value, a1 + 4.0 * x * b1[1]


def reference_loss_forward(spec, cosines, labels):
    """``loss_forward`` as first written: (row, label) fancy indexing,
    ndarray reductions and ``np.mean``, with the unblocked kernel."""
    rows = np.arange(cosines.shape[0])
    target_cos = cosines[rows, labels]
    if spec.kind is LossKind.CHEBY_AAM:
        a = coefficients(spec.margin, spec.degree).coefficients
        psi, dpsi = reference_even_clenshaw(a, target_cos)
    else:
        psi, dpsi = losses._target_transform(spec, target_cos)
    target_logit = spec.scale * psi
    work = spec.scale * cosines
    work[rows, labels] = target_logit
    logits_max = work.max(axis=1)
    work -= logits_max[:, None]
    np.exp(work, out=work)
    denom = work.sum(axis=1)
    work[rows, labels] = 0.0
    nontarget_mass = work.sum(axis=1) / denom
    per_sample = np.log(denom) - (target_logit - logits_max)
    work *= spec.scale / denom[:, None]
    work[rows, labels] = -spec.scale * dpsi * nontarget_mass
    return per_sample, float(np.mean(per_sample)), work


class TestLossForwardBits:
    """Flat target indexing and direct reductions change no output bit."""

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda spec: spec.kind.value)
    @pytest.mark.parametrize("shape", [(1, 2), (64, 16), (256, 1211), (2100, 2)])
    def test_matches_reference_formula(self, spec, shape):
        rng = np.random.default_rng(shape[0] * 7 + shape[1])
        cosines = rng.uniform(-1.0, 1.0, shape)
        labels = rng.integers(0, shape[1], shape[0])
        # Exact edge cosines, on target and non-target entries alike.
        cosines[rng.random(shape) < 0.1] = 1.0
        cosines[rng.random(shape) < 0.1] = -1.0
        cosines[0, labels[0]] = 1.0
        cosines[-1, labels[-1]] = -1.0
        out = loss_forward(spec, CosineBatch(cosines, labels))
        per_sample, mean_loss, grad = reference_loss_forward(spec, cosines.copy(), labels)
        np.testing.assert_array_equal(out.per_sample_loss, per_sample)
        assert out.mean_loss == mean_loss
        np.testing.assert_array_equal(out.grad_cosines, grad)

    def test_non_contiguous_cosines(self):
        """Targets are addressed row-major in a fresh buffer, whatever the
        memory layout of the batch."""
        rng = np.random.default_rng(3)
        cosines = np.asfortranarray(rng.uniform(-1.0, 1.0, (40, 9)))
        labels = rng.integers(0, 9, 40)
        strided = cosines[:, ::2]
        for spec in ALL_SPECS:
            out = loss_forward(spec, CosineBatch(strided, labels % 5))
            per_sample, _, grad = reference_loss_forward(spec, strided.copy(), labels % 5)
            np.testing.assert_array_equal(out.per_sample_loss, per_sample)
            np.testing.assert_array_equal(out.grad_cosines, grad)


class TestGradCheck:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind.value)
    def test_analytic_matches_finite_differences(self, spec):
        worst = max(
            loss_grad_check(spec, random_batch(seed)).max_rel_error for seed in range(10)
        )
        assert worst <= 1e-5

    def test_n_softmax_tighter_tolerance(self):
        spec = LossSpec(LossKind.N_SOFTMAX)
        worst = max(
            loss_grad_check(spec, random_batch(seed)).max_rel_error for seed in range(10)
        )
        assert worst <= 1e-6

    def test_flags_large_gradient_near_edge(self):
        """An AAM target cosine of 0.99999 next to a competitive hard
        negative drives the analytic target gradient past 100; the report
        points at the entry."""
        spec = LossSpec(LossKind.AAM_SOFTMAX, margin=0.3, scale=32.0)
        cosines = np.array([[0.99999, 0.97, -0.2, 0.0]])
        batch = CosineBatch(cosines, np.array([0]))
        report = loss_grad_check(spec, batch)
        assert exact_psi_grad(0.99999, 0.3) * 32.0 > 100
        assert report.has_large_grad
        assert (0, 0) in report.large_grad_entries
        assert report.max_abs_grad > 100

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValueError):
            loss_grad_check(ALL_SPECS[0], random_batch(0), step=0.0)

    @pytest.mark.parametrize("label", [0, 1, 2])
    def test_exact_on_cosines_at_the_edge(self, label):
        """At |x| = 1 the perturbed copies are clipped, so the difference is
        one-sided over half the span; its only error is the truncation
        |f''| step / 2 <= s^2 step / 8, well inside the default tolerance."""
        spec = LossSpec(LossKind.N_SOFTMAX, scale=1.0)
        batch = CosineBatch(np.array([[1.0, 0.2, -1.0]]), np.array([label]))
        assert loss_grad_check(spec, batch).max_rel_error < 1.3e-6
        assert loss_grad_check(spec, batch, step=1e-7).max_rel_error < 1e-6

    @pytest.mark.parametrize("x", [1 - 5e-8, -(1 - 5e-8)])
    def test_a_softmax_exact_within_the_edge_eps(self, x):
        """A step of 1e-8 around x = +-(1 - 5e-8) stays inside the edge
        clamp's 1e-7; both perturbed cosines are evaluated where they are."""
        spec = LossSpec(LossKind.A_SOFTMAX, margin=2, scale=4.0)
        batch = CosineBatch(np.array([[x, 0.9, -0.2]]), np.array([0]))
        assert loss_grad_check(spec, batch, step=1e-8).max_rel_error <= 1e-5

    def test_step_too_small_to_move_a_cosine_fails(self):
        """A step below the spacing of floats leaves x unmoved, so the
        difference quotient would be 0/0: an error names the step and the
        first cosine it cannot move.  1e-17 still moves 0.001 (spacing
        2e-19) but not 0.9 (spacing 1.1e-16)."""
        batch = CosineBatch(np.array([[0.001, 0.9, -0.5]]), np.array([0]))
        with pytest.raises(
            ValueError, match=r"^step 1e-17 is too small to move the cosine 0\.9$"
        ):
            loss_grad_check(ALL_SPECS[0], batch, step=1e-17)

    def test_rejects_nan_step(self):
        with pytest.raises(ValueError, match="step must be positive, got nan"):
            loss_grad_check(ALL_SPECS[0], random_batch(0), step=math.nan)


class TestBinarySurface:
    def test_diagonal_value_for_n_softmax(self):
        """With tied logits the target probability is 1/2, so the
        derivative is -(1 - 1/2) * s = -0.5 at s = 1 anywhere on the
        diagonal."""
        spec = LossSpec(LossKind.N_SOFTMAX, scale=1.0)
        for c in (-0.8, 0.0, 0.63):
            assert grad_target(spec, c, c) == pytest.approx(-0.5, abs=1e-12)

    def test_shift_invariance_for_n_softmax(self):
        spec = LossSpec(LossKind.N_SOFTMAX, scale=32.0)
        base = grad_target(spec, 0.3, -0.1)
        for delta in (-0.2, 0.1, 0.4):
            assert grad_target(spec, 0.3 + delta, -0.1 + delta) == pytest.approx(
                base, rel=1e-9
            )

    def test_hard_point_gets_larger_gradient_than_easy_point(self):
        spec = LossSpec(LossKind.CHEBY_AAM, margin=0.3, degree=30, scale=32.0)
        hard = abs(grad_target(spec, 0.8, 0.8))
        easy = abs(grad_target(spec, 0.8, 0.2))
        assert np.isfinite(hard) and np.isfinite(easy)
        assert hard > easy

    def test_surfaces_finite_everywhere(self):
        for kind in (LossKind.N_SOFTMAX, LossKind.AAM_SOFTMAX, LossKind.CHEBY_AAM):
            spec = LossSpec(kind, margin=0.3, scale=32.0, degree=30)
            _, surface = binary_derivative_surface(spec, 201)
            assert surface.shape == (201, 201)
            assert np.all(np.isfinite(surface))

    def test_cheby_surface_bounded_by_lipschitz(self):
        spec = LossSpec(LossKind.CHEBY_AAM, margin=0.3, degree=30, scale=32.0)
        _, surface = binary_derivative_surface(spec, 201)
        ceiling = spec.scale * (1.0 + lipschitz_constant(coefficients(0.3, 30)))
        assert np.max(np.abs(surface)) <= ceiling

    def test_aam_gradient_diverges_toward_edge(self):
        """The arccos-path gradient keeps growing by more than 10x as the
        target logit steps from 1-1e-6 to 1-1e-10, while the series
        gradient barely moves."""
        aam = LossSpec(LossKind.AAM_SOFTMAX, margin=0.3, scale=32.0)
        near = abs(grad_target(aam, 1 - 1e-6, 0.2))
        nearer = abs(grad_target(aam, 1 - 1e-10, 0.2))
        assert nearer > 10 * near
        cheby = LossSpec(LossKind.CHEBY_AAM, margin=0.3, degree=30, scale=32.0)
        c_near = abs(grad_target(cheby, 1 - 1e-6, 0.2))
        c_nearer = abs(grad_target(cheby, 1 - 1e-10, 0.2))
        assert abs(c_nearer - c_near) / c_near < 0.01

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            binary_derivative_surface(ALL_SPECS[0], 1)
