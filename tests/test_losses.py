"""Tests for the margin-loss family and its analytic gradients."""

import math

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
    binary_grad_target,
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


class TestLossSpec:
    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            LossSpec(LossKind.N_SOFTMAX, scale=0.0)

    def test_rejects_negative_margin(self):
        with pytest.raises(ValueError):
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


class TestSeriesCache:
    def test_bounded_under_many_margins(self):
        """A margin schedule visiting thousands of margins keeps the series
        cache at its fixed size."""
        for i in range(3000):
            transform_target_logit(LossSpec(LossKind.CHEBY_AAM, margin=0.1 + i * 1e-4), 0.5)
        info = losses._series.cache_info()
        assert info.maxsize == losses.SERIES_CACHE_SIZE
        assert 0 < info.currsize <= losses.SERIES_CACHE_SIZE


class TestCosineBatch:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            CosineBatch(np.array([[0.5, 1.5]]), np.array([0]))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            CosineBatch(np.array([[0.5, np.nan]]), np.array([0]))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_with_message(self, value):
        """The boundary check is the only finiteness check on cosines."""
        with pytest.raises(ValueError, match=r"cosines must be finite and within \[-1, 1\]"):
            CosineBatch(np.array([[0.5, 0.2], [value, 0.1]]), np.array([0, 1]))

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            CosineBatch(np.array([[0.5, 0.2]]), np.array([2]))

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


class TestBinarySurface:
    def test_diagonal_value_for_n_softmax(self):
        """With tied logits the target probability is 1/2, so the
        derivative is -(1 - 1/2) * s = -0.5 at s = 1 anywhere on the
        diagonal."""
        spec = LossSpec(LossKind.N_SOFTMAX, scale=1.0)
        for c in (-0.8, 0.0, 0.63):
            assert binary_grad_target(spec, c, c) == pytest.approx(-0.5, abs=1e-12)

    def test_shift_invariance_for_n_softmax(self):
        spec = LossSpec(LossKind.N_SOFTMAX, scale=32.0)
        base = binary_grad_target(spec, 0.3, -0.1)
        for delta in (-0.2, 0.1, 0.4):
            assert binary_grad_target(spec, 0.3 + delta, -0.1 + delta) == pytest.approx(
                base, rel=1e-9
            )

    def test_hard_point_gets_larger_gradient_than_easy_point(self):
        spec = LossSpec(LossKind.CHEBY_AAM, margin=0.3, degree=30, scale=32.0)
        hard = abs(binary_grad_target(spec, 0.8, 0.8))
        easy = abs(binary_grad_target(spec, 0.8, 0.2))
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
        near = abs(binary_grad_target(aam, 1 - 1e-6, 0.2))
        nearer = abs(binary_grad_target(aam, 1 - 1e-10, 0.2))
        assert nearer > 10 * near
        cheby = LossSpec(LossKind.CHEBY_AAM, margin=0.3, degree=30, scale=32.0)
        c_near = abs(binary_grad_target(cheby, 1 - 1e-6, 0.2))
        c_nearer = abs(binary_grad_target(cheby, 1 - 1e-10, 0.2))
        assert abs(c_nearer - c_near) / c_near < 0.01

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            binary_derivative_surface(ALL_SPECS[0], 1)
