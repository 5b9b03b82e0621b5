"""Tests for the Chebyshev series of the angular margin transform."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chebymargin import cheby_core
from chebymargin.cheby_core import (
    ChebyshevSeries,
    approx_error_bound,
    clenshaw_eval,
    coefficients,
    exact_psi,
    exact_psi_grad,
    exact_psi_hessian,
    lipschitz_constant,
    series_derivative,
    series_hessian,
    series_value_and_derivative,
)

MARGINS = [0.1, 0.2, 0.3, 0.5]
DEGREES = [2, 5, 10, 30, 50]


def quadrature_coefficient(margin, k, nodes=20000):
    """Independent oracle: Gauss-Chebyshev quadrature of the projection
    integral (2 - delta_k0)/pi * int psi(x, m) T_k(x) (1-x^2)^{-1/2} dx."""
    i = np.arange(1, nodes + 1)
    x = np.cos((2 * i - 1) * math.pi / (2 * nodes))
    integrand = exact_psi(x, margin) * np.cos(k * np.arccos(x))
    integral = integrand.sum() * math.pi / nodes
    return (1.0 if k == 0 else 2.0) / math.pi * integral


def naive_series_sum(series, x):
    """Independent oracle: direct summation of a_k T_k(x), with the T_k(x)
    columns built by numpy's Chebyshev Vandermonde matrix."""
    return np.polynomial.chebyshev.chebvander(x, series.degree) @ series.coefficients


class TestCoefficients:
    def test_reference_values_for_margin_02(self):
        """a_0..a_4 of the degree-30 series at margin 0.2."""
        series = coefficients(0.2, 30)
        expected = [-0.1265, 0.98007, 0.08433, 0.0, 0.01687]
        np.testing.assert_allclose(series.coefficients[:5], expected, atol=5e-4)

    def test_zero_margin_is_identity_series(self):
        series = coefficients(0.0, 6)
        assert series.coefficients[1] == 1.0
        others = np.delete(series.coefficients, 1)
        assert np.all(others == 0.0)

    def test_margin_03_degree_2_against_quadrature(self):
        series = coefficients(0.3, 2)
        np.testing.assert_allclose(
            series.coefficients, [-0.18813, 0.95534, 0.12542], atol=5e-6
        )
        for k in range(3):
            assert abs(series.coefficients[k] - quadrature_coefficient(0.3, k)) < 1e-8

    @pytest.mark.parametrize("margin", MARGINS)
    def test_closed_form_matches_quadrature(self, margin):
        """Every closed-form a_k up to k=10 agrees with the projection
        integral computed by quadrature."""
        series = coefficients(margin, 10)
        for k in range(11):
            oracle = quadrature_coefficient(margin, k)
            assert abs(series.coefficients[k] - oracle) < 1e-8, f"k={k}"

    @given(
        margin=st.floats(min_value=1e-3, max_value=math.pi / 2 - 1e-3),
        degree=st.integers(min_value=3, max_value=60),
    )
    @settings(max_examples=50)
    def test_odd_coefficients_vanish(self, margin, degree):
        series = coefficients(margin, degree)
        assert all(series.coefficients[k] == 0.0 for k in range(3, degree + 1, 2))

    @given(margin=st.floats(min_value=1e-3, max_value=math.pi / 2 - 1e-3))
    @settings(max_examples=50)
    def test_even_coefficients_strictly_decrease(self, margin):
        series = coefficients(margin, 40)
        evens = series.coefficients[2::2]
        assert np.all(np.abs(evens[1:]) < np.abs(evens[:-1]))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            coefficients(-0.1, 10)
        with pytest.raises(ValueError):
            coefficients(math.pi / 2, 10)
        with pytest.raises(ValueError):
            coefficients(0.3, 0)


class TestClenshaw:
    def test_identity_series_returns_x(self):
        series = coefficients(0.0, 12)
        assert clenshaw_eval(series, 0.73) == 0.73

    def test_value_within_bound_of_exact(self):
        series = coefficients(0.3, 30)
        value = clenshaw_eval(series, 0.5)
        exact = 0.5 * math.cos(0.3) - math.sqrt(0.75) * math.sin(0.3)
        assert exact == pytest.approx(0.22174, abs=1e-5)
        assert abs(value - exact) <= approx_error_bound(0.3, 30)

    @pytest.mark.parametrize("margin", MARGINS)
    @pytest.mark.parametrize("degree", DEGREES)
    def test_matches_naive_summation(self, margin, degree):
        """Clenshaw agrees with direct a_k T_k summation to 1e-12 on
        1000 random points."""
        series = coefficients(margin, degree)
        rng = np.random.default_rng(1234)
        x = rng.uniform(-1.0, 1.0, 1000)
        np.testing.assert_allclose(
            clenshaw_eval(series, x), naive_series_sum(series, x), atol=1e-12
        )

    def test_matches_numpy_chebval(self):
        """Cross-check against an unrelated Chebyshev implementation."""
        series = coefficients(0.3, 30)
        x = np.linspace(-1, 1, 101)
        np.testing.assert_allclose(
            clenshaw_eval(series, x),
            np.polynomial.chebyshev.chebval(x, series.coefficients),
            atol=1e-14,
        )

    def test_deterministic(self):
        series = coefficients(0.3, 30)
        assert clenshaw_eval(series, 0.123456) == clenshaw_eval(series, 0.123456)
        x = np.linspace(-1.0, 1.0, 1001)
        assert clenshaw_eval(series, x).tobytes() == clenshaw_eval(series, x).tobytes()

    def test_rejects_out_of_domain(self):
        with pytest.raises(ValueError):
            clenshaw_eval(coefficients(0.3, 4), 1.0001)

    @pytest.mark.parametrize(
        "x, named", [(1.5, "1.5"), (math.nan, "nan"), ([0.2, -1.25, 3.0], "-1.25")]
    )
    def test_out_of_domain_message_names_first_value(self, x, named):
        with pytest.raises(ValueError, match=rf"x must lie in \[-1, 1\], got {named}$"):
            clenshaw_eval(coefficients(0.3, 4), x)


class TestEvenKernel:
    """The single even-form Clenshaw pass behind every series quantity."""

    @given(
        margin=st.floats(min_value=0.0, max_value=math.pi / 2, exclude_max=True),
        degree=st.integers(min_value=1, max_value=300),
        points=st.lists(st.floats(min_value=-1.0, max_value=1.0), max_size=20),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_numpy_chebval_and_chebder(self, margin, degree, points):
        """Value, first and second derivative agree with numpy's unrelated
        Chebyshev evaluation of the same coefficients, endpoints included.
        Derivative and Hessian gates scale with the largest value in the
        sample; near |x| = 1 at degree 300 numpy's own derivative is off by
        up to ~6e-13 of that scale."""
        series = coefficients(margin, degree)
        x = np.array(points + [-1.0, 0.0, 1.0])
        cheb = np.polynomial.chebyshev
        a = series.coefficients
        want = cheb.chebval(x, a)
        want_d1 = cheb.chebval(x, cheb.chebder(a))
        want_d2 = cheb.chebval(x, cheb.chebder(a, 2))
        scale_d1 = max(1.0, float(np.max(np.abs(want_d1))))
        scale_d2 = max(1.0, float(np.max(np.abs(want_d2))))

        value, deriv = series_value_and_derivative(series, x)
        np.testing.assert_allclose(value, want, rtol=0, atol=1e-13)
        np.testing.assert_allclose(deriv, want_d1, rtol=0, atol=4e-12 * scale_d1)
        np.testing.assert_allclose(clenshaw_eval(series, x), want, rtol=0, atol=1e-13)
        np.testing.assert_allclose(
            series_derivative(series, x), want_d1, rtol=0, atol=4e-12 * scale_d1
        )
        np.testing.assert_allclose(
            series_hessian(series, x), want_d2, rtol=0, atol=1e-11 * scale_d2
        )

    def test_scalar_in_scalar_out(self):
        series = coefficients(0.3, 30)
        value, deriv = series_value_and_derivative(series, 0.5)
        assert type(value) is float and type(deriv) is float
        assert value == clenshaw_eval(series, 0.5)
        assert deriv == series_derivative(series, 0.5)
        assert type(series_hessian(series, 0.5)) is float
        values, derivs = series_value_and_derivative(series, np.array([0.5]))
        assert values.shape == derivs.shape == (1,)
        assert values[0] == value and derivs[0] == deriv

    def test_keeps_input_shape(self):
        series = coefficients(0.3, 31)
        x = np.linspace(-1.0, 1.0, 12).reshape(3, 4)
        value, deriv = series_value_and_derivative(series, x)
        flat_value, flat_deriv = series_value_and_derivative(series, x.ravel())
        assert value.shape == deriv.shape == series_hessian(series, x).shape == (3, 4)
        np.testing.assert_array_equal(value.ravel(), flat_value)
        np.testing.assert_array_equal(deriv.ravel(), flat_deriv)

    @pytest.mark.parametrize("degree", [1, 2, 30, 100])
    def test_copy_and_broadcast_match_point_by_point(self, degree):
        """Every point gets the bits it gets alone, whether the coefficient
        columns are copied out (up to the limit) or broadcast (past it), and
        for a 2-D input."""
        series = coefficients(0.3, degree)
        limit = cheby_core._CLENSHAW_COPY_MAX
        x = np.linspace(-1.0, 1.0, 3 * limit + 7)
        x[1::2] = np.random.default_rng(degree).uniform(-1.0, 1.0, x.size // 2)
        one_by_one = np.array([series_value_and_derivative(series, xi) for xi in x.tolist()])
        for n in (limit, limit + 1, x.size):
            value, deriv = cheby_core._even_clenshaw(series.coefficients, x[:n])
            np.testing.assert_array_equal(value, one_by_one[:n, 0])
            np.testing.assert_array_equal(deriv, one_by_one[:n, 1])
        grid = x[: 7 * 300].reshape(7, 300)
        value, deriv = cheby_core._even_clenshaw(series.coefficients, grid)
        assert value.shape == deriv.shape == (7, 300)
        np.testing.assert_array_equal(value.ravel(), one_by_one[: 7 * 300, 0])
        np.testing.assert_array_equal(deriv.ravel(), one_by_one[: 7 * 300, 1])

    def test_rejects_out_of_domain(self):
        with pytest.raises(ValueError):
            series_value_and_derivative(coefficients(0.3, 4), np.array([0.0, -1.5]))

    def test_series_rejects_nonzero_odd_coefficient(self):
        """The kernel skips odd coefficients above 1, so a series carrying
        one is refused where it is built, naming the index and value."""
        with pytest.raises(ValueError, match=r"a_5 must be 0, got 0\.001"):
            ChebyshevSeries([0, 1, 0, 0, 0, 1e-3, 0])
        with pytest.raises(ValueError, match=r"a_3 must be 0, got nan"):
            ChebyshevSeries([0, 1, 0, math.nan])
        ChebyshevSeries([0.5, 1.0])

    @pytest.mark.parametrize("coeffs", [[[0.5, 1.0, 0.1]], [], [[]], 0.5])
    def test_series_needs_nonempty_1d_coefficients(self, coeffs):
        message = f"coefficients must be a non-empty 1-D array, got shape {np.shape(coeffs)}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ChebyshevSeries(coeffs)

    @pytest.mark.parametrize("coeffs", [[0.5], [0.5, 1.0], [0.5, 1.0, 0.1, 0.0]])
    def test_series_degree_is_its_last_index(self, coeffs):
        """The series holds only its coefficients; the degree is derived."""
        series = ChebyshevSeries(coeffs)
        assert series.degree == len(coeffs) - 1
        assert [f.name for f in dataclasses.fields(series)] == ["coefficients"]

    def test_series_equality_is_identity_and_answers(self):
        """``==`` answers without comparing arrays; equal values go through
        the coefficients."""
        series = coefficients(0.3, 4)
        assert series == series
        assert (coefficients(0.3, 4) == coefficients(0.3, 4)) is False
        np.testing.assert_array_equal(series.coefficients, coefficients(0.3, 4).coefficients)


class TestExactPsi:
    def test_at_x_one(self):
        assert exact_psi(1.0, 0.3) == pytest.approx(math.cos(0.3), abs=1e-15)

    def test_zero_margin_is_identity(self):
        assert exact_psi(0.5, 0.0) == 0.5

    def test_angle_addition_oracle(self):
        """psi(0.5, 0.3) = cos(pi/3 + 0.3) by the angle-addition formula."""
        oracle = math.cos(math.pi / 3) * math.cos(0.3) - math.sin(math.pi / 3) * math.sin(0.3)
        assert exact_psi(0.5, 0.3) == pytest.approx(oracle, abs=1e-14)
        assert oracle == pytest.approx(0.22174, abs=1e-5)
        grad_oracle = math.sin(math.acos(0.5) + 0.3) / math.sqrt(1 - 0.25)
        assert exact_psi_grad(0.5, 0.3) == pytest.approx(grad_oracle, rel=1e-12)
        assert grad_oracle == pytest.approx(1.12596, abs=1e-5)
        h = 1e-5
        fd = (exact_psi(0.5 + h, 0.3) - exact_psi(0.5 - h, 0.3)) / (2 * h)
        assert fd == pytest.approx(grad_oracle, rel=1e-8)


class TestNonMonotoneRegion:
    """For x < -cos m the angle theta + m passes pi, so the AAM transform
    turns back up: both the exact and the series transform decrease there."""

    @pytest.mark.parametrize("margin", [0.3, 0.5, 1.2])
    def test_exact_turns_at_minus_cos_margin(self, margin):
        turn = -math.cos(margin)
        assert exact_psi(turn, margin) == pytest.approx(-1.0, abs=1e-15)
        x = np.linspace(-1.0, 1.0, 200001)
        values = exact_psi(x, margin)
        assert values.min() >= -1.0
        assert x[np.argmin(values)] == pytest.approx(turn, abs=1e-4)
        assert exact_psi_grad(turn - 0.01, margin) < 0
        assert exact_psi(-1.0, margin) == pytest.approx(-math.cos(margin), abs=1e-15)

    @pytest.mark.parametrize("margin", [0.3, 0.5, 1.2])
    @pytest.mark.parametrize("degree", [30, 100])
    def test_series_decreasing_at_minus_one(self, margin, degree):
        assert series_derivative(coefficients(margin, degree), -1.0) < 0


class TestSeriesDerivative:
    def test_identity_series_derivative_is_one(self):
        series = coefficients(0.0, 10)
        for x in (-1.0, -0.3, 0.0, 0.9, 1.0):
            assert series_derivative(series, x) == pytest.approx(1.0, abs=1e-15)

    def test_matches_finite_difference_of_clenshaw(self):
        series = coefficients(0.3, 30)
        h = 1e-5
        fd = (clenshaw_eval(series, 0.5 + h) - clenshaw_eval(series, 0.5 - h)) / (2 * h)
        assert series_derivative(series, 0.5) == pytest.approx(fd, rel=1e-6)

    def test_endpoint_closed_form(self):
        """At x=1 every U_{2k-1}(1) = 2k, giving a finite closed form."""
        series = coefficients(0.3, 30)
        oracle = math.cos(0.3)
        for k in range(1, 16):
            oracle += (4 * k * math.sin(0.3) / math.pi) * (
                1 / (2 * k - 1) - 1 / (2 * k + 1)
            ) * (2 * k)
        value = series_derivative(series, 1.0)
        assert value == pytest.approx(oracle, rel=1e-12)
        assert value == pytest.approx(6.78, abs=5e-3)

    def test_gradient_consistency_on_random_points(self):
        """Analytic derivative matches central differences at 1e-6 relative
        on 1000 random points in [-0.99, 0.99]."""
        series = coefficients(0.3, 30)
        rng = np.random.default_rng(42)
        x = rng.uniform(-0.99, 0.99, 1000)
        h = 1e-5
        fd = (clenshaw_eval(series, x + h) - clenshaw_eval(series, x - h)) / (2 * h)
        analytic = series_derivative(series, x)
        rel = np.abs(fd - analytic) / np.maximum(1e-12, np.abs(analytic))
        assert rel.max() < 1e-6


class TestSeriesHessian:
    def test_identity_series_hessian_is_zero(self):
        series = coefficients(0.0, 10)
        for x in (-1.0, 0.0, 0.5, 1.0):
            assert series_hessian(series, x) == pytest.approx(0.0, abs=1e-12)

    def test_matches_finite_difference_of_derivative(self):
        series = coefficients(0.3, 30)
        h = 2e-5
        fd = (series_derivative(series, 0.5 + h) - series_derivative(series, 0.5 - h)) / (2 * h)
        assert series_hessian(series, 0.5) == pytest.approx(fd, rel=1e-5)

    def test_tracks_exact_hessian_up_to_series_tail(self):
        """The exact Hessian at 0.5 is sin(m)(1-x^2)^{-3/2} ~ 0.45498; the
        truncated series curvature differs by at most the tail scale
        k^2 a_k of the first dropped term (a_32 * 32^2 ~ 0.38)."""
        series = coefficients(0.3, 30)
        exact = math.sin(0.3) * (1 - 0.25) ** -1.5
        assert exact == pytest.approx(0.45498, abs=1e-5)
        tail_scale = (2 * math.sin(0.3) / math.pi) * (1 / 31 - 1 / 33) * 32**2
        assert abs(series_hessian(series, 0.5) - exact) <= tail_scale

    def test_finite_near_edge_where_exact_explodes(self):
        series = coefficients(0.3, 30)
        value = series_hessian(series, 0.999)
        exact = math.sin(0.3) * (1 - 0.999**2) ** -1.5
        assert exact > 3000
        assert np.isfinite(value)
        assert abs(value) < 1000

    def test_endpoint_values_finite(self):
        series = coefficients(0.3, 30)
        for x in (-1.0, -1.0 + 1e-8, 1.0 - 1e-8, 1.0):
            assert np.isfinite(series_hessian(series, x))

    def test_branch_agreement(self):
        """Just inside the edge, where the old trig form of the Hessian was
        0/0-prone, the single Clenshaw path matches differences of f'."""
        series = coefficients(0.3, 30)
        x = 1.0 - 1e-5
        interior = series_hessian(series, x)
        h = 1e-7
        fd = (series_derivative(series, x + h) - series_derivative(series, x - h)) / (2 * h)
        assert interior == pytest.approx(fd, rel=1e-4)

    def test_hessian_consistency_grid(self):
        """FD of the first derivative reproduces the Hessian to 1e-5
        relative across [-0.99, 0.99] (step 2e-5; at 1e-4 the stencil's own
        truncation error h^2 f''''/6 exceeds the gate near |x| ~ 0.97)."""
        series = coefficients(0.3, 30)
        x = np.linspace(-0.99, 0.99, 2001)
        h = 2e-5
        fd = (series_derivative(series, x + h) - series_derivative(series, x - h)) / (2 * h)
        analytic = series_hessian(series, x)
        rel = np.abs(fd - analytic) / np.maximum(1.0, np.maximum(np.abs(fd), np.abs(analytic)))
        assert rel.max() < 1e-5


LIPSCHITZ_MARGINS = [0.0, 0.1, 0.3, 0.5, 1.0, 1.5, 1.5707]
LIPSCHITZ_DEGREES = [1, 2, 3, 4, 7, 10, 30, 31, 100, 101, 1000]


class TestLipschitz:
    def test_identity_series(self):
        assert lipschitz_constant(coefficients(0.0, 10)) == pytest.approx(1.0)

    def test_degree_30_attained_at_endpoint(self):
        series = coefficients(0.3, 30)
        value = lipschitz_constant(series)
        assert value == pytest.approx(series_derivative(series, 1.0), rel=1e-12)
        assert value == pytest.approx(6.78, abs=5e-3)

    def test_degree_2_analytic(self):
        """The quadratic's derivative is a_1 + 4 a_2 x, maximal at x = 1."""
        series = coefficients(0.3, 2)
        a1, a2 = series.coefficients[1], series.coefficients[2]
        assert lipschitz_constant(series) == pytest.approx(a1 + 4 * a2, rel=1e-12)
        assert a1 + 4 * a2 == pytest.approx(1.45702, abs=1e-5)

    @pytest.mark.parametrize("margin", LIPSCHITZ_MARGINS)
    def test_closed_form(self, margin):
        """Independent oracle: T_{2k}'(1) = 4k^2 and the even coefficients
        telescope, so f'(1) = cos m + (2 sin m / pi) 4K(K+1)/(2K+1) with
        K = degree // 2, odd degrees included."""
        for degree in LIPSCHITZ_DEGREES:
            k = degree // 2
            closed = math.cos(margin) + (2 * math.sin(margin) / math.pi) * (
                4 * k * (k + 1) / (2 * k + 1)
            )
            value = lipschitz_constant(coefficients(margin, degree))
            assert value == pytest.approx(closed, rel=1e-13, abs=0), degree

    @pytest.mark.parametrize("margin", LIPSCHITZ_MARGINS)
    def test_dense_grid_never_exceeds_it(self, margin):
        """|f'| on a dense grid stays at or below f'(1), and reaches it at x = 1."""
        x = np.linspace(-1.0, 1.0, 20001)
        for degree in LIPSCHITZ_DEGREES:
            series = coefficients(margin, degree)
            value = lipschitz_constant(series)
            assert np.max(np.abs(series_derivative(series, x))) == value, degree

    def test_grows_with_degree_but_stays_finite(self):
        """Tightening the approximation (degree sweep) trades away
        smoothness: the Lipschitz constant increases strictly through even
        degrees toward the exact transform's unbounded slope, yet every
        truncation stays far below the near-edge exact derivative."""
        values = [
            lipschitz_constant(coefficients(0.3, degree))
            for degree in (2, 5, 10, 20, 30, 40, 50)
        ]
        print("  lipschitz by degree:", [round(v, 4) for v in values])
        assert all(b > a for a, b in zip(values, values[1:]) if b != a)
        assert values == sorted(values)
        assert values[-1] < exact_psi_grad(1 - 1e-6, 0.3)

    def test_rejects_a_negative_slope_coefficient(self):
        """f'(1) is sup |f'| only while a_1 and every a_2k are non-negative:
        for f = T_1 - T_2, f' = 1 - 4x gives f'(1) = -3 but |f'(-1)| = 5."""
        message = r"coefficient a_{} must be non-negative for sup \|f'\| = f'\(1\), got -1\.0$"
        with pytest.raises(ValueError, match=message.format(2)):
            lipschitz_constant(ChebyshevSeries([0.0, 1.0, -1.0]))
        with pytest.raises(ValueError, match=message.format(1)):
            lipschitz_constant(ChebyshevSeries([0.5, -1.0, 1.0]))

    def test_takes_no_grid_argument(self):
        """The constant is exact; there is no grid size to pass."""
        with pytest.raises(TypeError):
            lipschitz_constant(coefficients(0.3, 30), 1)


class TestErrorBound:
    def test_zero_margin_is_exact(self):
        assert approx_error_bound(0.0, 10) == 0.0

    @pytest.mark.parametrize("margin", [-0.1, math.pi / 2, math.nan])
    def test_rejects_bad_margin(self, margin):
        with pytest.raises(ValueError, match=rf"^margin must be in \[0, pi/2\), got {margin}$"):
            approx_error_bound(margin, 30)

    @pytest.mark.parametrize("degree", [0, -3])
    def test_rejects_bad_degree(self, degree):
        with pytest.raises(ValueError, match=rf"^degree must be >= 1, got {degree}$"):
            approx_error_bound(0.3, degree)

    def test_reference_values(self):
        assert approx_error_bound(0.3, 30) == pytest.approx(
            2 * math.sin(0.3) / (31 * math.pi), rel=1e-15
        )
        assert approx_error_bound(0.3, 30) == pytest.approx(0.00607, abs=1e-5)
        assert approx_error_bound(0.2, 4) == pytest.approx(0.02529, abs=1e-5)
        # The bound is attained: at degree 2 the grid sup error meets it.
        x = np.linspace(-1, 1, 100001)
        err = np.max(np.abs(exact_psi(x, 0.3) - clenshaw_eval(coefficients(0.3, 2), x)))
        assert err == pytest.approx(approx_error_bound(0.3, 2), abs=1e-4)
        assert err == pytest.approx(0.0627, abs=1e-4)

    @pytest.mark.parametrize("margin", MARGINS)
    @pytest.mark.parametrize("degree", DEGREES)
    def test_bounds_grid_error(self, margin, degree):
        """The telescoped tail bounds the observed sup error; equality is
        attained at x = +-1, so allow rounding headroom."""
        series = coefficients(margin, degree)
        x = np.linspace(-1, 1, 100001)
        err = np.max(np.abs(exact_psi(x, margin) - clenshaw_eval(series, x)))
        assert err <= approx_error_bound(margin, degree) + 1e-12

    @pytest.mark.parametrize("margin", MARGINS)
    def test_error_decays_with_even_degree(self, margin):
        x = np.linspace(-1, 1, 20001)
        errors = []
        for degree in (2, 4, 6, 8, 10, 20, 30):
            series = coefficients(margin, degree)
            errors.append(np.max(np.abs(exact_psi(x, margin) - clenshaw_eval(series, x))))
        assert all(b <= a + 1e-15 for a, b in zip(errors, errors[1:]))


class TestBoundedVersusExploding:
    def test_series_bounded_while_exact_derivative_explodes(self):
        """The series transform has a small Lipschitz constant while the
        exact transform's derivative is unbounded as x -> 1."""
        series = coefficients(0.3, 30)
        assert lipschitz_constant(series) < 10
        assert exact_psi_grad(1 - 1e-6, 0.3) > 100

    def test_explosion_rate_contrast(self):
        near = exact_psi_grad(1 - 1e-6, 0.3)
        nearer = exact_psi_grad(1 - 1e-10, 0.3)
        assert nearer >= 10 * near
        series = coefficients(0.3, 30)
        s_near = series_derivative(series, 1 - 1e-6)
        s_nearer = series_derivative(series, 1 - 1e-10)
        assert abs(s_nearer - s_near) / abs(s_near) < 0.01

    def test_exact_hessian_edge_clamp(self):
        """At exactly |x| = 1 the exact derivative forms return the value
        at the clamped abscissa instead of dividing by zero."""
        assert np.isfinite(exact_psi_grad(1.0, 0.3))
        assert np.isfinite(exact_psi_hessian(-1.0, 0.3))
