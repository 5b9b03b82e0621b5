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


class TestCoefficients:
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
            value, deriv = cheby_core._clenshaw_plan(series.coefficients)(x[:n])
            np.testing.assert_array_equal(value, one_by_one[:n, 0])
            np.testing.assert_array_equal(deriv, one_by_one[:n, 1])
        grid = x[: 7 * 300].reshape(7, 300)
        value, deriv = cheby_core._clenshaw_plan(series.coefficients)(grid)
        assert value.shape == deriv.shape == (7, 300)
        np.testing.assert_array_equal(value.ravel(), one_by_one[: 7 * 300, 0])
        np.testing.assert_array_equal(deriv.ravel(), one_by_one[: 7 * 300, 1])

    @pytest.mark.parametrize("n", [8, 64, cheby_core._CLENSHAW_COPY_MAX + 1])
    def test_plan_reused_gives_fresh_results(self, n):
        """One plan evaluated on several inputs, whose point counts change
        across the copy limit and back, gives each the bits of its own plan,
        and a later call leaves an earlier result as it was."""
        a = coefficients(0.3, 30).coefficients
        evaluate = cheby_core._clenshaw_plan(a)
        counts = [n, n, 3, cheby_core._CLENSHAW_COPY_MAX + 1, n]
        rngs = map(np.random.default_rng, range(len(counts)))
        inputs = [rng.uniform(-1.0, 1.0, m) for rng, m in zip(rngs, counts)]
        results = [evaluate(x) for x in inputs]
        for x, (value, deriv) in zip(inputs, results):
            fresh_value, fresh_deriv = cheby_core._clenshaw_plan(a)(x)
            np.testing.assert_array_equal(value, fresh_value)
            np.testing.assert_array_equal(deriv, fresh_deriv)

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

    @pytest.mark.parametrize(
        "coeffs, message",
        [
            ([0.0, math.nan], "a_1 must be finite, got nan"),
            ([0, 1, math.inf], "a_2 must be finite, got inf"),
            ([math.nan, 1.0], "a_0 must be finite, got nan"),
            ([0, 1, -math.inf, 0, math.nan], "a_2 must be finite, got -inf"),
        ],
    )
    def test_series_rejects_non_finite_coefficient(self, coeffs, message):
        """A NaN or infinite coefficient would make every value, slope and
        Lipschitz constant of the series NaN or infinite; it is refused
        where the series is built, naming the first such index."""
        with pytest.raises(ValueError, match=f"^coefficient {re.escape(message)}$"):
            ChebyshevSeries(coeffs)

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

    @pytest.mark.parametrize("degree", [0, -3, 31.9, 30.5, 30.0, True])
    def test_rejects_bad_degree(self, degree):
        """A degree below 1 is out of range; a float, even 30.0, or a bool
        is refused rather than truncated or read as 1."""
        rule = ">= 1" if type(degree) is int else "an integer"
        with pytest.raises(ValueError, match=rf"^degree must be {rule}, got {degree}$"):
            approx_error_bound(0.3, degree)
        with pytest.raises(ValueError, match=rf"^degree must be {rule}, got {degree}$"):
            coefficients(0.3, degree)

    def test_accepts_numpy_integer_degree(self):
        assert approx_error_bound(0.3, np.int64(30)) == approx_error_bound(0.3, 30)
        np.testing.assert_array_equal(
            coefficients(0.3, np.int32(30)).coefficients, coefficients(0.3, 30).coefficients
        )

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
    def test_exact_hessian_edge_clamp(self):
        """At exactly |x| = 1 the exact derivative forms return the value
        at the clamped abscissa instead of dividing by zero."""
        assert np.isfinite(exact_psi_grad(1.0, 0.3))
        assert np.isfinite(exact_psi_hessian(-1.0, 0.3))

    @pytest.mark.parametrize("margin", [0.1, 0.3, 0.5])
    @pytest.mark.parametrize("x", [1 - 5e-8, -(1 - 5e-8)])
    def test_exact_derivatives_evaluated_where_they_are_near_the_edge(self, x, margin):
        """The clamp moves only points exactly on |x| = 1: a cosine within
        COS_EDGE_EPS of the edge keeps its own slope sin(theta + m) / sin(theta)
        and curvature sin(m) / sin(theta)^3, not those at 1 - COS_EDGE_EPS."""
        theta = math.acos(x)
        slope = math.sin(theta + margin) / math.sin(theta)
        curvature = math.sin(margin) / math.sin(theta) ** 3
        assert exact_psi_grad(x, margin) == pytest.approx(slope, rel=1e-7)
        assert exact_psi_hessian(x, margin) == pytest.approx(curvature, rel=1e-7)


def slope_cap_point(degree):
    """Test-local oracle: ``(t, 1 - x*)`` for the point ``x*`` whose exact
    slope ``psi'(x*) = cos m + sin m * x* / sqrt(1 - x*^2)`` equals the
    series' peak slope at every margin, ``x* / sqrt(1 - x*^2) = t``.
    ``1 - x*`` is taken in a form without cancellation."""
    k = degree // 2
    t = 8 * k * (k + 1) / (math.pi * (2 * k + 1))
    r = math.sqrt(1 + t * t)
    return t, 1 / (r * (r + t))


class TestSlopeCap:
    """The degree sets a slope cap, and the point where the exact slope
    reaches it does not depend on the margin."""

    @pytest.mark.parametrize("margin", LIPSCHITZ_MARGINS)
    def test_error_times_excess_slope_is_fixed_by_the_degree(self, margin):
        """``e_K (L_K - cos m) = (2 sin m / pi)^2 (1 - 1/(2K+1)^2)``: a
        smaller error bound buys a proportionally higher slope cap."""
        for degree in LIPSCHITZ_DEGREES:
            k = degree // 2
            product = approx_error_bound(margin, degree) * (
                lipschitz_constant(coefficients(margin, degree)) - math.cos(margin)
            )
            oracle = (2 * math.sin(margin) / math.pi) ** 2 * (1 - 1 / (2 * k + 1) ** 2)
            if margin == 0.0 or degree == 1:
                # Both sides vanish exactly; a relative check would divide by 0.
                assert (product, oracle) == (0.0, 0.0), degree
            else:
                assert product == pytest.approx(oracle, rel=1e-12, abs=0), degree

    @pytest.mark.parametrize("degree, gap", [(30, 1.284e-3), (100, 1.209e-4)])
    def test_peak_slope_is_the_exact_slope_at_a_margin_free_point(self, degree, gap):
        t, one_minus_x = slope_cap_point(degree)
        assert one_minus_x == pytest.approx(gap, abs=5e-4 * gap)
        for margin in (0.1, 0.5, 1.5):
            cap = math.cos(margin) + math.sin(margin) * t
            assert lipschitz_constant(coefficients(margin, degree)) == pytest.approx(cap, rel=1e-12)
            # Rounding x* itself costs up to about 2.5e-11 of the slope by
            # degree 1000, so the exact slope is checked at these two only.
            assert exact_psi_grad(1 - one_minus_x, margin) == pytest.approx(cap, rel=1e-12)


class TestAngleSpaceSlope:
    """What a renormalized weight row receives is the slope times
    ``sin(theta) = sqrt(1 - x^2)``: bounded for AAM, and 0 at the edge for
    the series."""

    @pytest.mark.parametrize("margin", [0.1, 0.3, 0.5, 1.0, 1.5])
    def test_exact_slope_along_the_sphere(self, margin):
        """Test-local oracle: ``|psi'(x)| sqrt(1 - x^2) = |sqrt(1 - x^2) cos m
        + x sin m| = |sin(arccos x + m)|``, checked off the clamped edges.
        It is 0 at ``x = -cos m``, where an absolute floor takes over."""
        x = np.linspace(-1.0, 1.0, 400001)[1:-1]
        sine = np.sqrt((1 - x) * (1 + x))
        oracle = np.abs(sine * math.cos(margin) + x * math.sin(margin))
        arccos_form = np.abs(np.sin(np.arccos(x) + margin))
        np.testing.assert_allclose(oracle, arccos_form, rtol=0, atol=2e-15)
        along = np.abs(exact_psi_grad(x, margin)) * sine
        np.testing.assert_allclose(along, oracle, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("margin", [0.1, 0.5, 1.5])
    def test_exact_slope_along_the_sphere_tends_to_sin_margin(self, margin):
        for x in (1 - 1e-4, 1 - 1e-8, 1 - 1e-12):
            gap = 1 - x  # exact, so sqrt(1 - x^2) keeps every digit
            along = abs(exact_psi_grad(x, margin)) * math.sqrt(gap * (2 - gap))
            # sin(theta + m) - sin(m) is at most theta, about sqrt(2 gap).
            assert along == pytest.approx(math.sin(margin), abs=1.01 * math.sqrt(2 * gap))

    @pytest.mark.parametrize(
        "margin, peaks",
        [
            (0.5, {2: 1.1127, 10: 1.0178, 30: 1.0101, 100: 1.0033}),
            (0.3, {2: 1.0600, 10: 1.0090, 30: 1.0053, 100: 1.0019}),
        ],
    )
    def test_series_slope_along_the_sphere_vanishes_at_the_edge(self, margin, peaks):
        """``|f_K'(x)| sqrt(1 - x^2)`` is 0 at ``x = +-1`` and peaks a little
        above AAM's bound of 1, by the series' overshoot below ``x*``."""
        x = np.linspace(-1.0, 1.0, 400001)
        for degree, peak in peaks.items():
            along = np.abs(series_derivative(coefficients(margin, degree), x))
            along *= np.sqrt((1 - x) * (1 + x))
            assert (along[0], along[-1]) == (0.0, 0.0)
            assert along.max() == pytest.approx(peak, abs=5e-5), degree
