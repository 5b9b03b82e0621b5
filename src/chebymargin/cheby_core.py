"""Chebyshev-series machinery for the angular margin transform.

The target-logit transform of additive-angular-margin softmax is
``psi(x, m) = cos(arccos(x) + m)`` for a cosine ``x`` and margin ``m``.
This module builds its truncated Chebyshev expansion

    f(x, m) = sum_{k=0..n} a_k T_k(x)

with closed-form coefficients and evaluates it, together with its analytic
first and second derivatives, through one even-form Clenshaw kernel.  It
also provides the exact Lipschitz constant ``f'(1)`` and a uniform error
bound.

All functions are pure and accept either a scalar or an ndarray for the
evaluation point; arrays are processed elementwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Margin transform derivatives explode near the domain edge; inputs that sit
# exactly on |x| = 1 are evaluated at 1 - COS_EDGE_EPS instead.
COS_EDGE_EPS = 1e-7

# Most points for which the Clenshaw kernel copies its coefficient columns out
# to the points' shape (2 * K * n floats for K = degree // 2); past it they
# broadcast, so the copy stays small whatever the size of the input.
_CLENSHAW_COPY_MAX = 1024


@dataclass(eq=False)
class ChebyshevSeries:
    """Truncated Chebyshev expansion ``sum_{k=0..n} a_k T_k`` of the margin transform.

    ``coefficients[k] == a_k``: a non-empty 1-D array whose every odd entry
    above index 1 is zero, as it is for the margin transform.
    """

    coefficients: np.ndarray

    def __post_init__(self):
        self.coefficients = np.asarray(self.coefficients, dtype=float)
        shape = self.coefficients.shape
        if len(shape) != 1 or shape[0] == 0:
            raise ValueError(f"coefficients must be a non-empty 1-D array, got shape {shape}")
        odd = np.flatnonzero(self.coefficients[3::2])
        if odd.size:
            k = 3 + 2 * int(odd[0])
            raise ValueError(f"odd coefficient a_{k} must be 0, got {self.coefficients[k]}")

    @property
    def degree(self) -> int:
        """Highest coefficient index ``n``."""
        return len(self.coefficients) - 1


def _validate_eval_point(x) -> tuple[np.ndarray, bool]:
    """``x`` as a float array, and whether it is a scalar; an error names
    its first NaN or value outside [-1, 1]."""
    arr = np.asarray(x, dtype=float)
    # NaN propagates through max, and NaN <= 1 is false.
    if not np.abs(arr).max(initial=0.0) <= 1.0:
        inside = np.abs(arr) <= 1.0
        raise ValueError(f"x must lie in [-1, 1], got {arr.flat[np.argmin(inside)]}")
    return arr, arr.ndim == 0


def _edge_clamp(arr: np.ndarray) -> np.ndarray:
    """``arr`` with each point exactly on ``|x| = 1`` moved to ``+-(1 - COS_EDGE_EPS)``."""
    return np.where(np.abs(arr) >= 1.0, np.sign(arr) * (1.0 - COS_EDGE_EPS), arr)


def _check_series_args(margin: float, degree: int) -> None:
    if not 0.0 <= margin < math.pi / 2:
        raise ValueError(f"margin must be in [0, pi/2), got {margin}")
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")


def _maybe_scalar(values: np.ndarray, scalar: bool):
    return float(values) if scalar else values


def coefficients(margin: float, degree: int) -> ChebyshevSeries:
    """Closed-form Chebyshev coefficients of ``cos(arccos(x) + margin)``.

    ``margin`` is in radians, in ``[0, pi/2)``; ``degree``, the highest
    coefficient index, is at least 1.  The constant term is
    ``a_0 = -2 sin(m) / pi``, the linear term is ``a_1 = cos(m)``, all odd
    coefficients above 1 vanish, and the even coefficients are
    ``a_{2k} = (2 sin(m)/pi) (1/(2k-1) - 1/(2k+1))``.
    """
    _check_series_args(margin, degree)
    sin_m = math.sin(margin)
    a = np.zeros(degree + 1)
    a[0] = -2.0 * sin_m / math.pi
    a[1] = math.cos(margin)
    for k in range(1, degree // 2 + 1):
        a[2 * k] = (2.0 * sin_m / math.pi) * (1.0 / (2 * k - 1) - 1.0 / (2 * k + 1))
    return ChebyshevSeries(a)


def _even_clenshaw(a: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Value and derivative of ``sum_k a_k T_k(x)``, odd ``a_k`` above 1 being 0.

    With ``c_j = a_{2j}`` and ``y = 2x^2 - 1``, ``T_{2j}(x) = T_j(y)`` gives
    ``f = a_1 x + g(y)`` with ``g = sum_j c_j T_j``, and ``f' = a_1 + 4x g'(y)``
    with ``g' = sum_j j c_j U_{j-1}``.  One backward recurrence
    ``b_j = col_j + 2y b_{j+1} - b_{j+2}`` over the stacked rows
    ``[c_j, j c_j]`` sums the T-series of ``g`` (row 0) and the U-series of
    ``g'`` (row 1) together, in half as many steps as ``a`` has entries.

    Up to ``_CLENSHAW_COPY_MAX`` points the columns ``col_1 .. col_K`` are
    copied out to the points' shape, so no operation in the recurrence
    broadcasts; past it each is a broadcast ``(2, 1)`` column.  Either way
    every point gets the same arithmetic, so the result is the same.
    """
    a1 = a[1] if len(a) > 1 else 0.0
    c = a[0::2]
    k = len(c) - 1
    flat = x.reshape(-1)
    n = flat.size
    # col_j for j = 1..K; a lone zero column when K = 0, so that b_1 = b_2 = 0.
    cols = np.zeros((max(k, 1), 2, n if n <= _CLENSHAW_COPY_MAX else 1))
    cols[:k, 0] = c[1:, None]
    cols[:k, 1] = (np.arange(1.0, k + 1) * c[1:])[:, None]
    four_x = 4.0 * flat
    two_y = np.empty((2, n))
    two_y[...] = four_x * flat - 2.0
    # From b_{K+1} = b_{K+2} = 0 the first step gives b_K = col_K exactly.
    b1 = np.broadcast_to(cols[-1], (2, n)).copy()
    b2 = np.zeros((2, n))
    work = np.empty((2, n))
    for col in cols[-2::-1]:
        np.multiply(two_y, b1, work)
        np.subtract(work, b2, work)
        np.add(work, col, work)
        b2, b1, work = b1, work, b2
    value = a1 * flat + (c[0] + 0.5 * two_y[0] * b1[0] - b2[0])
    deriv = a1 + four_x * b1[1]
    return value.reshape(x.shape), deriv.reshape(x.shape)


def series_value_and_derivative(series: ChebyshevSeries, x):
    """Value and first derivative of the truncated series, in one pass.

    Both come from the same even-form Clenshaw recurrence, whose derivative
    is a second-kind series that stays finite on the closed interval,
    endpoints included.  A scalar ``x`` gives a pair of floats.
    """
    arr, scalar = _validate_eval_point(x)
    value, deriv = _even_clenshaw(series.coefficients, arr)
    return _maybe_scalar(value, scalar), _maybe_scalar(deriv, scalar)


def clenshaw_eval(series: ChebyshevSeries, x):
    """Evaluate the truncated series with Clenshaw's backward recurrence.

    Only multiply-add operations are used; the result is bit-for-bit
    deterministic for fixed inputs and agrees with the naive
    ``sum a_k T_k(x)`` to rounding error.
    """
    return series_value_and_derivative(series, x)[0]


def exact_psi(x, margin: float):
    """The exact margin transform ``cos(arccos(x) + margin)``.

    Computed through the cancellation-free identity
    ``x cos(m) - sqrt(1 - x^2) sin(m)``, which avoids arccos round-off
    near the domain edges.
    """
    arr, scalar = _validate_eval_point(x)
    # 1 - x^2 can round a hair below zero at |x| = 1.
    sine = np.sqrt(np.maximum(0.0, 1.0 - arr * arr))
    return _maybe_scalar(arr * math.cos(margin) - sine * math.sin(margin), scalar)


def exact_psi_grad(x, margin: float):
    """Derivative of the exact transform, ``cos(m) + x sin(m) / sqrt(1 - x^2)``.

    Unbounded as ``|x| -> 1``.  Points sitting exactly on ``|x| = 1`` are
    evaluated at the clamped abscissa ``1 - COS_EDGE_EPS`` so the result is
    a deterministic finite value rather than a division by zero.
    """
    arr, scalar = _validate_eval_point(x)
    clamped = _edge_clamp(arr)
    grad = math.cos(margin) + clamped * math.sin(margin) / np.sqrt(1.0 - clamped * clamped)
    return _maybe_scalar(grad, scalar)


def exact_psi_hessian(x, margin: float):
    """Second derivative of the exact transform, ``sin(m) (1 - x^2)^{-3/2}``.

    Same edge clamping as :func:`exact_psi_grad`.
    """
    arr, scalar = _validate_eval_point(x)
    clamped = _edge_clamp(arr)
    hess = math.sin(margin) * (1.0 - clamped * clamped) ** -1.5
    return _maybe_scalar(hess, scalar)


def _derivative_coefficients(coeffs: np.ndarray) -> np.ndarray:
    """T-series coefficients of the derivative of a T-series.

    Input and output both use the plain convention ``p = sum c_k T_k``.
    The standard backward recurrence d_{k-1} = d_{k+1} + 2k c_k, which
    never reads c_0, gives d_0 in the halved-constant convention, so d_0 is
    halved.  A constant's derivative is the single coefficient 0.
    """
    n = len(coeffs) - 1
    d = np.zeros(n + 2)
    for k in range(n, 0, -1):
        d[k - 1] = d[k + 1] + 2.0 * k * coeffs[k]
    d[0] /= 2.0
    return d[: max(n, 1)]


def series_derivative(series: ChebyshevSeries, x):
    """First derivative of the truncated series; see
    :func:`series_value_and_derivative`."""
    return series_value_and_derivative(series, x)[1]


def series_hessian(series: ChebyshevSeries, x):
    """Second derivative of the truncated series, finite on all of [-1, 1].

    The twice-differentiated coefficients form an even series (its ``a_1``
    is 0), evaluated by the same Clenshaw kernel everywhere; the truncated
    series is a polynomial, so its second derivative has no singularity at
    the endpoints.
    """
    arr, scalar = _validate_eval_point(x)
    d2 = _derivative_coefficients(_derivative_coefficients(series.coefficients))
    return _maybe_scalar(_even_clenshaw(d2, arr)[0], scalar)


def lipschitz_constant(series: ChebyshevSeries) -> float:
    """Exact Lipschitz constant ``sup |f'|`` on [-1, 1], which is ``f'(1)``.

    ``|T_k'(x)| <= k^2 = T_k'(1)``, so ``|f'|`` peaks at ``x = 1`` when
    ``a_1`` and every ``a_{2k}`` are non-negative, as they are for a margin
    in ``[0, pi/2)``; a negative one is an error.  In closed form,
    ``f'(1) = cos m + (2 sin m / pi) 4K(K+1)/(2K+1)`` for ``K = degree // 2``.
    """
    a = series.coefficients
    negative = np.flatnonzero(a[1:] < 0)
    if negative.size:
        k = 1 + int(negative[0])
        raise ValueError(f"coefficient a_{k} must be non-negative for sup |f'| = f'(1), got {a[k]}")
    return series_derivative(series, 1.0)


def approx_error_bound(margin: float, degree: int) -> float:
    """Uniform bound on ``|psi - f|`` for the degree-``degree`` series.

    The dropped coefficients are all positive and telescope:
    ``sum_{k > K} a_{2k} = 2 sin(m) / (pi (2K + 1))`` where ``2K`` is the
    largest even index kept.  Since ``|T_k| <= 1`` this also bounds the
    sup-norm error, and the bound is attained in the limit at ``x = 1``.
    """
    _check_series_args(margin, degree)
    half = degree // 2
    return 2.0 * math.sin(margin) / (math.pi * (2 * half + 1))
