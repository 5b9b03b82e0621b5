"""Margin-based softmax losses over cosine-similarity logits.

Implements the classical family (normalized softmax, additive cosine
margin, additive angular margin) plus the Chebyshev-series variant of the
additive angular margin, all with analytic gradients with respect to the
input cosines.

Every loss is standard softmax cross entropy over scaled logits where only
the target-class logit is passed through the margin transform; non-target
logits are always left unchanged.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import cheby_core

# loss_grad_check reports every analytic gradient entry above this magnitude.
LARGE_GRAD = 100.0


class LossKind(enum.Enum):
    """The supported target-logit transforms."""

    N_SOFTMAX = "nsoftmax"
    AM_SOFTMAX = "amsoftmax"
    AAM_SOFTMAX = "aamsoftmax"
    CHEBY_AAM = "chebyaam"


@dataclass(frozen=True)
class LossSpec:
    """Configuration of one margin loss.

    ``margin`` is radians for the angular kinds and a cosine offset for
    AM_SOFTMAX; its default 0.3 is ArcFace's (arXiv:1801.07698).
    ``degree`` is only consulted for CHEBY_AAM.

    AAM_SOFTMAX and CHEBY_AAM are not monotone in the target cosine: for
    ``x < -cos(margin)`` the angle ``theta + margin`` passes ``pi``.  As ``x``
    falls from 1, the exact transform reaches its minimum -1 at
    ``x = -cos(margin)`` and then rises again to ``-cos(margin)`` at
    ``x = -1``; the series inherits this.  No fallback is applied here.
    ArcFace's "easy margin" (arXiv:1801.07698) is the known one: it applies
    the margin only where ``x > 0``.
    """

    kind: LossKind
    margin: float = 0.3
    scale: float = 32.0
    degree: int = 30

    def __post_init__(self):
        if not 0.0 < self.scale < math.inf:
            raise ValueError(f"scale must be positive and finite, got {self.scale}")
        angular = self.kind in (LossKind.AAM_SOFTMAX, LossKind.CHEBY_AAM)
        if angular and not self.margin < math.pi / 2:
            raise ValueError(f"angular margin must be in [0, pi/2), got {self.margin}")
        # At m >= 2, x - m <= -1 for every cosine x, so the target logit
        # can never beat a non-target one.
        if self.kind is LossKind.AM_SOFTMAX and not self.margin < 2:
            raise ValueError(f"AM-Softmax margin must be below 2, got {self.margin}")
        # Last, so that a kind with its own range names it first.
        if not 0 <= self.margin < math.inf:
            raise ValueError(f"margin must be non-negative and finite, got {self.margin}")
        cheby = self.kind is LossKind.CHEBY_AAM
        if cheby and not np.issubdtype(type(self.degree), np.integer):
            raise ValueError(f"series degree must be an integer, got {self.degree}")
        if cheby and self.degree < 1:
            raise ValueError(f"series degree must be >= 1, got {self.degree}")

    @functools.cached_property
    def series(self) -> cheby_core.ChebyshevSeries:
        """The CHEBY_AAM series of ``margin`` and ``degree``, built on first use."""
        return cheby_core.coefficients(self.margin, self.degree)


@dataclass
class CosineBatch:
    """A non-empty batch of per-class cosine similarities with ground-truth labels."""

    cosines: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.cosines, _ = cheby_core._validate_eval_point(self.cosines)
        self.labels = _integer_labels(self.labels)
        if self.cosines.ndim != 2:
            raise ValueError("cosines must be a [batch x classes] matrix")
        if self.cosines.size == 0:
            raise ValueError("batch must not be empty")
        n_classes = self.cosines.shape[1]
        if n_classes < 2:
            raise ValueError("batch needs at least two classes")
        if self.labels.shape != (self.cosines.shape[0],):
            raise ValueError("labels must hold one class index per row")
        if self.labels.min() < 0 or self.labels.max() >= n_classes:
            raise ValueError(f"labels must lie in [0, {n_classes})")


def _integer_labels(labels) -> np.ndarray:
    """``labels`` as an int array.

    Integer labels pass, and float labels whose values are all integral
    become ints.  Any other value (fractional, non-finite, text, boolean)
    is an error naming the first such value, not coerced.
    """
    arr = np.asarray(labels)
    if arr.dtype.kind in "iu":
        return arr.astype(int, copy=False)
    integral = np.zeros(arr.shape, dtype=bool)
    if arr.dtype.kind == "f":
        integral = np.isfinite(arr) & (arr == np.trunc(arr))
    if not np.all(integral):
        raise ValueError(f"labels must be integers, got {arr.flat[np.argmin(integral)]}")
    return arr.astype(int)


@dataclass
class LossOutput:
    per_sample_loss: np.ndarray
    mean_loss: float
    grad_cosines: np.ndarray
    target_cosines: np.ndarray


@dataclass
class GradCheckReport:
    """Result of comparing analytic gradients against central differences."""

    max_rel_error: float
    max_abs_grad: float
    large_grad_entries: list = field(default_factory=list)

    @property
    def has_large_grad(self) -> bool:
        return bool(self.large_grad_entries)


def _target_transform(spec: LossSpec):
    """The target-logit transform of ``spec``: a callable from a float array
    of cosines, ``|x| <= 1`` already checked by the caller, to the
    transformed logits and their derivatives with respect to x."""
    if spec.kind is LossKind.N_SOFTMAX:
        return lambda x: (x, np.ones_like(x))
    if spec.kind is LossKind.AM_SOFTMAX:
        return lambda x: (x - spec.margin, np.ones_like(x))
    if spec.kind is LossKind.AAM_SOFTMAX:
        margin = spec.margin
        return lambda x: (cheby_core._psi(x, margin), cheby_core._psi_grad(x, margin))
    return cheby_core._clenshaw_plan(spec.series.coefficients)


def transform_target_logit(spec: LossSpec, x):
    """Apply the target-logit margin transform of ``spec`` to cosine ``x``."""
    arr, scalar = cheby_core._validate_eval_point(x)
    value, _ = _target_transform(spec)(arr)
    return cheby_core._maybe_scalar(value, scalar)


def _forward(spec: LossSpec):
    """The loss of ``spec``, prepared once: a callable
    ``(cosines, labels) -> LossOutput`` that checks nothing.

    ``cosines`` is a float ``batch x classes`` array with every entry in
    ``[-1, 1]`` and ``labels`` an int array of one class index per row,
    as a ``CosineBatch`` holds them.  Every returned array is fresh.
    """
    scale = spec.scale
    transform = _target_transform(spec)

    def forward(cosines: np.ndarray, labels: np.ndarray) -> LossOutput:
        # Row-major positions of each row's target entry.
        targets = np.arange(0, cosines.size, cosines.shape[1]) + labels
        target_cosines = cosines.take(targets)
        psi, dpsi = transform(target_cosines)

        # One C-ordered B x C buffer holds the logits, then their
        # exponentials, then the gradient; ``flat`` is a view of it, so
        # writes through it land in ``work``.
        target_logit = scale * psi
        work = np.multiply(cosines, scale, order="C")
        flat = work.reshape(-1)
        flat[targets] = target_logit
        logits_max = np.maximum.reduce(work, 1)
        work -= logits_max[:, None]
        np.exp(work, work)
        denom = np.add.reduce(work, 1)
        flat[targets] = 0.0
        nontarget_mass = np.add.reduce(work, 1) / denom

        per_sample = np.log(denom) - (target_logit - logits_max)
        work *= scale / denom[:, None]
        flat[targets] = -scale * dpsi * nontarget_mass
        return LossOutput(
            per_sample_loss=per_sample,
            # np.mean's own sum and division, without its dispatch.
            mean_loss=float(np.add.reduce(per_sample) / per_sample.size),
            grad_cosines=work,
            target_cosines=target_cosines,
        )

    return forward


def loss_forward(spec: LossSpec, batch: CosineBatch) -> LossOutput:
    """Softmax cross entropy with the margin applied to the target logit.

    The per-sample loss is ``-log softmax(s * z)_y`` where ``z`` equals the
    cosines except ``z_y = psi(x_y)``.  Softmax uses per-row max subtraction
    so scale-32 logits cannot overflow.  ``grad_cosines`` holds the analytic
    per-sample derivative with respect to every cosine entry; the target
    column is ``-s * psi'(x_y) * sum_{j != y} p_j`` with the non-target
    probability mass summed directly so it survives heavy saturation.
    """
    return _forward(spec)(batch.cosines, batch.labels)


def loss_grad_check(spec: LossSpec, batch: CosineBatch, step: float = 1e-5) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    Each cosine entry is perturbed by ``+-step``, clipped to ``[-1, 1]``,
    and the per-sample loss difference over the clipped span is compared
    entry-by-entry with ``grad_cosines``.  A step too small to move some
    cosine (a zero span) is an error naming that cosine; a step of 2 or
    more, whose every span is all of ``[-1, 1]``, is an error too.
    Rows are independent, so one pass of one prepared step per perturbed
    column covers the whole batch.  The relative error uses
    ``max(1, |fd|, |analytic|)`` as denominator so that near-zero entries
    are judged on absolute error.
    Entries whose analytic gradient magnitude exceeds ``LARGE_GRAD`` are
    reported in ``large_grad_entries``.
    """
    if not step > 0:
        raise ValueError(f"step must be positive, got {step}")
    if step == math.inf:
        raise ValueError(f"step must be finite, got {step}")
    if step >= 2:
        raise ValueError(f"step must be below 2, got {step}")
    cosines, labels = batch.cosines, batch.labels
    upper = np.minimum(cosines + step, 1.0)
    lower = np.maximum(cosines - step, -1.0)
    span = upper - lower
    unmoved = np.flatnonzero(span == 0)
    if unmoved.size:
        raise ValueError(
            f"step {step!r} is too small to move the cosine {float(cosines.flat[unmoved[0]])!r}"
        )
    forward = _forward(spec)
    analytic = forward(cosines, labels).grad_cosines

    fd = np.empty_like(analytic)
    plus, minus = cosines.copy(), cosines.copy()
    for col in range(cosines.shape[1]):
        plus[:, col], minus[:, col] = upper[:, col], lower[:, col]
        fd[:, col] = forward(plus, labels).per_sample_loss - forward(minus, labels).per_sample_loss
        plus[:, col] = minus[:, col] = cosines[:, col]
    fd /= span
    abs_grad = np.abs(analytic)
    # Per entry, as Python's max would drop a NaN loss difference.
    rel = np.abs(fd - analytic) / np.maximum(1.0, np.maximum(np.abs(fd), abs_grad))

    large = [(int(i), int(j)) for i, j in zip(*np.nonzero(abs_grad > LARGE_GRAD))]
    return GradCheckReport(float(rel.max()), float(abs_grad.max()), large)


def binary_derivative_surface(spec: LossSpec, grid_n: int):
    """Derivative of the two-class loss with respect to the target logit.

    Evaluates the loss on every node of a ``grid_n x grid_n`` grid over
    ``(s_p, s_n) in [-1, 1]^2``, target logit ``s_p``, and returns
    ``(axis, surface)`` where ``surface[i, j]`` is the analytic
    ``d loss / d s_p`` at ``(axis[i], axis[j])``.
    """
    if grid_n < 2:
        raise ValueError(f"need at least 2 grid points, got {grid_n}")
    axis = np.linspace(-1.0, 1.0, grid_n)
    sp, sn = np.meshgrid(axis, axis, indexing="ij")
    cosines = np.column_stack([sp.ravel(), sn.ravel()])
    labels = np.zeros(cosines.shape[0], dtype=int)
    out = loss_forward(spec, CosineBatch(cosines, labels))
    return axis, out.grad_cosines[:, 0].reshape(grid_n, grid_n)
