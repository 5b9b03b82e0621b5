"""Desk-scale training harness for the margin losses.

A single cosine classifier (one linear layer whose rows are kept unit-norm,
so logits are cosines) is trained with plain SGD on synthetic hypersphere
clusters.  The point is not the model: the harness records the gradient
telemetry that distinguishes the bounded series transform from the
exploding arccos-path transform when target cosines approach 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from typing import NamedTuple

import numpy as np

from .fileio import write_lines_atomic
# ``loss_forward`` and ``CosineBatch`` are the public form of the step that
# ``train`` prepares once; bench/tracing.py wraps them in this module.
from .losses import CosineBatch, LossSpec, _forward, loss_forward  # noqa: F401

# Scale used by the paired stability comparison.  At the classification
# default (32) the softmax saturates long before target cosines get close
# to 1, so the near-edge region is visited with exponentially small weight
# and the arccos-path explosion never shows up in the telemetry.  A small
# scale keeps the non-target mass bounded below, the margin pressure keeps
# pulling aligned samples toward cosine 1, and the two losses separate.
STABILITY_SCALE = 4.0

# Share of the steps spent ramping the learning rate up to ``peak_lr``.
WARMUP_FRACTION = 0.1


@dataclass(frozen=True)
class TrainConfig:
    """Configuration of one training run; identical configs give
    bit-identical telemetry."""

    loss: LossSpec
    epochs: int = 30
    batch_size: int = 64
    peak_lr: float = 0.2
    seed: int = 0
    dim: int = 32
    num_classes: int = 16
    samples_per_class: int = 200
    spread: float = 0.005

    def __post_init__(self):
        if not 0.0 < self.peak_lr < math.inf:
            raise ValueError(f"peak_lr must be positive and finite, got {self.peak_lr}")
        floors = dict(epochs=0, batch_size=1, seed=0, dim=2, num_classes=2, samples_per_class=1)
        for name, low in floors.items():
            value = getattr(self, name)
            if not np.issubdtype(type(value), np.integer):
                raise ValueError(f"{name} must be an integer, got {value}")
            if value < low:
                raise ValueError(f"{name} must be >= {low}, got {value}")
        if not 0.0 <= self.spread < math.inf:
            raise ValueError(f"spread must be non-negative and finite, got {self.spread}")


@dataclass
class SphereDataset:
    """Unit-norm points in balanced classes around random unit prototypes."""

    points: np.ndarray
    labels: np.ndarray


class StepRecord(NamedTuple):
    """One step's telemetry; the fields are the CSV's columns, in order."""

    step: int
    lr: float
    mean_loss: float
    grad_norm: float
    max_target_cosine: float


@dataclass
class TrainTelemetry:
    """Per-step records plus run summary.

    ``grad_norm`` is the largest absolute entry of the per-sample
    loss-vs-cosine gradient matrix for the step's batch: the quantity the
    margin transform's Lipschitz constant bounds, and the one that blows
    up under the arccos path.  ``nan_step`` is the step a non-finite value
    halted training at; ``nan_seen`` is derived from it.
    """

    records: list = field(default_factory=list)
    final_accuracy: float = 0.0
    nan_step: int | None = None
    grad_norm_max: float = 0.0
    final_weights: np.ndarray | None = None

    @property
    def nan_seen(self) -> bool:
        return self.nan_step is not None

    def write_csv(self, path: str) -> None:
        rows = (",".join(map(repr, r)) for r in self.records)
        write_lines_atomic(path, chain([",".join(StepRecord._fields)], rows))

    def write_summary(self, path: str) -> list[str]:
        """Write the summary's ``key=value`` lines to ``path`` and return them."""
        lines = [
            f"steps={len(self.records)}",
            f"final_accuracy={self.final_accuracy!r}",
            f"nan_seen={str(self.nan_seen).lower()}",
            f"nan_step={'' if self.nan_step is None else self.nan_step}",
            f"grad_norm_max={self.grad_norm_max!r}",
        ]
        write_lines_atomic(path, lines)
        return lines


def _row_norms(matrix: np.ndarray) -> np.ndarray:
    """np.linalg.norm(matrix, axis=1, keepdims=True), by its own formula."""
    return np.sqrt(np.add.reduce(matrix * matrix, axis=1, keepdims=True))


def _unit_rows(matrix: np.ndarray) -> np.ndarray:
    """Scale the rows of ``matrix`` to unit norm in place and return it."""
    matrix /= _row_norms(matrix)
    return matrix


def make_sphere_clusters(config: TrainConfig) -> SphereDataset:
    """Sample balanced Gaussian clusters around random unit prototypes.

    Points are renormalized to the unit sphere.  Deterministic per seed.
    A spread so large that a point or the square of its norm overflows is
    a ``ValueError``: past about 1e154 the norm is inf, and dividing by it
    would leave the point all zeros.
    """
    rng = np.random.default_rng(config.seed)
    prototypes = _unit_rows(rng.standard_normal((config.num_classes, config.dim)))
    labels = np.repeat(np.arange(config.num_classes), config.samples_per_class)
    points = rng.standard_normal((labels.size, config.dim))
    with np.errstate(over="ignore"):
        points *= config.spread
        points += prototypes[labels]
        norms = _row_norms(points)
    if not np.isfinite(norms).all():
        raise ValueError(f"spread {config.spread!r} overflows the cluster points")
    points /= norms
    return SphereDataset(points=points, labels=labels)


def _warmup_cosine_lr(step: int, total_steps: int, peak: float, warmup_fraction: float) -> float:
    """Linear ramp to ``peak`` over the warmup span, then cosine decay to 0."""
    if not 0 <= step < total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps})")
    warmup_steps = warmup_fraction * total_steps
    if step < warmup_steps:
        return peak * step / warmup_steps
    progress = (step - warmup_steps) / (total_steps - warmup_steps)
    return 0.5 * peak * (1.0 + math.cos(math.pi * progress))


def train(config: TrainConfig) -> TrainTelemetry:
    """Run SGD on the cosine classifier, recording telemetry every step.

    Prototype rows are renormalized after every update so logits remain
    cosines.  A non-finite loss, gradient or weight halts the run and sets
    ``nan_step`` instead of raising, so paired comparisons always get telemetry.
    A spread so large that the cluster points overflow is a ``ValueError``
    from :func:`make_sphere_clusters`, raised before the first step.
    """
    data = make_sphere_clusters(config)
    rng = np.random.default_rng([config.seed, 1])
    weights = _unit_rows(rng.standard_normal((config.num_classes, config.dim)))

    n = data.labels.size
    starts = range(0, n, config.batch_size)
    total_steps = config.epochs * len(starts)
    # The inputs are checked once (make_sphere_clusters refuses an overflowing
    # spread, the labels are the dataset's, each step clips its cosines), so
    # no step builds a CosineBatch and one prepared loss step serves them all.
    forward = _forward(config.loss)

    telemetry = TrainTelemetry()
    # Each epoch's points and labels are gathered once, in its order, and
    # each step takes a slice of them.
    epochs = (
        (data.points.take(order, axis=0), data.labels.take(order))
        for order in (rng.permutation(n) for _ in range(config.epochs))
    )
    batches = (
        (points[start : start + config.batch_size], labels[start : start + config.batch_size])
        for points, labels in epochs
        for start in starts
    )
    for step, (points, labels) in enumerate(batches):
        cosines = points @ weights.T
        np.clip(cosines, -1.0, 1.0, cosines)
        out = forward(cosines, labels)

        lr = _warmup_cosine_lr(step, total_steps, config.peak_lr, WARMUP_FRACTION)
        grad_norm = float(np.abs(out.grad_cosines).max())
        telemetry.records.append(
            StepRecord(
                step=step,
                lr=lr,
                mean_loss=out.mean_loss,
                grad_norm=grad_norm,
                max_target_cosine=float(out.target_cosines.max()),
            )
        )
        # max propagates NaN, so grad_norm is finite exactly when every
        # gradient entry is.
        finite = math.isfinite(out.mean_loss) and math.isfinite(grad_norm)
        if finite:
            telemetry.grad_norm_max = max(telemetry.grad_norm_max, grad_norm)
            weight_grad = out.grad_cosines.T @ points / labels.size
            # overflow here is handled by the halt below, not raised
            with np.errstate(over="ignore", invalid="ignore"):
                weights = _unit_rows(weights - lr * weight_grad)
        if not (finite and np.isfinite(weights).all()):
            telemetry.nan_step = step
            break

    # Scored in blocks of the step's shape, so BLAS threads this pass
    # exactly when it threads the steps.
    blocks = (data.points[start : start + config.batch_size] @ weights.T for start in starts)
    predictions = np.concatenate([np.argmax(block, axis=1) for block in blocks])
    telemetry.final_accuracy = float(np.mean(predictions == data.labels))
    telemetry.final_weights = weights
    return telemetry
