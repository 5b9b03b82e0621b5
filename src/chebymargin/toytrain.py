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

import numpy as np

from .fileio import write_lines_atomic
from .losses import CosineBatch, LossSpec, loss_forward

# Scale used by the paired stability comparison.  At the classification
# default (32) the softmax saturates long before target cosines get close
# to 1, so the near-edge region is visited with exponentially small weight
# and the arccos-path explosion never shows up in the telemetry.  A small
# scale keeps the non-target mass bounded below, the margin pressure keeps
# pulling aligned samples toward cosine 1, and the two losses separate.
STABILITY_SCALE = 4.0

TELEMETRY_HEADER = "step,lr,mean_loss,grad_norm,max_target_cosine"


@dataclass(frozen=True)
class TrainConfig:
    """Configuration of one training run; identical configs give
    bit-identical telemetry."""

    loss: LossSpec
    epochs: int = 30
    batch_size: int = 64
    peak_lr: float = 0.2
    warmup_fraction: float = 0.1
    seed: int = 0
    dim: int = 32
    num_classes: int = 16
    samples_per_class: int = 200
    spread: float = 0.005
    momentum: float = 0.0

    def __post_init__(self):
        if self.peak_lr <= 0:
            raise ValueError("peak_lr must be positive")
        if not 0.0 < self.warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must be in (0, 1)")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.dim < 2:
            raise ValueError("dim must be >= 2")
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        if self.epochs < 0 or self.samples_per_class < 1:
            raise ValueError("epochs must be >= 0 and samples_per_class >= 1")
        if self.spread < 0:
            raise ValueError("spread must be non-negative")


@dataclass
class SphereDataset:
    """Unit-norm points in balanced classes around random unit prototypes."""

    points: np.ndarray
    labels: np.ndarray
    num_classes: int
    seed: int


@dataclass
class StepRecord:
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
    up under the arccos path.  ``nan_seen`` implies training halted at
    ``nan_step``.
    """

    records: list = field(default_factory=list)
    final_accuracy: float = 0.0
    nan_seen: bool = False
    nan_step: int | None = None
    grad_norm_max: float = 0.0
    final_weights: np.ndarray | None = None

    def write_csv(self, path: str) -> None:
        rows = (
            f"{r.step},{r.lr!r},{r.mean_loss!r},{r.grad_norm!r},{r.max_target_cosine!r}"
            for r in self.records
        )
        write_lines_atomic(path, chain([TELEMETRY_HEADER], rows))

    def write_summary(self, path: str) -> None:
        lines = [
            f"steps={len(self.records)}",
            f"final_accuracy={self.final_accuracy!r}",
            f"nan_seen={str(self.nan_seen).lower()}",
            f"nan_step={'' if self.nan_step is None else self.nan_step}",
            f"grad_norm_max={self.grad_norm_max!r}",
        ]
        write_lines_atomic(path, lines)


@dataclass
class InstabilityReport:
    grad_exceeded: bool
    first_exceeded_step: int | None
    nan_seen: bool
    nan_step: int | None


def _unit_rows(matrix: np.ndarray) -> np.ndarray:
    # np.linalg.norm(matrix, axis=1, keepdims=True), by its own formula.
    return matrix / np.sqrt(np.add.reduce(matrix * matrix, axis=1, keepdims=True))


def make_sphere_clusters(config: TrainConfig) -> SphereDataset:
    """Sample balanced Gaussian clusters around random unit prototypes.

    Points are renormalized to the unit sphere.  Deterministic per seed.
    """
    rng = np.random.default_rng(config.seed)
    prototypes = _unit_rows(rng.standard_normal((config.num_classes, config.dim)))
    labels = np.repeat(np.arange(config.num_classes), config.samples_per_class)
    noise = rng.standard_normal((labels.size, config.dim))
    points = _unit_rows(prototypes[labels] + config.spread * noise)
    return SphereDataset(
        points=points, labels=labels, num_classes=config.num_classes, seed=config.seed
    )


def warmup_cosine_lr(step: int, total_steps: int, peak: float, warmup_fraction: float) -> float:
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
    cosines.  Non-finite losses or gradients halt the run and set the NaN
    flag instead of raising, so paired comparisons always get telemetry.
    """
    data = make_sphere_clusters(config)
    rng = np.random.default_rng([config.seed, 1])
    weights = _unit_rows(rng.standard_normal((config.num_classes, config.dim)))
    velocity = np.zeros_like(weights)

    n = data.labels.size
    steps_per_epoch = (n + config.batch_size - 1) // config.batch_size
    total_steps = config.epochs * steps_per_epoch

    # Row-major offset of each batch row in its B x C cosine matrix.
    row_starts = np.arange(0, config.batch_size * config.num_classes, config.num_classes)
    telemetry = TrainTelemetry()
    step = 0
    for _ in range(config.epochs):
        if telemetry.nan_seen:
            break
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            points, labels = data.points.take(idx, axis=0), data.labels[idx]
            cosines = (points @ weights.T).clip(-1.0, 1.0)
            out = loss_forward(config.loss, CosineBatch(cosines, labels))

            lr = warmup_cosine_lr(step, total_steps, config.peak_lr, config.warmup_fraction)
            grad_norm = float(np.abs(out.grad_cosines).max())
            target_cos = cosines.take(row_starts[: labels.size] + labels)
            telemetry.records.append(
                StepRecord(
                    step=step,
                    lr=lr,
                    mean_loss=out.mean_loss,
                    grad_norm=grad_norm,
                    max_target_cosine=float(target_cos.max()),
                )
            )
            # max propagates NaN, so grad_norm is finite exactly when every
            # gradient entry is.
            if not (math.isfinite(out.mean_loss) and math.isfinite(grad_norm)):
                telemetry.nan_seen = True
                telemetry.nan_step = step
                break
            telemetry.grad_norm_max = max(telemetry.grad_norm_max, grad_norm)

            weight_grad = out.grad_cosines.T @ points / labels.size
            velocity = config.momentum * velocity + weight_grad
            # overflow here is handled by the flag below, not raised
            with np.errstate(over="ignore", invalid="ignore"):
                weights = _unit_rows(weights - lr * velocity)
            if not np.isfinite(weights).all():
                telemetry.nan_seen = True
                telemetry.nan_step = step
                break
            step += 1

    predictions = np.argmax(data.points @ weights.T, axis=1)
    telemetry.final_accuracy = float(np.mean(predictions == data.labels))
    telemetry.final_weights = weights
    return telemetry


def detect_instability(telemetry: TrainTelemetry, threshold: float) -> InstabilityReport:
    """Flag gradient norms above ``threshold`` and any NaN halt."""
    if threshold <= 0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    first = None
    for record in telemetry.records:
        if record.grad_norm > threshold:
            first = record.step
            break
    return InstabilityReport(
        grad_exceeded=first is not None,
        first_exceeded_step=first,
        nan_seen=telemetry.nan_seen,
        nan_step=telemetry.nan_step,
    )
