"""Chebyshev-series angular margin losses and their diagnostics."""

from .cheby_core import (
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
from .landscape import derivative_gap, export_curves, export_surfaces
from .losses import (
    CosineBatch,
    LossKind,
    LossOutput,
    LossSpec,
    binary_derivative_surface,
    loss_forward,
    loss_grad_check,
    transform_target_logit,
)
from .toytrain import TrainConfig, TrainTelemetry, make_sphere_clusters, train
from .verif_metrics import (
    DcfParams,
    Trials,
    compute_eer,
    compute_min_dcf,
    parse_trials,
)

__all__ = [
    "ChebyshevSeries",
    "CosineBatch",
    "DcfParams",
    "LossKind",
    "LossOutput",
    "LossSpec",
    "TrainConfig",
    "TrainTelemetry",
    "Trials",
    "approx_error_bound",
    "binary_derivative_surface",
    "clenshaw_eval",
    "coefficients",
    "compute_eer",
    "compute_min_dcf",
    "derivative_gap",
    "exact_psi",
    "exact_psi_grad",
    "exact_psi_hessian",
    "export_curves",
    "export_surfaces",
    "lipschitz_constant",
    "loss_forward",
    "loss_grad_check",
    "make_sphere_clusters",
    "parse_trials",
    "series_derivative",
    "series_hessian",
    "series_value_and_derivative",
    "train",
    "transform_target_logit",
]
