"""CSV exports of the transform curves and two-class derivative surfaces.

Numbers are written with ``repr`` (shortest round-trip decimal), so parsing
an exported file reproduces the in-memory values exactly.  Files are
written atomically (temp file, then rename).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import cheby_core
from .fileio import write_lines_atomic
from .losses import CosineBatch, LossSpec, binary_derivative_surface, loss_forward

# The exact second derivative grows like (1 - x^2)^{-3/2}; within this
# distance of the domain edge its CSV cells are left empty.
HESSIAN_BLANK_MARGIN = 1e-3

POINT_A = (0.8, 0.8)
POINT_B = (0.8, 0.2)


@dataclass
class CurveBundle:
    """x-grid plus labeled curve columns, in CSV column order."""

    x: np.ndarray
    columns: dict


@dataclass
class SurfaceBundle:
    """(s_p, s_n) axis plus one derivative matrix per loss."""

    axis: np.ndarray
    surfaces: dict


@dataclass
class GapReport:
    """Gradient magnitudes at the hard point A and the easy point B."""

    grad_a: float
    grad_b: float
    ratio: float


def export_curves(
    margin: float, degrees, grid_n: int, out_path: str | None = None
) -> CurveBundle:
    """Tabulate the exact transform and its series approximations.

    Columns: ``x, psi, psi_d1, psi_d2`` then ``cheb{d}, cheb{d}_d1,
    cheb{d}_d2`` per requested degree.  ``psi_d2`` is NaN in the bundle
    (empty in the CSV) within ``HESSIAN_BLANK_MARGIN`` of the edges, where
    the exact second derivative is off any plottable scale.
    """
    if grid_n < 2:
        raise ValueError(f"need at least 2 grid points, got {grid_n}")
    if not degrees:
        raise ValueError("need at least one degree")
    x = np.linspace(-1.0, 1.0, grid_n)
    columns: dict = {}
    columns["psi"] = cheby_core.exact_psi(x, margin)
    columns["psi_d1"] = cheby_core.exact_psi_grad(x, margin)
    psi_d2 = np.full_like(x, np.nan)
    interior = np.abs(x) <= 1.0 - HESSIAN_BLANK_MARGIN
    psi_d2[interior] = cheby_core.exact_psi_hessian(x[interior], margin)
    columns["psi_d2"] = psi_d2
    for degree in degrees:
        if f"cheb{degree}" in columns:
            raise ValueError(f"duplicate degree {degree} in curve export")
        series = cheby_core.coefficients(margin, degree)
        value, deriv = cheby_core.series_value_and_derivative(series, x)
        columns[f"cheb{degree}"], columns[f"cheb{degree}_d1"] = value, deriv
        columns[f"cheb{degree}_d2"] = cheby_core.series_hessian(series, x)

    bundle = CurveBundle(x=x, columns=columns)
    if out_path is not None:
        # Lazy per-column cells, zipped into rows as they are written; a NaN
        # (v != v) is an empty cell.
        cells = [map(repr, x.tolist())] + [
            ("" if v != v else repr(v) for v in col.tolist()) for col in columns.values()
        ]
        rows = map(",".join, zip(*cells))
        write_lines_atomic(out_path, chain(["x," + ",".join(columns)], rows))
    return bundle


def export_surfaces(specs, grid_n: int, out_path: str | None = None) -> SurfaceBundle:
    """Derivative surfaces of the two-class loss for each spec.

    The CSV is long-format ``loss,s_p,s_n,dL_dsp``, one row per grid node
    per loss.
    """
    if not specs:
        raise ValueError("need at least one loss spec")
    axis = None
    surfaces: dict = {}
    for spec in specs:
        label = spec.kind.value
        if label in surfaces:
            raise ValueError(f"duplicate loss kind {label} in surface export")
        axis, surfaces[label] = binary_derivative_surface(spec, grid_n)

    bundle = SurfaceBundle(axis=axis, surfaces=surfaces)
    if out_path is not None:
        write_lines_atomic(out_path, _surface_lines(axis, surfaces))
    return bundle


def _surface_lines(axis: np.ndarray, surfaces: dict):
    """Header, then the long-format rows; the axis cells are formatted once."""
    yield "loss,s_p,s_n,dL_dsp"
    axis_cells = list(map(repr, axis.tolist()))
    for label, surface in surfaces.items():
        for sp, row in zip(axis_cells, surface.tolist()):
            prefix = f"{label},{sp},"
            for sn, value in zip(axis_cells, row):
                yield f"{prefix}{sn},{value!r}"


def derivative_gap(spec: LossSpec) -> GapReport:
    """Compare gradient magnitudes at the hard/easy probe points.

    A hard example has nearly tied logits (A), an easy one a wide gap (B);
    a larger ratio means the loss focuses its corrective signal on hard
    examples, and ``inf`` means B's gradient underflowed to 0.
    """
    out = loss_forward(spec, CosineBatch(np.array([POINT_A, POINT_B]), np.zeros(2, int)))
    grad_a, grad_b = np.abs(out.grad_cosines[:, 0]).tolist()
    ratio = grad_a / grad_b if grad_b else math.inf
    return GapReport(grad_a=grad_a, grad_b=grad_b, ratio=ratio)
