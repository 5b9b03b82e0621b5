"""CSV exports of the transform curves and two-class derivative surfaces.

Numbers are written with ``repr`` (shortest round-trip decimal), so parsing
an exported file reproduces the in-memory values exactly.  Files are
written atomically (temp file, then rename), their rows formatted on every
CPU in the process's affinity mask.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import chain

import numpy as np

from . import _forking, cheby_core
from .fileio import LINES_PER_WRITE, encode_lines, write_bytes_atomic
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


def _check_curves(margin: float, degrees, grid_n: int) -> None:
    """Refuse what ``export_curves`` would, before any work: a grid under 2
    points, no degree, a degree given twice, or a bad margin or degree."""
    if grid_n < 2:
        raise ValueError(f"need at least 2 grid points, got {grid_n}")
    if not degrees:
        raise ValueError("need at least one degree")
    for k, degree in enumerate(degrees):
        if degree in degrees[:k]:
            raise ValueError(f"duplicate degree {degree} in curve export")
        cheby_core._check_series_args(margin, degree)


def _check_surfaces(specs) -> None:
    """Refuse what ``export_surfaces`` would, before any work: no spec, or
    a loss kind given twice."""
    if not specs:
        raise ValueError("need at least one loss spec")
    labels = [spec.kind.value for spec in specs]
    for k, label in enumerate(labels):
        if label in labels[:k]:
            raise ValueError(f"duplicate loss kind {label} in surface export")


def export_curves(
    margin: float, degrees, grid_n: int, out_path: str | None = None
) -> CurveBundle:
    """Tabulate the exact transform and its series approximations.

    Columns: ``x, psi, psi_d1, psi_d2`` then ``cheb{d}, cheb{d}_d1,
    cheb{d}_d2`` per requested degree.  ``psi_d2`` is NaN in the bundle
    (empty in the CSV) within ``HESSIAN_BLANK_MARGIN`` of the edges, where
    the exact second derivative is off any plottable scale.
    """
    _check_curves(margin, degrees, grid_n)
    x = np.linspace(-1.0, 1.0, grid_n)
    columns: dict = {}
    columns["psi"] = cheby_core.exact_psi(x, margin)
    columns["psi_d1"] = cheby_core.exact_psi_grad(x, margin)
    psi_d2 = np.full_like(x, np.nan)
    interior = np.abs(x) <= 1.0 - HESSIAN_BLANK_MARGIN
    psi_d2[interior] = cheby_core.exact_psi_hessian(x[interior], margin)
    columns["psi_d2"] = psi_d2
    for degree in degrees:
        series = cheby_core.coefficients(margin, degree)
        value, deriv = cheby_core.series_value_and_derivative(series, x)
        columns[f"cheb{degree}"], columns[f"cheb{degree}_d1"] = value, deriv
        columns[f"cheb{degree}_d2"] = cheby_core.series_hessian(series, x)

    if out_path is not None:
        _write_rows(out_path, "x," + ",".join(columns), x.size, partial(_curve_rows, x, columns))
    return CurveBundle(x=x, columns=columns)


def _curve_rows(x: np.ndarray, columns: dict, start: int, stop: int):
    """Rows ``[start, stop)`` of the curves CSV: lazy per-column cells,
    zipped into rows as they are consumed; a NaN (v != v) is an empty cell."""
    cells = [map(repr, x[start:stop].tolist())] + [
        ("" if v != v else repr(v) for v in col[start:stop].tolist())
        for col in columns.values()
    ]
    return map(",".join, zip(*cells))


def export_surfaces(specs, grid_n: int, out_path: str | None = None) -> SurfaceBundle:
    """Derivative surfaces of the two-class loss for each spec.

    The CSV is long-format ``loss,s_p,s_n,dL_dsp``, one row per grid node
    per loss.
    """
    _check_surfaces(specs)
    axis = None
    surfaces: dict = {}
    for spec in specs:
        axis, surfaces[spec.kind.value] = binary_derivative_surface(spec, grid_n)

    if out_path is not None:
        rows = partial(_surface_rows, axis, surfaces)
        _write_rows(out_path, "loss,s_p,s_n,dL_dsp", len(surfaces) * axis.size**2, rows)
    return SurfaceBundle(axis=axis, surfaces=surfaces)


def _surface_rows(axis: np.ndarray, surfaces: dict, start: int, stop: int):
    """Rows ``[start, stop)`` of the long-format surfaces CSV, which holds
    one ``(loss, s_p)`` line of ``axis.size`` rows per surface row; the axis
    cells are formatted once."""
    n = axis.size
    axis_cells = list(map(repr, axis.tolist()))
    labels, grids = list(surfaces), list(surfaces.values())
    for line in range(start // n, -(-stop // n)):
        k, i = divmod(line, n)
        lo, hi = max(start - line * n, 0), min(stop - line * n, n)
        prefix = f"{labels[k]},{axis_cells[i]},"
        for sn, value in zip(axis_cells[lo:hi], grids[k][i, lo:hi].tolist()):
            yield f"{prefix}{sn},{value!r}"


def _write_rows(out_path: str, header: str, n_rows: int, format_rows) -> None:
    """Write ``header`` and rows ``[0, n_rows)`` through ``write_bytes_atomic``,
    formatted on every CPU the process may use.

    ``format_rows(start, stop)`` gives rows ``[start, stop)`` as lines.  The
    rows split into contiguous shares, one per CPU in the affinity mask, but
    none shorter than one ``encode_lines`` block.  This process encodes the
    header and share 0 while a forked child encodes each other share; the
    children's bytes follow unchanged, in share order, so the file is that
    of a single process.  A child that fails makes the write raise before
    the rename, and every child is reaped before this returns or raises.
    """
    shares = max(1, min(_forking.usable_cpus(), n_rows // LINES_PER_WRITE))
    bounds = [n_rows * k // shares for k in range(shares + 1)]
    with _forking.Children() as children:
        share_bytes = [
            children.start(
                partial(_share_blocks, format_rows, start, stop),
                f"formatting CSV rows {start}..{stop - 1}",
            )
            for start, stop in zip(bounds[1:-1], bounds[2:])
        ]
        own = encode_lines(chain([header], format_rows(0, bounds[1])))
        write_bytes_atomic(out_path, chain(own, *share_bytes))


def _share_blocks(format_rows, start: int, stop: int) -> list:
    """Rows ``[start, stop)`` as ``encode_lines`` blocks, all formatted before
    any is sent, so no child blocks on its pipe while share 0 is formatted."""
    return list(encode_lines(format_rows(start, stop)))


def derivative_gap(spec: LossSpec) -> GapReport:
    """Compare gradient magnitudes at the hard/easy probe points.

    A hard example has nearly tied logits (A), an easy one a wide gap (B);
    a larger ratio means the loss focuses its corrective signal on hard
    examples, and ``inf`` means B's gradient underflowed to 0.

    Both points have target cosine 0.8, so ``psi'(0.8)`` cancels: the ratio
    is exactly ``(1 + e^{s(f-0.2)}) / (1 + e^{s(f-0.8)})``, ``f`` the
    transform's value at 0.8.  The probe sees the value, not the slope.
    """
    out = loss_forward(spec, CosineBatch(np.array([POINT_A, POINT_B]), np.zeros(2, int)))
    grad_a, grad_b = np.abs(out.grad_cosines[:, 0]).tolist()
    ratio = grad_a / grad_b if grad_b else math.inf
    return GapReport(grad_a=grad_a, grad_b=grad_b, ratio=ratio)
