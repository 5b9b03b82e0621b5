"""Tests for the curve/surface CSV exports and the gradient-gap probe."""

import csv
import math
import os
import subprocess
import sys
import warnings
from itertools import islice

import numpy as np
import pytest

from conftest import assert_no_child, fake_cpus

from chebymargin import cheby_core, landscape
from chebymargin.cheby_core import approx_error_bound, coefficients, lipschitz_constant
from chebymargin.landscape import (
    HESSIAN_BLANK_MARGIN,
    POINT_A,
    POINT_B,
    GapReport,
    derivative_gap,
    export_curves,
    export_surfaces,
)
from chebymargin.losses import (
    CosineBatch,
    LossKind,
    LossSpec,
    binary_derivative_surface,
    loss_forward,
)


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    return header, rows


def oracle_cell(value) -> str:
    return "" if np.isnan(value) else repr(float(value))


def oracle_curves_csv(margin, degrees, grid_n) -> bytes:
    """The curves CSV built cell by cell, each series column by its own call."""
    x = np.linspace(-1.0, 1.0, grid_n)
    psi_d2 = np.full_like(x, np.nan)
    interior = np.abs(x) <= 1.0 - HESSIAN_BLANK_MARGIN
    psi_d2[interior] = cheby_core.exact_psi_hessian(x[interior], margin)
    columns = {
        "psi": cheby_core.exact_psi(x, margin),
        "psi_d1": cheby_core.exact_psi_grad(x, margin),
        "psi_d2": psi_d2,
    }
    for degree in degrees:
        series = coefficients(margin, degree)
        columns[f"cheb{degree}"] = cheby_core.clenshaw_eval(series, x)
        columns[f"cheb{degree}_d1"] = cheby_core.series_derivative(series, x)
        columns[f"cheb{degree}_d2"] = cheby_core.series_hessian(series, x)
    lines = ["x," + ",".join(columns)]
    for i in range(grid_n):
        cells = [repr(float(x[i]))] + [oracle_cell(col[i]) for col in columns.values()]
        lines.append(",".join(cells))
    return ("\n".join(lines) + "\n").encode()


def oracle_surfaces_csv(specs, grid_n) -> bytes:
    """The long-format surfaces CSV built cell by cell."""
    lines = ["loss,s_p,s_n,dL_dsp"]
    for spec in specs:
        axis, surface = binary_derivative_surface(spec, grid_n)
        for i, sp in enumerate(axis):
            for j, sn in enumerate(axis):
                lines.append(
                    f"{spec.kind.value},{float(sp)!r},{float(sn)!r},{float(surface[i, j])!r}"
                )
    return ("\n".join(lines) + "\n").encode()


def surface_specs(margin):
    return [
        LossSpec(LossKind.N_SOFTMAX, scale=32.0),
        LossSpec(LossKind.AAM_SOFTMAX, margin=margin, scale=32.0),
        LossSpec(LossKind.CHEBY_AAM, margin=margin, scale=4.0, degree=2),
    ]


class TestExportBytes:
    """The streamed exports write exactly the cell-by-cell oracle's bytes,
    whether one process formats the rows or several share them."""

    @pytest.mark.parametrize("margin", [0.0, 0.3])
    @pytest.mark.parametrize(
        "grid_n, cpus, children",
        [
            # On three CPUs up to 1023 rows make one share, 2500 rows two
            # and 3100 or 4001 rows three.
            *(pytest.param(n, 3, 0, id=str(n)) for n in (2, 7, 10)),
            pytest.param(4001, 3, 2, id="4001"),
            pytest.param(3100, 3, 2, id="3100"),
            pytest.param(2500, 3, 1, id="2500"),
            pytest.param(4001, 1, 0, id="4001-1cpu"),
            pytest.param(4001, None, 0, id="4001-no-affinity"),
        ],
    )
    def test_curves_match_oracle(self, tmp_path, monkeypatch, margin, grid_n, cpus, children):
        forks = fake_cpus(monkeypatch, cpus, children)
        out = tmp_path / "curves.csv"
        degrees = [1, 2, 5, 30]
        export_curves(margin, degrees, grid_n, str(out))
        assert len(forks) == children
        assert_no_child()
        data = out.read_bytes()
        assert data == oracle_curves_csv(margin, degrees, grid_n)
        if grid_n > 10:
            # Blank psi_d2 cells beyond both endpoints are exercised, the
            # last ones in the last share.
            lines = data.split(b"\n")
            assert lines[2].split(b",")[3] == lines[-3].split(b",")[3] == b""

    @pytest.mark.parametrize("margin", [0.0, 0.3])
    @pytest.mark.parametrize(
        "grid_n, children",
        [
            # On three CPUs the 3267 rows of grid 33 make three shares, one
            # per loss, and the 2187 of grid 27 two, split inside a line.
            *(pytest.param(n, 0, id=str(n)) for n in (2, 5, 8)),
            pytest.param(33, 2, id="33"),
            pytest.param(27, 1, id="27"),
        ],
    )
    def test_surfaces_match_oracle(self, tmp_path, monkeypatch, margin, grid_n, children):
        forks = fake_cpus(monkeypatch, 3, children)
        out = tmp_path / "surf.csv"
        specs = surface_specs(margin)
        export_surfaces(specs, grid_n, str(out))
        assert len(forks) == children
        assert_no_child()
        assert out.read_bytes() == oracle_surfaces_csv(specs, grid_n)


class TestExportProcesses:
    """Three-share exports on three CPUs: a failure anywhere keeps the old
    target, leaves no temp file and no child process."""

    EXPORTS = {
        "curves": ("_curve_rows", 3100, lambda out: export_curves(0.3, [2, 30], 3100, out)),
        "surfaces": (
            "_surface_rows", 3267, lambda out: export_surfaces(surface_specs(0.3), 33, out)
        ),
    }

    @pytest.mark.parametrize(
        "failure, raised",
        [
            # The last share's child fails after the first child's rows were
            # relayed: its exit status is all that stops the rename.
            ("child", ChildProcessError),
            ("parent", RuntimeError),
            ("interrupt", KeyboardInterrupt),
        ],
    )
    @pytest.mark.parametrize("export", ["curves", "surfaces"])
    def test_failed_share_leaves_nothing_behind(
        self, tmp_path, monkeypatch, capfd, export, failure, raised
    ):
        name, n_rows, run = self.EXPORTS[export]
        format_rows = getattr(landscape, name)

        def failing_rows(*args):
            start, stop = args[-2:]
            rows = format_rows(*args)
            if (stop == n_rows) if failure == "child" else (start == 0):
                yield from islice(rows, 100)
                if failure == "interrupt":
                    raise KeyboardInterrupt
                raise RuntimeError("formatting failed")
            yield from rows

        fake_cpus(monkeypatch, 3)
        monkeypatch.setattr(landscape, name, failing_rows)
        out = tmp_path / "out.csv"
        out.write_bytes(b"old,bytes\n")
        with pytest.raises(raised):
            run(str(out))
        assert out.read_bytes() == b"old,bytes\n"
        assert os.listdir(tmp_path) == ["out.csv"]
        assert_no_child()
        if failure == "child":
            assert "RuntimeError: formatting failed" in capfd.readouterr().err

    def test_children_flush_no_inherited_buffer(self, tmp_path):
        """A child leaves through ``os._exit``: text still in the parent's
        stdout buffer at the fork is written once, not once per process."""
        code = (
            "import os\n"
            "os.sched_getaffinity = lambda pid: {0, 1, 2}\n"
            "from chebymargin.landscape import export_curves\n"
            "print('buffered')\n"
            f"export_curves(0.3, [2, 30], 3100, {str(tmp_path / 'c.csv')!r})\n"
        )
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert (result.returncode, result.stderr) == (0, "")
        assert result.stdout == "buffered\n"

    def test_unwritable_target_leaves_no_child(self, tmp_path, monkeypatch):
        forks = fake_cpus(monkeypatch, 3)
        _, _, run = self.EXPORTS["curves"]
        with pytest.raises(FileNotFoundError):
            run(str(tmp_path / "missing" / "out.csv"))
        assert len(forks) == 2
        assert_no_child()

    def test_python_3_12_fork_warning_is_not_emitted(self, tmp_path, monkeypatch):
        """Python 3.12+ warns at a fork in a multi-threaded process, which
        OpenBLAS makes of any numpy process; the export does not pass it on."""
        fake_cpus(monkeypatch, 3)
        counting_fork = os.fork

        def warning_fork():
            message = (
                f"This process (pid={os.getpid()}) is multi-threaded, use of fork() "
                "may lead to deadlocks in the child."
            )
            warnings.warn(message, DeprecationWarning, stacklevel=2)
            return counting_fork()

        monkeypatch.setattr(os, "fork", warning_fork)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            self.EXPORTS["curves"][2](str(tmp_path / "out.csv"))
        assert [str(w.message) for w in caught] == []
        assert_no_child()


class TestExportCurves:
    def test_shape_and_header(self, tmp_path):
        out = tmp_path / "curves.csv"
        export_curves(0.3, [2, 30], 2001, str(out))
        header, rows = read_csv(str(out))
        assert header == [
            "x",
            "psi",
            "psi_d1",
            "psi_d2",
            "cheb2",
            "cheb2_d1",
            "cheb2_d2",
            "cheb30",
            "cheb30_d1",
            "cheb30_d2",
        ]
        assert len(rows) == 2001

    def test_zero_margin_psi_equals_x(self):
        bundle = export_curves(0.0, [4], 101)
        np.testing.assert_array_equal(bundle.columns["psi"], bundle.x)

    def test_series_column_within_bound(self):
        bundle = export_curves(0.3, [30], 2001)
        gap = np.max(np.abs(bundle.columns["cheb30"] - bundle.columns["psi"]))
        assert gap <= approx_error_bound(0.3, 30) + 1e-12

    def test_exact_hessian_blanked_near_edges(self, tmp_path):
        out = tmp_path / "curves.csv"
        bundle = export_curves(0.3, [30], 2001, str(out))
        edge = np.abs(bundle.x) > 1 - 1e-3
        assert np.all(np.isnan(bundle.columns["psi_d2"][edge]))
        assert np.all(np.isfinite(bundle.columns["psi_d2"][~edge]))
        header, rows = read_csv(str(out))
        col = header.index("psi_d2")
        assert rows[0][col] == ""
        assert rows[1000][col] != ""

    def test_series_columns_finite_everywhere(self):
        bundle = export_curves(0.3, [2, 30], 2001)
        for name in ("cheb2", "cheb2_d1", "cheb2_d2", "cheb30", "cheb30_d1", "cheb30_d2"):
            assert np.all(np.isfinite(bundle.columns[name])), name

    def test_round_trip_exact(self, tmp_path):
        """repr-formatted cells parse back to bit-identical floats."""
        out = tmp_path / "curves.csv"
        bundle = export_curves(0.3, [2, 30], 101, str(out))
        header, rows = read_csv(str(out))
        for i, row in enumerate(rows):
            assert float(row[0]) == bundle.x[i]
            for j, name in enumerate(header[1:], start=1):
                cell = row[j]
                value = bundle.columns[name][i]
                if cell == "":
                    assert np.isnan(value)
                else:
                    assert float(cell) == value

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            export_curves(0.3, [2], 1)

    @pytest.mark.parametrize(
        "margin, degrees, message",
        [
            (0.3, [], "need at least one degree"),
            # Without a degree no coefficients() call would check the margin.
            (5.0, [], "need at least one degree"),
            (0.3, [30, 30], "duplicate degree 30 in curve export"),
            (0.3, [2, 30, 2], "duplicate degree 2 in curve export"),
        ],
    )
    def test_rejects_empty_or_repeated_degrees(self, tmp_path, margin, degrees, message):
        out = tmp_path / "curves.csv"
        with pytest.raises(ValueError, match=message):
            export_curves(margin, degrees, 11, str(out))
        assert list(tmp_path.iterdir()) == []


class TestExportSurfaces:
    def test_long_format_rows(self, tmp_path):
        out = tmp_path / "surf.csv"
        export_surfaces([LossSpec(LossKind.N_SOFTMAX, scale=1.0)], 3, str(out))
        header, rows = read_csv(str(out))
        assert header == ["loss", "s_p", "s_n", "dL_dsp"]
        assert len(rows) == 9
        assert all(row[0] == "nsoftmax" for row in rows)

    def test_diagonal_constant_for_unit_scale(self):
        bundle = export_surfaces([LossSpec(LossKind.N_SOFTMAX, scale=1.0)], 21)
        surface = bundle.surfaces["nsoftmax"]
        np.testing.assert_allclose(np.diag(surface), -0.5, atol=1e-12)

    def test_three_losses_finite_on_full_grid(self, tmp_path):
        specs = [
            LossSpec(LossKind.N_SOFTMAX, scale=32.0),
            LossSpec(LossKind.AAM_SOFTMAX, margin=0.3, scale=32.0),
            LossSpec(LossKind.CHEBY_AAM, margin=0.3, scale=32.0, degree=30),
        ]
        out = tmp_path / "surf.csv"
        bundle = export_surfaces(specs, 201, str(out))
        for label, surface in bundle.surfaces.items():
            assert np.all(np.isfinite(surface)), label
        assert {0.8, 0.2} <= set(np.round(bundle.axis, 12))

    def test_cheby_surface_respects_lipschitz_ceiling(self):
        spec = LossSpec(LossKind.CHEBY_AAM, margin=0.3, scale=32.0, degree=30)
        bundle = export_surfaces([spec], 201)
        ceiling = spec.scale * (1 + lipschitz_constant(coefficients(0.3, 30)))
        assert np.max(np.abs(bundle.surfaces["chebyaam"])) <= ceiling

    def test_round_trip_exact(self, tmp_path):
        out = tmp_path / "surf.csv"
        bundle = export_surfaces([LossSpec(LossKind.N_SOFTMAX, scale=4.0)], 5, str(out))
        _, rows = read_csv(str(out))
        surface = bundle.surfaces["nsoftmax"]
        for row in rows:
            i = int(np.where(bundle.axis == float(row[1]))[0][0])
            j = int(np.where(bundle.axis == float(row[2]))[0][0])
            assert float(row[3]) == surface[i, j]

    def test_rejects_empty_specs(self):
        with pytest.raises(ValueError):
            export_surfaces([], 11)

    def test_rejects_duplicate_kinds(self):
        with pytest.raises(ValueError):
            export_surfaces(
                [LossSpec(LossKind.N_SOFTMAX), LossSpec(LossKind.N_SOFTMAX, scale=1.0)], 11
            )


class TestDerivativeGap:
    def test_n_softmax_unit_scale_hand_value(self):
        """Ratio (1 - sigma(0)) / (1 - sigma(0.6)) of logistic values."""
        report = derivative_gap(LossSpec(LossKind.N_SOFTMAX, scale=1.0))
        sigma = lambda z: 1.0 / (1.0 + math.exp(-z))
        oracle = (1 - sigma(0.0)) / (1 - sigma(0.6))
        assert report.ratio == pytest.approx(oracle, rel=1e-9)
        assert report.ratio == pytest.approx(1.4110594, abs=1e-6)

    def test_gap_recorded_across_scales(self):
        """The comparison is scale sensitive; record the sweep and require
        the default-scale ordering at every swept value."""
        for scale in (1.0, 30.0, 32.0, 64.0):
            cheby = derivative_gap(
                LossSpec(LossKind.CHEBY_AAM, margin=0.3, scale=scale, degree=30)
            )
            aam = derivative_gap(LossSpec(LossKind.AAM_SOFTMAX, margin=0.3, scale=scale))
            print(
                f"scale={scale}: cheby ratio {cheby.ratio:.6g}, aam ratio {aam.ratio:.6g}"
            )
            assert 0 < aam.ratio < cheby.ratio < math.inf

    @pytest.mark.parametrize("kind", list(LossKind))
    @pytest.mark.parametrize("scale", [1.0, 4.0, 32.0, 64.0])
    def test_ratio_sees_only_the_transform_value(self, kind, scale):
        """A and B share the target cosine 0.8, so ``psi'(0.8)`` cancels and
        the ratio is ``(1 + e^{s(f-0.2)}) / (1 + e^{s(f-0.8)})``, with ``f``
        the transform's value at 0.8."""
        margin = 0.3
        chebval = np.polynomial.chebyshev.chebval
        for degree in (2, 10, 30, 60) if kind is LossKind.CHEBY_AAM else (30,):
            f = {
                LossKind.N_SOFTMAX: 0.8,
                LossKind.AM_SOFTMAX: 0.8 - margin,
                LossKind.AAM_SOFTMAX: math.cos(math.acos(0.8) + margin),
                LossKind.CHEBY_AAM: float(chebval(0.8, coefficients(margin, degree).coefficients)),
            }[kind]
            spec = LossSpec(kind, margin=margin, scale=scale, degree=degree)
            oracle = (1 + math.exp(scale * (f - 0.2))) / (1 + math.exp(scale * (f - 0.8)))
            assert derivative_gap(spec).ratio == pytest.approx(oracle, rel=1e-12), degree

    @pytest.mark.parametrize("kind", list(LossKind))
    def test_underflowed_easy_gradient_gives_infinite_ratio(self, kind):
        """At s = 3000 the gradient at B underflows to 0 while A's stays
        positive (A's non-target probability is at least 1/2), so the ratio
        is inf rather than a division by zero."""
        report = derivative_gap(LossSpec(kind, scale=3000.0))
        assert report.grad_b == 0.0 < report.grad_a
        assert report.ratio == math.inf

    def test_identical_points_give_unit_ratio(self):
        """Probing the same point for both roles degenerates to ratio 1."""
        for spec in (
            LossSpec(LossKind.N_SOFTMAX, scale=32.0),
            LossSpec(LossKind.CHEBY_AAM, margin=0.3, scale=32.0, degree=30),
        ):
            grad = derivative_gap(spec).grad_a
            report = GapReport(grad_a=grad, grad_b=grad, ratio=grad / grad)
            assert report.ratio == 1.0

    @pytest.mark.parametrize("kind", list(LossKind))
    @pytest.mark.parametrize("scale", [1.0, 4.0, 32.0, 64.0])
    def test_two_row_batch_matches_one_row_calls(self, kind, scale):
        """Scoring A and B as one 2-row batch gives the bits of two 1-row batches."""
        spec = LossSpec(kind, scale=scale)
        singles = [
            abs(float(loss_forward(spec, CosineBatch([point], [0])).grad_cosines[0, 0]))
            for point in (POINT_A, POINT_B)
        ]
        report = derivative_gap(spec)
        assert [report.grad_a, report.grad_b] == singles
        assert report.ratio == singles[0] / singles[1]
