"""The figure-data and stability scripts, each run as a fresh process at a
small size and checked by what it writes."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

from chebymargin.landscape import derivative_gap
from chebymargin.losses import LossKind, LossSpec

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *argv):
    """Run ``scripts/NAME`` in the test's cwd, where a relative
    ``PYTHONPATH=src`` still finds the package; return its stdout."""
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *argv], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    assert "Traceback" not in result.stderr
    return result.stdout


def test_export_figure_data(tmp_path):
    """An empty entry in ``--degrees`` is skipped, as the CLI skips it."""
    run_script(
        "export_figure_data.py", "--degrees", "2,,30", "--grid", "101", "--surface-grid", "11",
        "--outdir", str(tmp_path),
    )
    with open(tmp_path / "curves_m0.3.csv", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
    assert header[4:] == [f"cheb{d}{suffix}" for d in (2, 30) for suffix in ("", "_d1", "_d2")]
    assert (tmp_path / "surfaces_m0.3.csv").stat().st_size > 0
    with open(tmp_path / "gap_sweep.csv", newline="", encoding="utf-8") as fh:
        rows = [(float(r["scale"]), r["loss"], float(r["ratio"])) for r in csv.DictReader(fh)]
    assert rows == [
        (scale, spec.kind.value, derivative_gap(spec).ratio)
        for scale in (1.0, 30.0, 32.0, 64.0)
        for spec in (
            LossSpec(LossKind.AAM_SOFTMAX, margin=0.3, scale=scale),
            LossSpec(LossKind.CHEBY_AAM, margin=0.3, scale=scale, degree=30),
        )
    ]


def test_stability_comparison(tmp_path):
    """An empty entry in ``--margins`` is skipped, as the CLI skips it."""
    out = run_script(
        "stability_comparison.py", "--epochs", "1", "--margins", "0.3,,0.5",
        "--outdir", str(tmp_path),
    )
    header, *rows = out.splitlines()
    assert header.split() == ["margin", "loss", "accuracy", "grad_max", "nan"]
    angular = ("amsoftmax", "aamsoftmax", "chebyaam")
    # N-Softmax has no margin: it is trained, and its row printed, once.
    assert [row.split()[:2] for row in rows] == [["0", "nsoftmax"]] + [
        [margin, kind] for margin in ("0.3", "0.5") for kind in angular
    ]
    tags = ["nsoftmax_m0"] + [f"{k}_m{m}" for m in (0.3, 0.5) for k in angular]
    names = [f"telemetry_{tag}.{ext}" for tag in tags for ext in ("csv", "summary")]
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(names)
    for name in names:
        assert (tmp_path / name).stat().st_size > 0, name


@pytest.mark.parametrize(
    "name, argv, message",
    [
        (
            "export_figure_data.py", ["--degrees", ","],
            "--degrees needs at least one degree, got ','",
        ),
        (
            "stability_comparison.py", ["--margins", ","],
            "--margins needs at least one margin, got ','",
        ),
        ("export_figure_data.py", ["--degrees", "2,x"], "--degrees: bad degree 'x'"),
        (
            "export_figure_data.py", ["--degrees", "2,30,2"],
            "duplicate degree 2 in curve export",
        ),
        ("export_figure_data.py", ["--degrees", "2,0"], "series degree must be >= 1, got 0"),
        (
            "export_figure_data.py", ["--margin", "2"],
            "angular margin must be in [0, pi/2), got 2.0",
        ),
        (
            "export_figure_data.py", ["--grid", "1"],
            "--grid needs at least 2 grid points, got 1",
        ),
        (
            "export_figure_data.py", ["--surface-grid", "1"],
            "--surface-grid needs at least 2 grid points, got 1",
        ),
        (
            "stability_comparison.py", ["--degree", "0", "--epochs", "1"],
            "series degree must be >= 1, got 0",
        ),
        (
            "stability_comparison.py", ["--margins", "2"],
            "AM-Softmax margin must be below 2, got 2.0",
        ),
        ("stability_comparison.py", ["--margins", "x"], "--margins: bad margin 'x'"),
        ("stability_comparison.py", ["--epochs", "-1"], "epochs must be >= 0, got -1"),
        (
            "stability_comparison.py", ["--margins", "0.3,0.30000001"],
            "margins 0.3 and 0.30000001 share the file tag amsoftmax_m0.3",
        ),
    ],
)
def test_bad_input_is_refused_before_any_write(tmp_path, name, argv, message):
    outdir = tmp_path / "out"
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *argv, "--outdir", str(outdir)],
        capture_output=True, text=True,
    )
    assert (result.returncode, result.stdout) == (1, "")
    assert result.stderr == f"{name}: error: {message}\n"
    assert not outdir.exists()


@pytest.mark.parametrize(
    "name, outdir, message",
    [
        pytest.param(
            "stability_comparison.py", "file", "[Errno 17] File exists: '{}'", id="stability"
        ),
        pytest.param(
            "export_figure_data.py", "file/out", "[Errno 20] Not a directory: '{}'", id="figures"
        ),
    ],
)
def test_unusable_outdir_is_refused_in_one_line(tmp_path, name, outdir, message):
    """An ``--outdir`` that is a file, or lies under one, is refused like a
    bad value, and the file is left as it was."""
    (tmp_path / "file").write_bytes(b"old\n")
    outdir = str(tmp_path / outdir)
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / name), "--outdir", outdir], capture_output=True, text=True
    )
    assert (result.returncode, result.stdout) == (1, "")
    assert result.stderr == f"{name}: error: {message.format(outdir)}\n"
    assert os.listdir(tmp_path) == ["file"]
    assert (tmp_path / "file").read_bytes() == b"old\n"
