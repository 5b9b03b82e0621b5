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


def script(name, *argv):
    """Run ``scripts/NAME`` as CI runs Tier-1, in development mode with
    every warning an error, in the test's cwd, where a relative
    ``PYTHONPATH=src`` still finds the package."""
    return subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", str(SCRIPTS / name), *argv],
        capture_output=True, text=True,
    )


def run_script(name, *argv):
    """``script``'s stdout, once it has exited 0 with nothing on stderr."""
    result = script(name, *argv)
    assert (result.returncode, result.stderr) == (0, "")
    return result.stdout


def test_export_figure_data(tmp_path):
    """The script writes the gap sweep, and nothing else, at ``--degree``."""
    out = run_script("export_figure_data.py", "--degree", "10", "--outdir", str(tmp_path))
    assert out == f"wrote {tmp_path / 'gap_sweep.csv'}\n"
    assert os.listdir(tmp_path) == ["gap_sweep.csv"]
    with open(tmp_path / "gap_sweep.csv", newline="", encoding="utf-8") as fh:
        rows = [(float(r["scale"]), r["loss"], float(r["ratio"])) for r in csv.DictReader(fh)]
    assert rows == [
        (scale, spec.kind.value, derivative_gap(spec).ratio)
        for scale in (1.0, 30.0, 32.0, 64.0)
        for spec in (
            LossSpec(LossKind.AAM_SOFTMAX, margin=0.3, scale=scale),
            LossSpec(LossKind.CHEBY_AAM, margin=0.3, scale=scale, degree=10),
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
            "stability_comparison.py", ["--margins", ","],
            "--margins needs at least one margin, got ','",
        ),
        ("export_figure_data.py", ["--degree", "0"], "series degree must be >= 1, got 0"),
        (
            "export_figure_data.py", ["--margin", "2"],
            "angular margin must be in [0, pi/2), got 2.0",
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
    result = script(name, *argv, "--outdir", str(outdir))
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
    result = script(name, "--outdir", outdir)
    assert (result.returncode, result.stdout) == (1, "")
    assert result.stderr == f"{name}: error: {message.format(outdir)}\n"
    assert os.listdir(tmp_path) == ["file"]
    assert (tmp_path / "file").read_bytes() == b"old\n"
