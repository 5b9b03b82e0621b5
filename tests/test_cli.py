"""Tests for the command-line interface."""

import functools
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import fake_cpus

from chebymargin import _forking, cli, landscape, verif_metrics
from chebymargin.cli import SEED_ENV, build_parser, main
from chebymargin.losses import (
    LARGE_GRAD,
    CosineBatch,
    LossKind,
    LossSpec,
    binary_derivative_surface,
    loss_forward,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def record_work(monkeypatch):
    """The list of calls to ``cli.train``, ``Children.start`` and the two
    landscape row formatters, each still made, on two CPUs."""
    fake_cpus(monkeypatch, 2)
    calls = []
    for owner, name in [
        (cli, "train"), (_forking.Children, "start"),
        (landscape, "_surface_rows"), (landscape, "_curve_rows"),
    ]:
        def record(*args, _real=getattr(owner, name), _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(owner, name, record)
    return calls


class TestCoeffs:
    def test_reference_coefficients(self, capsys):
        code, out, err = run_cli(capsys, "coeffs", "--margin", "0.2", "--degree", "4")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "k,a_k"
        values = [float(line.split(",")[1]) for line in lines[1:]]
        np.testing.assert_allclose(
            values, [-0.1265, 0.98007, 0.08433, 0.0, 0.01687], atol=5e-4
        )
        assert err.startswith("# config")

    def test_zero_margin(self, capsys):
        code, out, _ = run_cli(capsys, "coeffs", "--margin", "0", "--degree", "3")
        assert code == 0
        values = [float(line.split(",")[1]) for line in out.strip().splitlines()[1:]]
        assert values == [0.0, 1.0, 0.0, 0.0]

    def test_quadrature_margin(self, capsys):
        code, out, _ = run_cli(capsys, "coeffs", "--margin", "0.3", "--degree", "2")
        assert code == 0
        values = [float(line.split(",")[1]) for line in out.strip().splitlines()[1:]]
        np.testing.assert_allclose(values, [-0.18813, 0.95534, 0.12542], atol=5e-6)

    def test_invalid_margin_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "coeffs", "--margin", "-1", "--degree", "4")
        assert code == 1
        assert "error" in err


class TestEvalPsi:
    def test_reports_error_within_bound(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval-psi", "--margin", "0.3", "--degree", "30", "--x", "0.5"
        )
        assert code == 0
        values = dict(line.split("=", 1) for line in out.strip().splitlines())
        assert float(values["psi"]) == pytest.approx(0.22174, abs=1e-5)
        assert float(values["abs_error"]) <= float(values["error_bound"])


class TestGradcheck:
    def test_chebyaam_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "gradcheck", "--loss", "chebyaam", "--margin", "0.3", "--degree", "30"
        )
        assert code == 0
        assert "gradcheck PASS" in out

    def test_nsoftmax_passes(self, capsys):
        code, out, _ = run_cli(capsys, "gradcheck", "--loss", "nsoftmax", "--margin", "0")
        assert code == 0
        assert "gradcheck PASS" in out

    def test_impossible_tolerance_exits_two(self, capsys):
        code, out, _ = run_cli(capsys, "gradcheck", "--tol", "0")
        assert code == 2
        assert "gradcheck FAIL" in out

    @pytest.mark.parametrize("loss", [kind.value for kind in LossKind])
    def test_every_loss_passes_at_the_default_margin(self, capsys, loss):
        """The configuration line shows the margin used."""
        code, out, err = run_cli(capsys, "gradcheck", "--loss", loss)
        assert code == 0
        assert "gradcheck PASS" in out
        assert " margin=0.3 " in err

    def test_lists_the_cells_whose_gradient_is_large(self, capsys):
        """At scale 128 the AAM gradient passes ``LARGE_GRAD`` in some cells
        of the seeded batch, and ``large_grad_entries`` lists exactly those,
        row by row."""
        code, out, _ = run_cli(
            capsys, "gradcheck", "--loss", "aamsoftmax", "--scale", "128", "--seed", "0"
        )
        rng = np.random.default_rng(0)
        batch = CosineBatch(rng.uniform(-0.95, 0.95, (8, 16)), rng.integers(0, 16, 8))
        grad = loss_forward(LossSpec(LossKind.AAM_SOFTMAX, scale=128.0), batch).grad_cosines
        large = [(int(i), int(j)) for i, j in np.argwhere(np.abs(grad) > LARGE_GRAD)]
        assert len(large) == 15
        assert code == 0
        assert out.splitlines()[1:] == [
            f"max_abs_grad={float(np.abs(grad).max())!r}",
            f"large_grad_entries={large}",
            "gradcheck PASS",
        ]

    def test_step_too_small_exits_one(self, capsys):
        code, out, err = run_cli(capsys, "gradcheck", "--step", "1e-20")
        assert code == 1
        assert out == ""
        assert "error: step 1e-20 is too small to move the cosine " in err

    def test_infinite_step_exits_one(self, capsys):
        code, out, err = run_cli(capsys, "gradcheck", "--step", "inf")
        assert code == 1
        assert out == ""
        assert err.endswith("error: step must be finite, got inf\n")

    @pytest.mark.parametrize("step", ["2", "1e300"])
    def test_step_that_clips_every_pair_exits_one(self, capsys, step):
        code, out, err = run_cli(capsys, "gradcheck", "--step", step)
        assert code == 1
        assert out == ""
        assert err.endswith(f"error: step must be below 2, got {float(step)}\n")

    @pytest.mark.parametrize(
        "flags, message",
        [
            pytest.param(["--classes", "0"], "classes must be >= 2, got 0", id="classes-0"),
            pytest.param(["--classes", "-1"], "classes must be >= 2, got -1", id="classes--1"),
            pytest.param(["--classes", "1"], "classes must be >= 2, got 1", id="classes-1"),
            pytest.param(
                ["--batch-size", "-1"], "batch_size must be >= 1, got -1", id="batch-size--1"
            ),
            pytest.param(
                ["--batch-size", "0"], "batch_size must be >= 1, got 0", id="batch-size-0"
            ),
            pytest.param(["--seed", "-1"], "seed must be >= 0, got -1", id="seed--1"),
        ],
    )
    def test_batch_shape_below_its_floor_exits_one(self, capsys, flags, message):
        """The batch shape and seed are checked before the batch is drawn,
        with train's floors."""
        code, out, err = run_cli(capsys, "gradcheck", *flags)
        assert code == 1
        assert out == ""
        assert err.endswith(f"error: {message}\n")

    @pytest.mark.parametrize("tol", ["nan", "-1"])
    def test_tolerance_nothing_can_meet_exits_one(self, capsys, tol):
        """A NaN or negative tolerance is a usage error, not a check
        failure; ``--tol 0`` stays a valid, if strict, check."""
        code, out, err = run_cli(capsys, "gradcheck", "--tol", tol)
        assert code == 1
        assert out == ""
        assert err.endswith(f"error: tol must be non-negative, got {float(tol)!r}\n")


class TestLipschitz:
    def test_degree_30_value(self, capsys):
        code, out, _ = run_cli(capsys, "lipschitz", "--margin", "0.3", "--degree", "30")
        assert code == 0
        assert out == "6.781421857737604\n"

    def test_grid_flag_is_rejected(self, capsys):
        code, out, err = run_cli(capsys, "lipschitz", "--grid", "101")
        assert code == 1
        assert "unrecognized arguments: --grid 101" in err
        assert out == ""

    def test_grid_config_key_is_rejected(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("grid=101\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "lipschitz", "--config", str(config))
        assert code == 1
        assert "unknown config key 'grid'" in err
        assert out == ""


class TestScore:
    def write_files(self, tmp_path, trials, scores):
        t = tmp_path / "trials.txt"
        s = tmp_path / "scores.txt"
        t.write_text(trials, encoding="utf-8")
        s.write_text(scores, encoding="utf-8")
        return str(t), str(s)

    @pytest.mark.parametrize(
        "trials, scores, printed",
        [
            pytest.param(
                "1 a x\n1 a y\n0 b x\n0 b y\n",
                "a x 0.9\na y 0.8\nb x 0.2\nb y 0.1\n",
                "EER% 0.0000\nminDCF 0.0000\n",
                id="perfect-separation",
            ),
            # CRLF endings, a blank line, score lines in another order and a
            # target/non-target tie. Joined in file order instead, the same
            # files give EER% 75.0000.
            pytest.param(
                "1 a x\r\n0 a y\r\n\r\n1 b z\r\n0 b w\r\n",
                "b w 0.1\r\na x 0.9\r\nb z 0.5\r\na y 0.5\r\n",
                "EER% 25.0000\nminDCF 0.5000\n",
                id="joined-on-the-id-pair",
            ),
            # Scores one ulp apart, then scores too large for ``v + 1.0``
            # to differ from ``v``: every distinct score is still a cut.
            pytest.param(
                "1 a x\n0 a y\n",
                "a x 0.10000000000000002\na y 0.1\n",
                "EER% 0.0000\nminDCF 0.0000\n",
                id="one-ulp-apart",
            ),
            pytest.param(
                "1 a x\n0 a y\n0 a z\n",
                "a x 2e16\na y 2e16\na z 1e16\n",
                "EER% 33.3333\nminDCF 1.0000\n",
                id="beyond-2**54",
            ),
        ],
    )
    def test_prints_eer_and_min_dcf(self, capsys, tmp_path, trials, scores, printed):
        t, s = self.write_files(tmp_path, trials, scores)
        code, out, _ = run_cli(capsys, "score", "--trials", t, "--scores", s)
        assert code == 0
        assert out == printed

    def test_one_sweep_gives_both_metrics(self, capsys, tmp_path, monkeypatch):
        """``score`` sorts the scores into operating points once and prints
        what ``compute_eer`` and ``compute_min_dcf`` return."""
        t, s = self.write_files(
            tmp_path, "1 a x\n0 a y\n1 b z\n0 b w\n", "a x 0.9\na y 0.5\nb z 0.4\nb w 0.1\n"
        )
        trials = verif_metrics.parse_trials(t, s)
        params = verif_metrics.DcfParams(0.2)
        eer = verif_metrics.compute_eer(trials)
        min_dcf = verif_metrics.compute_min_dcf(trials, params)
        sweeps = []
        sweep = verif_metrics.Trials._operating_points.func
        counted = functools.cached_property(lambda trials: sweeps.append(1) or sweep(trials))
        counted.__set_name__(verif_metrics.Trials, "_operating_points")
        monkeypatch.setattr(verif_metrics.Trials, "_operating_points", counted)
        code, out, _ = run_cli(
            capsys, "score", "--trials", t, "--scores", s, "--p-target", "0.2"
        )
        assert (code, out) == (0, f"EER% {eer * 100.0:.4f}\nminDCF {min_dcf:.4f}\n")
        assert len(sweeps) == 1

    def test_prints_what_the_public_metrics_return(self, capsys, tmp_path, monkeypatch):
        """``score`` calls ``compute_eer`` and ``compute_min_dcf`` through the
        module, once each per run, so wrappers put there see both calls and
        what they return is what it prints."""
        t, s = self.write_files(
            tmp_path, "1 a x\n0 a y\n1 b z\n0 b w\n", "a x 0.9\na y 0.5\nb z 0.4\nb w 0.1\n"
        )

        def counting(original, values):
            def wrapper(*args):
                values.append(original(*args))
                return values[-1]

            return wrapper

        returned = {"compute_eer": [], "compute_min_dcf": []}
        for name, values in returned.items():
            original = getattr(verif_metrics, name)
            monkeypatch.setattr(verif_metrics, name, counting(original, values))
        code, out, _ = run_cli(
            capsys, "score", "--trials", t, "--scores", s, "--p-target", "0.2"
        )
        assert [len(values) for values in returned.values()] == [1, 1]
        [eer], [min_dcf] = returned.values()
        assert (code, out) == (0, f"EER% {eer * 100.0:.4f}\nminDCF {min_dcf:.4f}\n")

    def test_missing_score_exits_one(self, capsys, tmp_path):
        t, s = self.write_files(tmp_path, "1 a x\n0 a y\n", "a x 0.9\n")
        code, _, err = run_cli(capsys, "score", "--trials", t, "--scores", s)
        assert code == 1
        assert "(a, y)" in err

    def test_p_target_is_checked_before_the_files(self, capsys, tmp_path):
        missing = str(tmp_path / "missing.txt")
        code, out, err = run_cli(
            capsys, "score", "--trials", missing, "--scores", missing, "--p-target", "0"
        )
        assert code == 1
        assert out == ""
        assert err.endswith("error: p_target must be in (0, 1), got 0.0\n")


class TestLandscapeCommand:
    def test_curves_file_written(self, capsys, tmp_path):
        out_path = tmp_path / "curves.csv"
        code, out, _ = run_cli(
            capsys,
            "landscape", "--kind", "curves", "--margin", "0.3",
            "--degrees", "2,30", "--grid", "101", "--out", str(out_path),
        )
        assert code == 0
        header = out_path.read_text().splitlines()[0]
        assert header.startswith("x,psi,psi_d1,psi_d2,cheb2")

    def test_surfaces_file_written(self, capsys, tmp_path):
        out_path = tmp_path / "surf.csv"
        code, _, _ = run_cli(
            capsys,
            "landscape", "--kind", "surfaces", "--grid", "11", "--out", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "loss,s_p,s_n,dL_dsp"
        assert len(lines) == 1 + 3 * 11 * 11

    @pytest.mark.parametrize("losses", ["nsoftmax,amsoftmax,chebyaam", "aamsoftmax"])
    def test_surfaces_run_every_loss_at_the_default_margin(self, capsys, tmp_path, losses):
        """Without --margin every listed loss runs at 0.3, and the config
        line shows that one margin."""
        out_path = tmp_path / "surf.csv"
        code, _, err = run_cli(
            capsys, "landscape", "--kind", "surfaces", "--grid", "11",
            "--losses", losses, "--out", str(out_path),
        )
        assert code == 0
        assert " margin=0.3 " in err
        rows = [line.split(",") for line in out_path.read_text().splitlines()[1:]]
        assert len(rows) == len(losses.split(",")) * 11 * 11
        for loss in losses.split(","):
            _, expected = binary_derivative_surface(LossSpec(LossKind(loss), margin=0.3), 11)
            assert [float(row[3]) for row in rows if row[0] == loss] == expected.ravel().tolist()

    @pytest.mark.parametrize(
        "spaced, plain",
        [
            pytest.param(["--degrees", "2, 30"], ["--degrees", "2,30"], id="degrees"),
            pytest.param(["--degrees", " 2 ,\t30 , "], ["--degrees", "2,30"], id="degrees-tab"),
            pytest.param(["--degrees", "2, "], ["--degrees", "2"], id="degrees-blank-entry"),
            pytest.param(
                ["--kind", "surfaces", "--losses", "nsoftmax, chebyaam"],
                ["--kind", "surfaces", "--losses", "nsoftmax,chebyaam"],
                id="losses",
            ),
        ],
    )
    def test_list_entries_are_stripped(self, capsys, tmp_path, spaced, plain):
        """Spaces around a list entry are dropped and an entry left empty is
        skipped, for every flag: the spaced list writes the plain one's bytes."""
        written = []
        for argv in (spaced, plain):
            out_path = tmp_path / f"{len(written)}.csv"
            code, _, _ = run_cli(
                capsys, "landscape", "--kind", "curves", "--grid", "11", *argv,
                "--out", str(out_path),
            )
            assert code == 0
            written.append(out_path.read_bytes())
        assert written[0] == written[1]

    def test_given_margin_serves_every_loss(self, capsys, tmp_path):
        """A margin that one listed loss refuses stops the whole export."""
        code, out, err = run_cli(
            capsys, "landscape", "--kind", "surfaces", "--grid", "5",
            "--losses", "nsoftmax,chebyaam", "--margin", "2",
            "--out", str(tmp_path / "surf.csv"),
        )
        assert code == 1
        assert "angular margin must be in [0, pi/2), got 2.0" in err
        assert " margin=2.0 " in err
        assert out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("kind, grid", [("curves", "4001"), ("surfaces", "101")])
    @pytest.mark.parametrize(
        "out, message",
        [
            pytest.param("d", "[Errno 21] Is a directory: '{}'", id="out-dir"),
            pytest.param(
                "missing/x.csv", "[Errno 2] No such file or directory: '{}'", id="no-parent"
            ),
            pytest.param("", "[Errno 2] No such file or directory: ''", id="empty"),
        ],
    )
    def test_unwritable_output_is_refused_before_any_fork(
        self, capsys, tmp_path, monkeypatch, kind, grid, out, message
    ):
        """An --out the write would refuse fails as the write would, before
        a child is forked or a row formatted, on a grid big enough to fork;
        ``""`` makes no file next to the working directory."""
        (tmp_path / "d").mkdir()
        monkeypatch.chdir(tmp_path / "d")
        calls = record_work(monkeypatch)
        out_path = str(tmp_path / out) if out else ""
        code, stdout, err = run_cli(
            capsys, "landscape", "--kind", kind, "--grid", grid, "--out", out_path
        )
        assert (code, stdout, calls) == (1, "", [])
        assert err.endswith(f"chebymargin landscape: error: {message.format(out_path)}\n")
        assert (os.listdir(tmp_path), os.listdir(tmp_path / "d")) == (["d"], [])

    def test_missing_directory_error_names_the_out_path(self, capsys, tmp_path):
        out_path = tmp_path / "missing" / "c.csv"
        code, _, err = run_cli(capsys, "landscape", "--kind", "curves", "--out", str(out_path))
        assert code == 1
        assert f"No such file or directory: '{out_path}'" in err
        assert ".c.csv." not in err


class TestTrainCommand:
    def test_writes_telemetry_and_summary(self, capsys, tmp_path):
        out_path = tmp_path / "telemetry.csv"
        code, out, _ = run_cli(
            capsys,
            "train", "--loss", "chebyaam", "--epochs", "2", "--classes", "4",
            "--dim", "8", "--samples-per-class", "20", "--seed", "7",
            "--out", str(out_path),
        )
        assert code == 0
        assert out_path.exists()
        summary = (tmp_path / "telemetry.csv.summary").read_text().splitlines()
        assert "nan_seen=false" in summary
        # stdout is the summary file's lines, in its order, then the paths.
        assert out.splitlines() == [*summary, f"wrote {out_path} and {out_path}.summary"]

    @pytest.mark.parametrize(
        "out, dirs, message",
        [
            pytest.param("d", ["d"], "[Errno 21] Is a directory: '{}'", id="out-dir"),
            pytest.param(
                "missing/x.csv", [], "[Errno 2] No such file or directory: '{}'", id="no-parent"
            ),
            pytest.param(
                "t.csv", ["t.csv.summary"], "[Errno 21] Is a directory: '{}.summary'",
                id="summary-dir",
            ),
        ],
    )
    def test_unwritable_output_is_refused_before_training(
        self, capsys, tmp_path, monkeypatch, out, dirs, message
    ):
        """Each output path fails as its write would, before any training
        or file: a directory at the summary path leaves no CSV behind."""
        for name in dirs:
            (tmp_path / name).mkdir()
        trained = []
        monkeypatch.setattr(cli, "train", trained.append)
        out_path = str(tmp_path / out)
        code, stdout, err = run_cli(capsys, "train", "--out", out_path)
        assert (code, stdout, trained) == (1, "", [])
        assert err.endswith(f"chebymargin train: error: {message.format(out_path)}\n")
        assert sorted(os.listdir(tmp_path)) == dirs
        assert all(os.listdir(tmp_path / name) == [] for name in dirs)

    def test_empty_out_is_refused_before_training(self, capsys, tmp_path, monkeypatch):
        """``--out ''`` fails as its write would, before any training, and
        makes no file in or next to the working directory."""
        (tmp_path / "cwd").mkdir()
        monkeypatch.chdir(tmp_path / "cwd")
        calls = record_work(monkeypatch)
        code, stdout, err = run_cli(capsys, "train", "--out", "")
        assert (code, stdout, calls) == (1, "", [])
        assert err.endswith("chebymargin train: error: [Errno 2] No such file or directory: ''\n")
        assert (os.listdir(tmp_path), os.listdir(tmp_path / "cwd")) == (["cwd"], [])

    def test_removed_loss_kind_is_refused(self, capsys, tmp_path):
        out_path = tmp_path / "t.csv"
        code, out, err = run_cli(capsys, "train", "--loss", "asoftmax", "--out", str(out_path))
        assert (code, out) == (1, "")
        assert "argument --loss: invalid choice: 'asoftmax'" in err
        assert not out_path.exists()


class TestRejectedSettings:
    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--scale", "nan"),
            ("--scale", "inf"),
            ("--peak-lr", "nan"),
            ("--spread", "nan"),
            ("--batch-size", "0"),
            ("--seed", "-1"),
        ],
    )
    def test_train_rejects_non_finite_setting(self, capsys, tmp_path, flag, value):
        out_path = tmp_path / "t.csv"
        code, out, err = run_cli(
            capsys, "train", "--epochs", "1", flag, value, "--out", str(out_path)
        )
        assert code == 1
        assert f"got {value}" in err
        assert out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("key, value", [("summary_out", "s.txt"), ("warmup_fraction", "0.2")])
    def test_removed_train_setting_is_refused(self, capsys, tmp_path, key, value):
        """Neither a flag nor a config key: the summary is always OUT.summary
        and the warmup spans a fixed tenth of the steps."""
        out_path = tmp_path / "t.csv"
        flag = "--" + key.replace("_", "-")
        code, out, err = run_cli(capsys, "train", flag, value, "--out", str(out_path))
        assert code == 1
        assert f"error: unrecognized arguments: {flag} {value}\n" in err
        assert out == ""
        config = tmp_path / "run.cfg"
        config.write_text(f"{key}={value}\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "train", "--config", str(config), "--out", str(out_path))
        assert code == 1
        assert err.endswith(f"run.cfg:1: unknown config key {key!r}\n")
        assert out == ""
        assert list(tmp_path.iterdir()) == [config]

    # At 1e308 the points overflow; at 1e200 only the squares of their norms.
    @pytest.mark.parametrize("spread, shown", [("1e308", "1e+308"), ("1e200", "1e+200")])
    def test_train_rejects_a_spread_that_overflows_the_points(
        self, capsys, tmp_path, spread, shown
    ):
        code, out, err = run_cli(
            capsys, "train", "--epochs", "1", "--spread", spread, "--out", str(tmp_path / "t.csv")
        )
        assert code == 1
        assert err.endswith(f"chebymargin train: error: spread {shown} overflows the cluster points\n")
        assert out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["--degrees", "30,30"], "duplicate degree 30 in curve export"),
            (["--degrees", "", "--margin", "5"], "--degrees needs at least one degree, got ''"),
            (["--degrees", "2,x"], "--degrees: bad degree 'x'"),
            (["--kind", "surfaces", "--losses", "chebyaam,foo"], "--losses: bad loss kind 'foo'"),
            (
                ["--kind", "surfaces", "--losses", ",", "--margin", "0.3"],
                "--losses needs at least one loss kind, got ','",
            ),
            (["--kind", "surfaces", "--losses", "asoftmax"], "--losses: bad loss kind 'asoftmax'"),
            (["--losses", "bogus"], "--losses: bad loss kind 'bogus'"),
            (["--kind", "surfaces", "--degrees", "2,x"], "--degrees: bad degree 'x'"),
            (["--grid", "1"], "need at least 2 grid points, got 1"),
            (["--kind", "surfaces", "--grid", "1"], "need at least 2 grid points, got 1"),
            (["--degrees", ","], "--degrees needs at least one degree, got ','"),
            (["--degrees", "2,0"], "degree must be >= 1, got 0"),
            # A flag that only the other kind reads is checked all the same.
            (
                ["--grid", "11", "--scale", "-1", "--degree", "0"],
                "scale must be positive and finite, got -1.0",
            ),
            (["--grid", "11", "--degree", "0"], "series degree must be >= 1, got 0"),
            (["--losses", "chebyaam,chebyaam"], "duplicate loss kind chebyaam in surface export"),
            (
                ["--kind", "surfaces", "--grid", "11", "--degrees", "30,30,0"],
                "duplicate degree 30 in curve export",
            ),
            (
                ["--kind", "surfaces", "--grid", "11", "--degrees", "2,0"],
                "degree must be >= 1, got 0",
            ),
            # The surface specs are built first, so they name a bad margin.
            (["--margin", "2"], "angular margin must be in [0, pi/2), got 2.0"),
        ],
    )
    def test_landscape_rejects_a_bad_list(self, capsys, tmp_path, argv, named):
        """An error names the flag or the bad entry, whatever --kind runs:
        the flags that only the other kind reads are checked too."""
        out_path = tmp_path / "landscape.csv"
        code, out, err = run_cli(
            capsys, "landscape", "--kind", "curves", *argv, "--out", str(out_path)
        )
        assert code == 1
        assert err.endswith(f"chebymargin landscape: error: {named}\n")
        assert out == ""
        assert list(tmp_path.iterdir()) == []


class TestCliContract:
    @pytest.mark.parametrize(
        "sub", ["coeffs", "eval-psi", "gradcheck", "lipschitz", "landscape", "train", "score"]
    )
    def test_help_exists_and_lists_defaults(self, capsys, sub):
        code, out, _ = run_cli(capsys, sub, "--help")
        assert code == 0
        assert "--config" in out
        if sub not in ("score", "landscape", "train"):
            assert "default" in out

    @pytest.mark.parametrize(
        "sub", ["coeffs", "eval-psi", "gradcheck", "lipschitz", "landscape", "train"]
    )
    def test_every_margin_flag_defaults_to_the_spec_margin(self, sub):
        """One owner for the margin default: each --margin reads LossSpec's."""
        parser, _ = build_parser()
        args = parser.parse_args([sub, "--out", "OUT"] if sub in ("landscape", "train") else [sub])
        assert args.margin == LossSpec.margin == 0.3

    def test_unknown_flag_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "coeffs", "--bogus", "1")
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize(
        "argv, named",
        [
            # A prefix of --config would skip the config file and run on defaults.
            (["coeffs", "--conf", "CFG"], "--conf CFG"),
            # A prefix of landscape's --losses, likely meant as train's --loss.
            (["landscape", "--loss", "chebyaam", "--kind", "surfaces", "--out", "OUT"], "--loss"),
        ],
    )
    def test_abbreviated_flag_is_rejected(self, capsys, tmp_path, argv, named):
        """Long options must be spelled out; a prefix is an unknown flag."""
        config = tmp_path / "run.cfg"
        config.write_text("degree=4\n", encoding="utf-8")
        out = tmp_path / "land.csv"
        paths = {"CFG": str(config), "OUT": str(out)}
        code, stdout, err = run_cli(capsys, *[paths.get(token, token) for token in argv])
        assert code == 1
        assert f"unrecognized arguments: {named.replace('CFG', str(config))}" in err
        assert stdout == ""
        assert not out.exists()

    def test_unknown_subcommand_exits_one(self, capsys):
        code, _, _ = run_cli(capsys, "not-a-command")
        assert code == 1

    def test_config_file_defaults_and_flag_precedence(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("margin=0.2\ndegree=4  # low-degree run\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "coeffs", "--config", str(config))
        assert code == 0
        values = [float(line.split(",")[1]) for line in out.strip().splitlines()[1:]]
        assert len(values) == 5
        assert values[1] == pytest.approx(math.cos(0.2), abs=1e-12)

        code, out, _ = run_cli(
            capsys, "coeffs", "--config", str(config), "--margin", "0.3"
        )
        assert code == 0
        values = [float(line.split(",")[1]) for line in out.strip().splitlines()[1:]]
        assert values[1] == pytest.approx(math.cos(0.3), abs=1e-12)

        code, out, _ = run_cli(capsys, "coeffs", f"--config={config}")
        assert code == 0
        values = [float(line.split(",")[1]) for line in out.strip().splitlines()[1:]]
        assert len(values) == 5
        assert values[1] == pytest.approx(math.cos(0.2), abs=1e-12)

    def test_repeated_config_is_refused(self, capsys, tmp_path):
        """Only the last file would be read, silently dropping the keys of the others."""
        first, second = tmp_path / "a.cfg", tmp_path / "b.cfg"
        first.write_text("degree=4\n", encoding="utf-8")
        second.write_text("margin=0.3\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "lipschitz", "--config", str(first), f"--config={second}")
        assert code == 1
        assert err.endswith(
            f"chebymargin lipschitz: error: argument --config: given more than once: "
            f"{first}, {second}\n"
        )
        assert out == ""

    def test_default_train_config_line(self, capsys, monkeypatch, tmp_path):
        """Every ``train`` default, as the resolved configuration shows it."""
        monkeypatch.delenv(SEED_ENV, raising=False)
        out_path = tmp_path / "t.csv"
        code, _, err = run_cli(capsys, "train", "--out", str(out_path))
        assert code == 0
        assert err == (
            "# config batch_size=64 classes=16 degree=30 dim=32 epochs=30 loss=chebyaam "
            f"margin=0.3 out={out_path} peak_lr=0.2 samples_per_class=200 scale=32.0 "
            "seed=0 spread=0.005 subcommand=train\n"
        )

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("nonsense=1\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "coeffs", "--config", str(config))
        assert code == 1
        assert "nonsense" in err

    @pytest.mark.parametrize(
        "sub, text, named",
        [
            ("landscape", "kind=curvs\n", "'curvs'"),
            ("coeffs", "degree=3.5\n", "'3.5'"),
            ("coeffs", "# run\nmargin 0.2\n", "run.cfg:2: expected key=value, got 'margin 0.2'"),
            ("coeffs", None, "run.cfg"),
            # Written with surrogateescape, \udcff is the byte 0xff.
            ("lipschitz", "degree=4\nmargin=0.\udcff\n", "cfg:2: cannot decode byte 0xff as UTF-8"),
            # argparse would expand the prefix --loss to --losses.
            ("landscape", "loss=nsoftmax\n", "unknown config key 'loss'"),
            # A nested config file would be stored and never read.
            ("lipschitz", "config=other.cfg\ndegree=4\n", "cfg:1: unknown config key 'config'"),
        ],
    )
    def test_bad_config_is_a_usage_error(self, capsys, tmp_path, sub, text, named):
        """Config values pass the same checks as flags; every failure exits 1
        with an argparse error naming the bad value, and writes nothing."""
        config = tmp_path / "run.cfg"
        out = tmp_path / "land.csv"
        if text is not None:
            config.write_text(text, encoding="utf-8", errors="surrogateescape")
        out_flag = ["--out", str(out)] if sub == "landscape" else []
        code, stdout, err = run_cli(capsys, sub, "--config", str(config), *out_flag)
        assert code == 1
        assert f"chebymargin {sub}: error:" in err
        assert named in err
        assert stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, seed, code, out, err_part",
        [
            # A bad env seed fails only the subcommands that take --seed.
            ("lipschitz --margin 0.3 --degree 30", "abc", 0, "6.781421857737604\n", ""),
            ("gradcheck", "abc", 1, "", "argument --seed: invalid int value: 'abc'\n"),
            ("gradcheck --seed 3", "abc", 0, "...gradcheck PASS\n", " seed=3 "),
            ("gradcheck", "-1", 1, "", "gradcheck: error: seed must be >= 0, got -1\n"),
            ("gradcheck --loss nsoftmax", "123", 0, "...gradcheck PASS\n", " seed=123 "),
            ("gradcheck --tol 0", None, 2, "...gradcheck FAIL (tol 0.0)\n", ""),
            ("gradcheck --loss asoftmax", None, 1, "",
             "argument --loss: invalid choice: 'asoftmax'"),
            ("score --trials T --scores S", None, 1, "",
             "/t.txt:2: cannot decode byte 0xff as UTF-8\n"),
        ],
        ids=["bad-env-seed-ignored", "bad-env-seed-refused", "seed-flag-wins",
             "negative-env-seed-refused", "env-seed-default",
             "check-failure-exits-two", "removed-loss-refused", "non-utf8-trial-file"],
    )
    def test_module_run_in_a_fresh_process(self, tmp_path, argv, seed, code, out, err_part):
        """``python -m chebymargin.cli``: the exit status goes through
        ``sys.exit(main())``, the env seed is read at start-up, and no error
        prints a traceback. ``out`` is the whole stdout, or its tail after
        ``...``. The cwd is kept, since PYTHONPATH may be relative."""
        (tmp_path / "t.txt").write_bytes(b"1 a x\n0 a \xff\n")
        (tmp_path / "s.txt").write_bytes(b"a x 0.9\na y 0.5\n")
        paths = {"T": str(tmp_path / "t.txt"), "S": str(tmp_path / "s.txt")}
        env = {key: value for key, value in os.environ.items() if key != SEED_ENV}
        if seed is not None:
            env[SEED_ENV] = seed
        result = subprocess.run(
            [sys.executable, "-m", "chebymargin.cli", *[paths.get(a, a) for a in argv.split()]],
            capture_output=True, text=True, env=env,
        )
        assert result.returncode == code
        if out.startswith("..."):
            assert result.stdout.endswith(out[3:])
        else:
            assert result.stdout == out
        assert err_part in result.stderr
        assert "Traceback" not in result.stderr

    def test_resolved_configuration_printed(self, capsys):
        _, _, err = run_cli(capsys, "lipschitz", "--degree", "4")
        assert "# config" in err
        assert "degree=4" in err
        assert "margin=0.3" in err


class TestDeterminism:
    def test_train_runs_byte_identical(self, capsys, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            code, _, _ = run_cli(
                capsys,
                "train", "--loss", "chebyaam", "--epochs", "2", "--classes", "4",
                "--dim", "8", "--samples-per-class", "20", "--seed", "7",
                "--out", str(path),
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_landscape_runs_byte_identical(self, capsys, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            code, _, _ = run_cli(
                capsys,
                "landscape", "--kind", "curves", "--grid", "201", "--out", str(path),
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()
