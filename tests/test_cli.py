"""Tests for the command-line interface."""

import math
import subprocess
import sys

import numpy as np
import pytest

from chebymargin.cli import main
from chebymargin.losses import LossKind, LossSpec, binary_derivative_surface


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    @pytest.mark.parametrize(
        "loss, margin",
        [
            ("nsoftmax", "0.3"),
            ("asoftmax", "2.0"),
            ("amsoftmax", "0.3"),
            ("aamsoftmax", "0.3"),
            ("chebyaam", "0.3"),
        ],
    )
    def test_every_loss_passes_at_its_default_margin(self, capsys, loss, margin):
        """A-Softmax's margin is an integer multiplier, so its default is 2;
        the configuration line shows the margin used."""
        code, out, err = run_cli(capsys, "gradcheck", "--loss", loss)
        assert code == 0
        assert "gradcheck PASS" in out
        assert f" margin={margin} " in err

    def test_fractional_asoftmax_margin_still_rejected(self, capsys):
        code, out, err = run_cli(capsys, "gradcheck", "--loss", "asoftmax", "--margin", "0.3")
        assert code == 1
        assert out == ""
        assert "A-Softmax margin must be a positive integer, got 0.3" in err

    def test_step_too_small_exits_one(self, capsys):
        code, out, err = run_cli(capsys, "gradcheck", "--step", "1e-20")
        assert code == 1
        assert out == ""
        assert "error: step 1e-20 is too small to move the cosine " in err


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

    def test_perfect_separation(self, capsys, tmp_path):
        t, s = self.write_files(
            tmp_path,
            "1 a x\n1 a y\n0 b x\n0 b y\n",
            "a x 0.9\na y 0.8\nb x 0.2\nb y 0.1\n",
        )
        code, out, _ = run_cli(capsys, "score", "--trials", t, "--scores", s)
        assert code == 0
        assert "EER% 0.0000" in out
        assert "minDCF 0.0000" in out

    def test_missing_score_exits_one(self, capsys, tmp_path):
        t, s = self.write_files(tmp_path, "1 a x\n0 a y\n", "a x 0.9\n")
        code, _, err = run_cli(capsys, "score", "--trials", t, "--scores", s)
        assert code == 1
        assert "(a, y)" in err


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

    @pytest.mark.parametrize(
        "losses, shown", [("nsoftmax,asoftmax,chebyaam", "0.3,2.0,0.3"), ("asoftmax", "2.0")]
    )
    def test_surfaces_take_each_loss_default_margin(self, capsys, tmp_path, losses, shown):
        """Without --margin, asoftmax runs at its integer multiplier 2 and
        the other losses at 0.3; the config line lists one per loss."""
        out_path = tmp_path / "surf.csv"
        code, _, err = run_cli(
            capsys, "landscape", "--kind", "surfaces", "--grid", "11",
            "--losses", losses, "--out", str(out_path),
        )
        assert code == 0
        assert f" margin={shown} " in err
        rows = [line.split(",") for line in out_path.read_text().splitlines()[1:]]
        assert len(rows) == len(losses.split(",")) * 11 * 11
        _, expected = binary_derivative_surface(LossSpec(LossKind.A_SOFTMAX, margin=2), 11)
        assert [float(row[3]) for row in rows if row[0] == "asoftmax"] == expected.ravel().tolist()

    @pytest.mark.parametrize(
        "margin, named",
        [
            ("2", "angular margin must be in [0, pi/2), got 2.0"),
            ("0.3", "A-Softmax margin must be a positive integer, got 0.3"),
        ],
    )
    def test_given_margin_serves_every_loss(self, capsys, tmp_path, margin, named):
        """No one margin fits A-Softmax and an angular loss together."""
        code, out, err = run_cli(
            capsys, "landscape", "--kind", "surfaces", "--grid", "5",
            "--losses", "asoftmax,chebyaam", "--margin", margin,
            "--out", str(tmp_path / "surf.csv"),
        )
        assert code == 1
        assert named in err
        assert f" margin={float(margin)} " in err
        assert out == ""
        assert list(tmp_path.iterdir()) == []

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
        assert (tmp_path / "telemetry.csv.summary").exists()
        assert "nan_seen=false" in out

    def test_asoftmax_trains_at_the_default_margin(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "train", "--loss", "asoftmax", "--epochs", "1",
            "--out", str(tmp_path / "t.csv"),
        )
        assert code == 0
        assert "steps=50\n" in out
        assert " margin=2.0 " in err


class TestRejectedSettings:
    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--scale", "nan"),
            ("--scale", "inf"),
            ("--peak-lr", "nan"),
            ("--spread", "nan"),
            ("--momentum", "nan"),
            ("--momentum", "-3.0"),
            ("--warmup-fraction", "1.5"),
            ("--batch-size", "0"),
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

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["--degrees", "30,30"], "duplicate degree 30"),
            (["--degrees", "", "--margin", "5"], "need at least one degree"),
        ],
    )
    def test_curves_reject_empty_or_repeated_degrees(self, capsys, tmp_path, argv, named):
        out_path = tmp_path / "curves.csv"
        code, out, err = run_cli(
            capsys, "landscape", "--kind", "curves", *argv, "--out", str(out_path)
        )
        assert code == 1
        assert named in err
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

    def test_seed_env_variable_sets_default(self, tmp_path, monkeypatch):
        """The env seed changes the gradcheck batch; identical output
        otherwise."""
        env = {"CHEBYMARGIN_SEED": "123"}
        result = subprocess.run(
            [sys.executable, "-m", "chebymargin.cli", "gradcheck", "--loss", "nsoftmax"],
            capture_output=True, text=True, env={**__import__("os").environ, **env},
        )
        assert result.returncode == 0
        assert "seed=123" in result.stderr

    def test_bad_seed_env_variable_only_fails_commands_with_seed(self, capsys, monkeypatch):
        """The env seed is converted by argparse, and only for a subcommand
        that has ``--seed``: ``lipschitz`` is unaffected, ``gradcheck`` is a
        usage error naming the value, and an explicit ``--seed`` wins."""
        monkeypatch.setenv("CHEBYMARGIN_SEED", "abc")
        code, out, _ = run_cli(capsys, "lipschitz", "--margin", "0.3", "--degree", "30")
        assert (code, out) == (0, "6.781421857737604\n")
        code, out, err = run_cli(capsys, "gradcheck")
        assert code == 1
        assert "argument --seed: invalid int value: 'abc'" in err
        assert out == ""
        code, out, err = run_cli(capsys, "gradcheck", "--seed", "3")
        assert code == 0
        assert "seed=3 " in err
        assert "gradcheck PASS" in out

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
