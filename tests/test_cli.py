"""Tests for the command-line interface."""

import math
import subprocess
import sys

import numpy as np
import pytest

from chebymargin.cli import main


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


class TestLipschitz:
    def test_degree_30_value(self, capsys):
        code, out, _ = run_cli(capsys, "lipschitz", "--margin", "0.3", "--degree", "30")
        assert code == 0
        assert float(out.strip()) == pytest.approx(6.78, abs=5e-3)


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
            config.write_text(text, encoding="utf-8")
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
