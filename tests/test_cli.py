import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

from privcomm.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"

MODEL_FLAGS = ["--sigma-x2", "1", "--rho", "0.6", "--r", "1"]


def run(argv):
    buf = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, buf.getvalue(), err.getvalue()


class TestGolden:
    def test_solve_simple(self):
        code, out, _ = run(["solve", "--setting", "simple", *MODEL_FLAGS, "--dp", "0.84"])
        assert code == 0
        assert out == (GOLDEN / "solve_simple.json").read_text()

    def test_tradeoff_simple_grid2(self):
        code, out, _ = run(
            ["tradeoff", "--setting", "simple", *MODEL_FLAGS, "--grid", "2"]
        )
        assert code == 0
        assert out == (GOLDEN / "tradeoff_simple_grid2.csv").read_text()

    def test_verify_channel(self):
        code, out, _ = run(
            [
                "verify", "--setting", "channel", *MODEL_FLAGS,
                "--dp", "0.92", "--pt", "1", "--sigma-z2", "1",
            ]
        )
        assert code == 0
        assert out == (GOLDEN / "verify_channel.json").read_text()


class TestSolve:
    def test_json_round_trip(self):
        code, out, _ = run(["solve", "--setting", "simple", *MODEL_FLAGS, "--dp", "0.84"])
        doc = json.loads(out)
        assert doc["setting"] == "simple"
        assert doc["constraint_active"] is True
        assert doc["d_p"] == pytest.approx(0.84, rel=1e-12)

    def test_compression_reports_rate(self):
        code, out, _ = run(
            [
                "solve", "--setting", "compression", *MODEL_FLAGS,
                "--dp", "0.9", "--sigma-n2", "0.5",
            ]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["rate_units"] == "nats"
        assert doc["rate"] > 0.0

    def test_bits_flag_scales_rate(self):
        base_args = [
            "solve", "--setting", "compression", *MODEL_FLAGS,
            "--dp", "0.9", "--sigma-n2", "0.5",
        ]
        _, nats_out, _ = run(base_args)
        _, bits_out, _ = run(base_args + ["--bits"])
        nats = json.loads(nats_out)
        bits = json.loads(bits_out)
        assert bits["rate_units"] == "bits"
        assert bits["rate"] == pytest.approx(nats["rate"] / 0.6931471805599453)

    def test_infeasible_target_exits_1(self):
        code, out, err = run(["solve", "--setting", "simple", *MODEL_FLAGS, "--dp", "1.5"])
        assert code == 1
        assert out == ""
        assert "error:" in err

    def test_invalid_model_exits_1(self):
        code, _, err = run(
            ["solve", "--setting", "simple", "--sigma-x2", "-1", "--rho", "0.6",
             "--r", "1", "--dp", "0.84"]
        )
        assert code == 1 and "error:" in err

    def test_missing_dp_exits_1(self):
        code, _, err = run(["solve", "--setting", "simple", *MODEL_FLAGS])
        assert code == 1 and "error:" in err

    def test_unknown_flag_exits_1(self):
        code, _, err = run(
            ["solve", "--setting", "simple", *MODEL_FLAGS, "--dp", "0.84", "--bogus"]
        )
        assert code == 1 and "error:" in err


class TestRejectedInputs:
    """Inputs that exit 1 with one ``error:`` line: no output, no traceback."""

    DEGENERATE = ["--sigma-x2", "1", "--rho", "1", "--r", "1"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["--setting", "simple", *MODEL_FLAGS, "--dp", "nan"],
            ["--setting", "channel", *MODEL_FLAGS, "--dp", "0.92", "--pt", "inf",
             "--sigma-z2", "1"],
            ["--setting", "channel", *MODEL_FLAGS, "--dp", "0.92", "--pt", "1",
             "--sigma-z2", "inf"],
            ["--setting", "compression", *MODEL_FLAGS, "--dp", "0.9", "--sigma-n2", "nan"],
        ],
        ids=["dp-nan", "pt-inf", "sigma-z2-inf", "sigma-n2-nan"],
    )
    def test_non_finite_solve_input_exits_1(self, argv):
        code, out, err = run(["solve", *argv])
        assert code == 1
        assert out == ""
        assert "error:" in err and "Traceback" not in err

    def test_json_refuses_nan(self):
        from privcomm.cli import _json

        with pytest.raises(ValueError):
            _json({"d_c": float("nan")})

    def test_degenerate_simple_exits_1(self):
        code, out, err = run(
            ["solve", "--setting", "simple", *self.DEGENERATE, "--dp", "0.5"]
        )
        assert code == 1 and out == ""
        assert "error:" in err and "rho^2 = r" in err

    def test_degenerate_compression_is_finite(self):
        code, out, _ = run(
            ["solve", "--setting", "compression", *self.DEGENERATE, "--dp", "0.7",
             "--sigma-n2", "1"]
        )
        assert code == 0
        doc = json.loads(out)
        assert -1.0 <= doc["alpha"] <= 0.0
        assert doc["d_p"] == pytest.approx(0.7, rel=1e-12)

    def test_degenerate_channel_exits_1(self):
        code, out, err = run(
            ["solve", "--setting", "channel", *self.DEGENERATE, "--dp", "1", "--pt", "1",
             "--sigma-z2", "1"]
        )
        assert code == 1 and out == ""
        assert "error:" in err and "rho^2 = r" in err

    # r - rho^2 = 2.8e-17 > 0: not degenerate, but the transmit variance near
    # alpha = -rho/r cancels to rounding
    NEAR_DEGENERATE = ["--sigma-x2", "0.5350258788176954", "--rho", "0.4369635009422466",
                       "--r", "0.19093710115570478"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["--setting", "simple", "--dp", "0.03561611617484084"],
            ["--setting", "channel", "--dp", "0.10215629034473414",
             "--pt", "2.6229552193297145", "--sigma-z2", "1.4039560157226145"],
        ],
        ids=["simple-interior", "channel-endpoint"],
    )
    def test_near_degenerate_solve_exits_1(self, argv):
        code, out, err = run(["solve", *self.NEAR_DEGENERATE, *argv])
        assert code == 1 and out == ""
        assert err.startswith("error:") and "rho^2 = r" in err

    def test_simulate_sending_nothing_exits_1(self):
        # r = rho^2 exactly: at the max-privacy endpoint every sampled y is 0
        argv = ["simulate", "--setting", "simple", "--sigma-x2", "0.9134717985533981",
                "--rho", "0.40147136495787894", "--r", "0.16117925688114243",
                "--dp", "0.14723270567271735", "--samples", "3", "--seed", "1306269759"]
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "privcomm.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr == (
            "error: the policy sends nothing (Var(Y) = 0); privacy MMSE undefined\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["tradeoff", "--setting", "simple", "--grid", "5"],
            ["tradeoff", "--setting", "channel", "--pt", "1", "--sigma-z2", "1"],
            ["verify", "--setting", "simple", "--dp", "0.5"],
            ["verify", "--setting", "simple", "--dp", "1"],
            ["scan"],
        ],
        ids=["tradeoff-simple", "tradeoff-channel", "verify-interior", "verify-endpoint",
             "scan"],
    )
    def test_degenerate_sweeps_and_checks_exit_1(self, argv):
        code, out, err = run([*argv, *self.DEGENERATE])
        assert code == 1 and out == ""
        assert "error:" in err and "rho^2 = r" in err

    def test_scan_nan_multiplier_exits_1(self):
        code, out, err = run(["scan", *MODEL_FLAGS, "--lambdas", "nan"])
        assert code == 1 and out == ""
        assert "error:" in err and "lam=nan" in err and "Traceback" not in err

    def test_verify_without_theta_is_finite(self):
        # r = 0 (theta = 0): no error to leak, every field finite
        code, out, err = run(
            ["verify", "--setting", "compression", "--sigma-x2", "1", "--rho", "0",
             "--r", "0", "--dp", "0", "--sigma-n2", "1"]
        )
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert doc["passed"] is True
        assert doc["oracle"] == {"alpha": 0.0, "d_c": 0.5, "d_p": 0.0, "noise_var": 1.0}

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--setting", "simple", *MODEL_FLAGS, "--dp", "0.84",
             "--samples", "1000000"],
            ["verify", "--setting", "simple", *MODEL_FLAGS, "--dp", "0.84",
             "--oracle-grid", "1001"],
        ],
        ids=["simulate-samples", "verify-oracle-grid"],
    )
    def test_arrays_beyond_physical_memory_exit_1(self, argv, monkeypatch):
        import privcomm.model

        monkeypatch.setattr(privcomm.model, "physical_memory", lambda: 2**20)
        code, out, err = run(argv)
        assert code == 1 and out == ""
        assert "error:" in err and "physical memory" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--setting", "compression", "--sigma-n2", "1e-320"],
            ["rate", "--noise-grid", "1e-320"],
        ],
        ids=["solve", "rate"],
    )
    def test_rate_overflow_exits_1(self, argv):
        code, out, err = run([*argv, *MODEL_FLAGS, "--dp", "0.9"])
        assert code == 1 and out == ""
        assert "error: rate overflows at test-channel noise 1e-320" in err

    @pytest.mark.parametrize("count", ["1", "0"])
    def test_scan_lambda_count_below_2_exits_1(self, count):
        code, out, err = run(["scan", *MODEL_FLAGS, "--lambda-count", count])
        assert code == 1 and out == ""
        assert "--lambda-count must be >= 2" in err


class TestVerifyExitCodes:
    def test_coarse_oracle_fails_with_2(self):
        # a 5-point grid with no refinement cannot land within the tolerance
        code, out, _ = run(
            [
                "verify", "--setting", "simple", *MODEL_FLAGS, "--dp", "0.84",
                "--oracle-grid", "5", "--refine-tol", "1.0",
            ]
        )
        assert code == 2
        assert json.loads(out)["passed"] is False


class TestOutputs:
    def test_output_file(self, tmp_path):
        target = tmp_path / "sol.json"
        code, out, _ = run(
            ["solve", "--setting", "simple", *MODEL_FLAGS, "--dp", "0.84",
             "--output", str(target)]
        )
        assert code == 0 and out == ""
        assert target.read_text() == (GOLDEN / "solve_simple.json").read_text()

    def test_output_dir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PRIVCOMM_OUTPUT_DIR", str(tmp_path))
        code, _, _ = run(
            ["solve", "--setting", "simple", *MODEL_FLAGS, "--dp", "0.84",
             "--output", "rel.json"]
        )
        assert code == 0
        assert (tmp_path / "rel.json").exists()

    def test_unwritable_output_exits_1(self, tmp_path):
        code, _, err = run(
            ["solve", "--setting", "simple", *MODEL_FLAGS, "--dp", "0.84",
             "--output", str(tmp_path / "no" / "such" / "dir.json")]
        )
        assert code == 1 and "error:" in err


class TestConfigFile:
    def test_config_supplies_model(self, tmp_path):
        cfg = tmp_path / "model.cfg"
        cfg.write_text("sigma-x2 = 1\nrho = 0.6  # correlation\nr = 1\ndp = 0.84\n")
        code, out, _ = run(["solve", "--setting", "simple", "--config", str(cfg)])
        assert code == 0
        assert out == (GOLDEN / "solve_simple.json").read_text()

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "model.cfg"
        cfg.write_text("sigma-x2 = 1\nrho = 0.6\nr = 1\ndp = 0.9\n")
        code, out, _ = run(
            ["solve", "--setting", "simple", "--config", str(cfg), "--dp", "0.84"]
        )
        assert code == 0
        assert json.loads(out)["d_p"] == pytest.approx(0.84, rel=1e-12)

    def test_bad_config_line_exits_1(self, tmp_path):
        cfg = tmp_path / "model.cfg"
        cfg.write_text("sigma-x2 1\n")
        code, _, err = run(["solve", "--setting", "simple", "--config", str(cfg)])
        assert code == 1 and "error:" in err

    def test_string_flag_from_config(self, tmp_path):
        cfg = tmp_path / "scan.cfg"
        cfg.write_text("lambdas = 0,1.0\n")
        code, out, _ = run(["scan", *MODEL_FLAGS, "--config", str(cfg)])
        assert code == 0
        assert out == run(["scan", *MODEL_FLAGS, "--lambdas", "0,1.0"])[1]

    def test_boolean_flag_from_config(self, tmp_path):
        cfg = tmp_path / "bits.cfg"
        cfg.write_text("bits = true\n")
        argv = ["solve", "--setting", "compression", *MODEL_FLAGS, "--dp", "0.9",
                "--sigma-n2", "0.5"]
        code, out, _ = run([*argv, "--config", str(cfg)])
        assert code == 0
        assert out == run([*argv, "--bits"])[1]
        cfg.write_text("bits = false\n")
        assert run([*argv, "--config", str(cfg), "--bits"])[1] == run([*argv, "--bits"])[1]

    def test_int_flag_from_config_and_override(self, tmp_path):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text("grid = 3\n")
        argv = ["tradeoff", "--setting", "simple", *MODEL_FLAGS, "--config", str(cfg)]
        assert len(run(argv)[1].splitlines()) == 4
        assert run([*argv, "--grid", "2"])[1] == (GOLDEN / "tradeoff_simple_grid2.csv").read_text()

    @pytest.mark.parametrize(
        "line", ["bits = maybe", "grid = 2.5", "rho = high", "setting = other", "bogus = 1"]
    )
    def test_bad_config_value_exits_1(self, tmp_path, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"sigma-x2 = 1\nrho = 0.6\nr = 1\n{line}\n")
        code, out, err = run(
            ["tradeoff", "--setting", "simple", "--config", str(cfg)]
        )
        assert code == 1 and out == ""
        assert f"{cfg}:4:" in err

    def test_missing_config_exits_1(self):
        code, _, err = run(
            ["solve", "--setting", "simple", "--config", "/nonexistent.cfg"]
        )
        assert code == 1 and "error:" in err


class TestOtherCommands:
    def test_rate_csv_header(self):
        code, out, _ = run(
            ["rate", *MODEL_FLAGS, "--dp", "0.9", "--noise-grid", "0.5,1.0"]
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "sigma_n2,rate,d_c,d_p,alpha"
        assert len(lines) == 3

    def test_scan_csv(self):
        code, out, _ = run(["scan", *MODEL_FLAGS, "--lambdas", "0,1.0"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "lambda,alpha,noise_var,d_p,d_c"
        first = [float(v) for v in lines[1].split(",")]
        assert first[0] == 0.0 and abs(first[1]) < 1e-5

    def test_simulate_small(self):
        code, out, _ = run(
            [
                "simulate", "--setting", "simple", *MODEL_FLAGS, "--dp", "0.84",
                "--samples", "20000", "--seed", "5",
            ]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["generator"] == "numpy-pcg64"
        assert doc["d_c_hat"] == pytest.approx(doc["closed_form"]["d_c"], abs=0.01)

    def test_tradeoff_channel(self):
        code, out, _ = run(
            [
                "tradeoff", "--setting", "channel", *MODEL_FLAGS,
                "--pt", "1", "--sigma-z2", "1", "--grid", "5",
            ]
        )
        assert code == 0
        assert out.splitlines()[0] == "d_p,d_c,alpha,kappa"
        assert len(out.splitlines()) == 6


def test_console_entry_raises_system_exit():
    from privcomm.cli import console_entry
    import sys

    argv = sys.argv
    sys.argv = ["privcomm", "solve", "--setting", "simple", *MODEL_FLAGS, "--dp", "0.84"]
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            with pytest.raises(SystemExit) as exc:
                console_entry()
        assert exc.value.code == 0
    finally:
        sys.argv = argv
