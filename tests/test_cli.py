import contextlib
import io
import json
import math
import os
import pathlib
import shutil
import subprocess
import sys
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from privcomm import ChannelSpec, validate_model
from privcomm.cli import main

from conftest import exact_channel_dc_dp

GOLDEN = pathlib.Path(__file__).parent / "golden"

MODEL_FLAGS = ["--sigma-x2", "1", "--rho", "0.6", "--r", "1"]


def run(argv):
    buf = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, buf.getvalue(), err.getvalue()


#: Each golden file and the argv whose output it pins.
GOLDENS = [
    ("solve_simple.json", ["solve", "--setting", "simple", *MODEL_FLAGS, "--dp", "0.84"]),
    ("tradeoff_simple_grid2.csv",
     ["tradeoff", "--setting", "simple", *MODEL_FLAGS, "--grid", "2"]),
    # the solve core's channel rows (free, interior and endpoint) and a compression row
    ("tradeoff_channel_grid9.csv", ["tradeoff", "--setting", "channel", *MODEL_FLAGS,
                                    "--pt", "1", "--sigma-z2", "1", "--grid", "9"]),
    ("solve_compression.json", ["solve", "--setting", "compression", *MODEL_FLAGS,
                                "--dp", "0.92", "--sigma-n2", "0.7"]),
    # the oracle in each setting: one bisection at the setting's own encoder noise,
    # and the converse bound for simple and channel
    ("verify_simple.json", ["verify", "--setting", "simple", *MODEL_FLAGS, "--dp", "0.84"]),
    ("verify_compression.json", ["verify", "--setting", "compression", *MODEL_FLAGS,
                                 "--dp", "0.92", "--sigma-n2", "0.7"]),
    ("verify_channel.json", ["verify", "--setting", "channel", *MODEL_FLAGS,
                             "--dp", "0.92", "--pt", "1", "--sigma-z2", "1"]),
    ("scan_simple.csv", ["scan", *MODEL_FLAGS]),
    # a non-unit model and multipliers far above 1/rho^2
    ("scan_lambdas.csv", ["scan", "--sigma-x2", "2.5", "--rho", "0.3", "--r", "0.4",
                          "--lambdas", "0,0.5,3,25,1000,1e5"]),
    ("rate_compression.csv", ["rate", "--sigma-x2", "2.5", "--rho", "0.3", "--r", "0.4",
                              "--dp", "0.95", "--noise-grid", "0.05,0.5,2,8"]),
    # the simulate goldens pin the Monte Carlo stream and the signal chain's arithmetic
    ("simulate_compression.json",
     ["simulate", "--setting", "compression", *MODEL_FLAGS, "--dp", "0.92",
      "--sigma-n2", "0.7", "--samples", "200000", "--seed", "2"]),
    ("simulate_channel.json",
     ["simulate", "--setting", "channel", *MODEL_FLAGS, "--dp", "0.92",
      "--pt", "1", "--sigma-z2", "1", "--samples", "200000", "--seed", "2"]),
    ("simulate_simple.json",
     ["simulate", "--setting", "simple", *MODEL_FLAGS, "--dp", "0.84",
      "--samples", "200000", "--seed", "2"]),
]

#: The argvs of ``GOLDENS`` that run with numpy unavailable: every command but
#: simulate.
NUMPY_FREE = [argv for _, argv in GOLDENS if argv[0] != "simulate"]

# The console script's entry point, with numpy blocked when the first argument
# says so; the remaining arguments are the command's argv.
CONSOLE = """
import sys
if sys.argv.pop(1) == "no-numpy":
    sys.modules["numpy"] = None
from privcomm.cli import console_entry
console_entry()
"""


def run_process(argv, *, entry=("-m", "privcomm.cli")):
    """``python entry argv`` in a fresh interpreter, killed after 60 s."""
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *entry, *argv], env=env,
                          capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("golden, argv", GOLDENS, ids=[g for g, _ in GOLDENS])
class TestGolden:
    def test_in_process(self, golden, argv):
        code, out, _ = run(argv)
        assert code == 0
        assert out == (GOLDEN / golden).read_text()

    def test_console_entry_in_fresh_interpreter(self, golden, argv):
        numpy = "no-numpy" if argv in NUMPY_FREE else "numpy"
        proc = run_process(argv, entry=("-c", CONSOLE, numpy))
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == (GOLDEN / golden).read_text()

    def test_installed_script(self, golden, argv):
        # the console script that installing the package writes; CI installs it
        script = shutil.which("privcomm")
        if script is None:
            pytest.skip("no privcomm script is installed")
        proc = subprocess.run([script, *argv], capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == (GOLDEN / golden).read_text()


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

    def test_channel_at_sigma_x2_1e300_answers(self):
        # (beta * sigma_x2 * (1 + alpha*rho))^2 exceeds the largest float; D_C and D_P
        # in units of sigma_x2 do not square it
        code, out, err = run(["solve", "--setting", "channel", "--sigma-x2", "1e300",
                              "--rho", "0.6", "--r", "1", "--pt", "1e10", "--sigma-z2", "1",
                              "--dp", "9e299"])
        assert (code, err) == (0, "")
        doc = json.loads(out)
        exact_dc, exact_dp = exact_channel_dc_dp(
            validate_model(1e300, 0.6, 1.0), doc["alpha"], ChannelSpec(1e10, 1.0))
        assert (exact_dc, exact_dp) == (1.0000000008e299, doc["d_p"])
        assert abs(doc["d_c"] - exact_dc) <= 4 * sys.float_info.epsilon * 1e300

    def test_free_d_p_is_never_negative_zero(self):
        # sigma_x2 * (r - rho^2 + r*n) underflows to -0.0 just above rho^2 = r
        code, out, err = run(["solve", "--setting", "compression",
                              "--sigma-x2", "7.550065163253295e-150",
                              "--rho", "1.0000000000004e-150", "--r", "1e-300", "--dp", "0",
                              "--sigma-n2", "1e-170"])
        assert (code, err) == (0, "")
        assert '"d_p": 0.0,' in out and "-0.0" not in out

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

    @pytest.mark.parametrize("command, flag", [
        ("solve", ["--bogus"]),
        ("verify", ["--refine-tol", "1e-7"]),
    ])
    def test_unknown_flag_exits_1(self, command, flag):
        code, out, err = run(
            [command, "--setting", "simple", *MODEL_FLAGS, "--dp", "0.84", *flag]
        )
        assert code == 1 and out == ""
        assert err == f"error: unrecognized arguments: {' '.join(flag)}\n"


class TestRejectedInputs:
    """Inputs that exit 1 with one ``error:`` line: no output, no traceback."""

    # flags that no code of the command reads
    REMOVED = [
        ("tradeoff", ["--setting", "simple"], "--sigma-n2", "0.5"),
        ("tradeoff", ["--setting", "simple"], "--bits", None),
        ("rate", ["--dp", "0.9", "--noise-grid", "0.5"], "--sigma-n2", "0.5"),
        ("verify", ["--setting", "simple", "--dp", "0.84"], "--bits", None),
        ("verify", ["--setting", "simple", "--dp", "0.84"], "--oracle-grid", "401"),
        ("scan", [], "--sigma-n2", "0.5"),
        ("scan", [], "--bits", None),
    ]

    @pytest.mark.parametrize("command, args, flag, value", REMOVED,
                             ids=[f"{c}{f}" for c, _, f, _ in REMOVED])
    def test_unread_flag_exits_1(self, tmp_path, command, args, flag, value):
        argv = [command, *MODEL_FLAGS, *args]
        given = [flag] if value is None else [flag, value]
        code, out, err = run([*argv, *given])
        assert (code, out) == (1, "")
        assert err == f"error: unrecognized arguments: {' '.join(given)}\n"
        cfg = tmp_path / "unread.cfg"
        cfg.write_text(f"{flag[2:]} = {value or 'true'}\n")
        code, out, err = run([*argv, "--config", str(cfg)])
        assert (code, out) == (1, "")
        assert err == f"error: {cfg}:1: unknown key {flag[2:]!r}\n"

    REQUIRED = [
        (["solve", "--setting", "simple", "--rho", "0.6", "--r", "1", "--dp", "0.84"],
         "missing required model parameter --sigma-x2"),
        (["verify", "--setting", "simple", "--sigma-x2", "1", "--r", "1", "--dp", "0.84"],
         "missing required model parameter --rho"),
        (["scan", "--sigma-x2", "1", "--rho", "0.6"], "missing required model parameter --r"),
        (["tradeoff", *MODEL_FLAGS], "missing required --setting"),
        (["simulate", "--setting", "simple", *MODEL_FLAGS], "missing required --dp"),
        (["rate", *MODEL_FLAGS, "--dp", "0.9"], "missing required --noise-grid"),
        (["solve", "--setting", "compression", *MODEL_FLAGS, "--dp", "0.9"],
         "compression setting requires --sigma-n2"),
        (["verify", "--setting", "channel", *MODEL_FLAGS, "--dp", "0.92", "--sigma-z2", "1"],
         "channel setting requires --pt and --sigma-z2"),
        (["tradeoff", "--setting", "channel", *MODEL_FLAGS, "--pt", "1"],
         "channel setting requires --pt and --sigma-z2"),
        (["scan", *MODEL_FLAGS, "--lambdas", "0,x"], "bad --lambdas value: '0,x'"),
        (["rate", *MODEL_FLAGS, "--dp", "0.9", "--noise-grid", "0.5,y"],
         "bad --noise-grid value: '0.5,y'"),
    ]

    @pytest.mark.parametrize("argv, message", REQUIRED, ids=[
        "sigma-x2", "rho", "r", "setting", "dp", "noise-grid", "sigma-n2", "pt", "sigma-z2",
        "lambdas-item", "noise-grid-item"])
    def test_missing_or_bad_input_exits_1(self, argv, message):
        code, out, err = run(argv)
        assert (code, out, err) == (1, "", f"error: {message}\n")

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

    @pytest.mark.parametrize("sigma_n2", ["1e8", "1e9"])  # r*n = inf, then n = inf
    def test_compression_floor_overflow_exits_1(self, sigma_n2):
        # an inf or NaN floor would reach the output, which json refuses to print
        code, out, err = run(["solve", "--setting", "compression", "--sigma-x2", "1e-300",
                              "--rho", "1", "--r", "4", "--dp", "2e-300", "--sigma-n2", sigma_n2])
        assert (code, out) == (1, "")
        assert err == ("error: the compression floor overflows a float at "
                       f"sigma_n2={float(sigma_n2)!r}, sigma_x2=1e-300\n")

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
            [*NEAR_DEGENERATE, "--setting", "simple", "--dp", "0.03561611617484084"],
            [*NEAR_DEGENERATE, "--setting", "channel", "--dp", "0.10215629034473414",
             "--pt", "2.6229552193297145", "--sigma-z2", "1.4039560157226145"],
            # rho^2 = r, where r*n and d_p / sigma_x2 both underflow to 0
            ["--setting", "compression", "--sigma-x2", "1e300", "--rho", "1e-15",
             "--r", "1e-30", "--dp", "1e-300", "--sigma-n2", "1"],
        ],
        ids=["simple-interior", "channel-endpoint", "compression-target-underflow"],
    )
    def test_near_degenerate_solve_exits_1(self, argv):
        code, out, err = run(["solve", *argv])
        assert code == 1 and out == ""
        assert err.startswith("error:") and "rho^2 = r" in err

    def test_simulate_sending_nothing_exits_1(self):
        # r = rho^2 exactly: at the max-privacy endpoint every sampled y is 0
        argv = ["simulate", "--setting", "simple", "--sigma-x2", "0.9134717985533981",
                "--rho", "0.40147136495787894", "--r", "0.16117925688114243",
                "--dp", "0.14723270567271735", "--samples", "3", "--seed", "1306269759"]
        proc = run_process(argv)
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

    # Var(theta) = sigma_x2 * r = 1.3e371 overflows a float
    HUGE_THETA = ["--sigma-x2", "1.0558433295428895e+287", "--rho", "1.0515169710314845e+42",
                  "--r", "1.2493911043820676e+84"]

    @pytest.mark.parametrize("argv", [["solve", "--setting", "simple", "--dp", "1"],
                                      ["scan", "--lambdas", "1e-130"]], ids=["solve", "scan"])
    def test_overflowing_var_theta_exits_1(self, argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run([*argv, *self.HUGE_THETA])
        assert code == 1 and out == ""
        assert err == ("error: Var(theta) = sigma_x2 * r overflows a float at "
                       "sigma_x2=1.0558433295428895e+287, r=1.2493911043820676e+84\n")

    def test_overflowing_rho_squared_exits_1(self):
        code, out, err = run(["solve", "--setting", "simple", "--sigma-x2", "1",
                              "--rho", "1e160", "--r", "1e300", "--dp", "1"])
        assert code == 1 and out == ""
        assert err == "error: need rho^2 <= r, got rho^2=inf > r=1e+300\n"

    def test_scan_nan_multiplier_exits_1(self):
        code, out, err = run(["scan", *MODEL_FLAGS, "--lambdas", "nan"])
        assert code == 1 and out == ""
        assert "error:" in err and "lam=nan" in err and "Traceback" not in err

    @pytest.mark.parametrize("lam", ["1e12", "inf"])
    def test_scan_unusable_multiplier_exits_1(self, lam):
        code, out, err = run(["scan", *MODEL_FLAGS, "--lambdas", lam])
        assert code == 1 and out == ""
        (line,) = err.splitlines()
        assert line.startswith(f"error: lam={float(lam)}")

    @pytest.mark.parametrize("rho", ["0.6", "0"])
    @pytest.mark.parametrize("lambdas", ["", ","])
    def test_scan_empty_lambdas_exits_1(self, rho, lambdas):
        code, out, err = run(["scan", "--sigma-x2", "1", "--rho", rho, "--r", "1",
                              "--lambdas", lambdas])
        assert code == 1 and out == ""
        assert err == f"error: --lambdas lists no multiplier: {lambdas!r}\n"

    # 1/rho^2 divides by zero, by an underflowed rho^2 or overflows
    @pytest.mark.parametrize("rho", ["0", "1e-200", "1e-160"])
    def test_scan_rho_zero_needs_lambdas(self, rho):
        flags = ["--sigma-x2", "1", "--rho", rho, "--r", "1"]
        code, out, err = run(["scan", *flags])
        assert code == 1 and out == ""
        assert "error:" in err and "pass --lambdas" in err
        code, out, err = run(["scan", *flags, "--lambdas", "0,100"])
        assert code == 0 and err == ""
        assert len(out.splitlines()) == 3

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
            ["tradeoff", "--setting", "simple", *MODEL_FLAGS, "--grid", "1000000000000"],
            ["scan", *MODEL_FLAGS, "--lambda-count", "1000000000000"],
        ],
        ids=["simulate-samples", "tradeoff-grid", "scan-lambda-count"],
    )
    def test_arrays_beyond_physical_memory_exit_1(self, argv, monkeypatch):
        import privcomm.model

        monkeypatch.setattr(privcomm.model, "physical_memory", lambda: 2**20)
        code, out, err = run(argv)
        assert code == 1 and out == ""
        assert "error:" in err and "physical memory" in err and "Traceback" not in err

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

    @pytest.mark.parametrize("noise_grid", ["", ","])
    def test_rate_empty_noise_grid_exits_1(self, noise_grid):
        # the refusal names the flag, as --lambdas' does, not the library's parameter
        code, out, err = run(["rate", *MODEL_FLAGS, "--dp", "0.9", "--noise-grid", noise_grid])
        assert code == 1 and out == ""
        assert err == f"error: --noise-grid lists no noise level: {noise_grid!r}\n"

    def test_rate_repeated_noise_exits_1(self):
        code, out, err = run(["rate", *MODEL_FLAGS, "--dp", "0.9", "--noise-grid", "0.5,0.5"])
        assert code == 1 and out == ""
        assert err.splitlines() == ["error: noise_grid lists sigma_n2=0.5 more than once"]

    def test_tradeoff_grid_too_fine_exits_1(self):
        code, out, err = run(["tradeoff", "--setting", "simple", "--sigma-x2", "1",
                              "--rho", "1e-8", "--r", "1"])
        assert code == 1 and out == ""
        (line,) = err.splitlines()
        assert line.startswith("error: grid=65 repeats the privacy target")

    @pytest.mark.parametrize("count", ["1", "0"])
    def test_scan_lambda_count_below_2_exits_1(self, count):
        code, out, err = run(["scan", *MODEL_FLAGS, "--lambda-count", count])
        assert code == 1 and out == ""
        assert "--lambda-count must be >= 2" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--sigma-x2", "1e-310", "--rho", "0.6", "--dp", "9e-311"],
            # sigma_x2 * A underflows to zero near max privacy
            ["--sigma-x2", "1e-320", "--rho", "0.9999", "--dp", "9.99e-321"],
        ],
        ids=["overflow", "zero-power"],
    )
    def test_channel_gain_overflow_exits_1(self, argv):
        code, out, err = run(["solve", "--setting", "channel", *argv, "--r", "1",
                              "--pt", "1", "--sigma-z2", "1"])
        assert code == 1 and out == ""
        (line,) = err.splitlines()
        assert line.startswith("error: the transmit gain overflows a float")

    def test_quadratic_scale_underflow_exits_1(self):
        # r^2 * d underflows to zero in the constraint quadratic
        code, out, err = run(["tradeoff", "--setting", "channel",
                              "--sigma-x2", "9.627742484964946e+23",
                              "--rho", "5.185222171897798e-142",
                              "--r", "2.688652897199429e-283",
                              "--pt", "0.0008494897219415433",
                              "--sigma-z2", "2.006125257190469", "--grid", "5"])
        assert code == 1 and out == ""
        (line,) = err.splitlines()
        assert line.startswith("error: r^2 * d underflows a float at r=2.688652897199429e-283")

    def test_quadratic_scale_overflow_exits_1(self):
        # r^2 * d and (r - d)*(r - rho^2) overflow: the discriminant would be inf/inf
        code, out, err = run(["solve", "--setting", "simple", "--sigma-x2", "1",
                              "--rho", "1e150", "--r", "1e300", "--dp", "9.9e299"])
        assert code == 1 and out == ""
        assert err == "error: r^2 * d overflows a float at r=1e+300, d=9.9e+299\n"

    def test_simulate_overflow_exits_1(self):
        # the squared errors of samples near 1e150 overflow a float
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(["simulate", "--setting", "simple", "--sigma-x2", "1e300",
                                  "--rho", "0.6", "--r", "1", "--dp", "9e299",
                                  "--samples", "100"])
        assert code == 1 and out == ""
        assert err == ("error: the Monte Carlo moments overflow a float "
                       "(overflow encountered in square)\n")

    def test_simulate_power_sum_overflow_exits_1(self):
        # each u^2 is near 1e304 and finite; their sum over more than one
        # block of samples overflows a float
        code, out, err = run(["simulate", "--setting", "channel", *MODEL_FLAGS, "--dp", "0.92",
                              "--pt", "1e304", "--sigma-z2", "1", "--samples", "40000",
                              "--seed", "1"])
        assert code == 1 and out == ""
        assert err == ("error: the Monte Carlo moments overflow a float "
                       "(overflow encountered in reduce)\n")

    @pytest.mark.parametrize("flag, value, message", [
        ("--samples", "1", "samples must be >= 2, got 1"),
        ("--seed", "-1", "seed must be >= 0, got -1"),
    ], ids=["samples", "seed"])
    def test_simulate_config_out_of_range_exits_1(self, flag, value, message):
        code, out, err = run(["simulate", "--setting", "simple", *MODEL_FLAGS, "--dp", "0.84",
                              flag, value])
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"


# Magnitudes log-uniform over the positive floats, subnormals included.
MAGNITUDES = st.floats(-320.0, 308.0).map(lambda e: 10.0**e)


def model_flags(draw):
    """--sigma-x2, --rho and --r, with rho/sqrt(r) in {0, u, 1 - 1e-12, 1} or,
    beyond the bound rho^2 <= r, in {1 + 1e-6, 1e10}."""
    r = draw(MAGNITUDES)
    frac = draw(st.sampled_from([0.0, 1.0 - 1e-12, 1.0, 1.0 + 1e-6, 1e10])
                | st.floats(0.0, 1.0))
    return ["--sigma-x2", repr(draw(MAGNITUDES)), "--rho", repr(frac * math.sqrt(r)),
            "--r", repr(r)]


@st.composite
def scalar_argvs(draw):
    """argv of solve, tradeoff or rate."""
    model = model_flags(draw)
    channel = ["--pt", repr(draw(MAGNITUDES)), "--sigma-z2", repr(draw(MAGNITUDES))]
    command = draw(st.sampled_from(["solve", "tradeoff", "rate"]))
    if command == "rate":
        noises = draw(st.lists(MAGNITUDES, min_size=1, max_size=3))
        return ["rate", *model, "--dp", repr(draw(MAGNITUDES)),
                "--noise-grid", ",".join(map(repr, noises))]
    if command == "tradeoff":
        setting = draw(st.sampled_from(["simple", "channel"]))
        argv = ["tradeoff", "--setting", setting, *model, "--grid", "5"]
    else:
        setting = draw(st.sampled_from(["simple", "compression", "channel"]))
        argv = ["solve", "--setting", setting, *model, "--dp", repr(draw(MAGNITUDES))]
        if setting == "compression":
            argv += ["--sigma-n2", repr(draw(MAGNITUDES))]
    return argv + channel if setting == "channel" else argv


#: Messages of argparse's own errors.  A property test whose argv the parser
#: refuses exits 1 without running its command, so it must never see one.
PARSER_ERRORS = ("unrecognized arguments", "the following arguments are required")


def assert_one_error_line(out, err):
    """Exit 1 of a command that ran: no output and one ``error:`` line, not the parser's."""
    assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: ")
    assert not any(message in err for message in PARSER_ERRORS), err


@settings(derandomize=True, max_examples=200, deadline=None)
@given(scalar_argvs())
def test_scalar_commands_answer_finitely_or_exit_1(argv):
    code, out, err = run(argv)  # an exception escaping main fails the test
    assert code in (0, 1)
    if code == 1:
        assert_one_error_line(out, err)
    else:
        assert err == "" and "nan" not in out and "inf" not in out


@st.composite
def oracle_argvs(draw):
    """argv of verify or scan (on its default grid of 3)."""
    model = model_flags(draw)
    if draw(st.booleans()):
        lams = draw(st.none() | st.lists(MAGNITUDES | st.just(0.0), min_size=1, max_size=3))
        if lams is None:
            return ["scan", *model, "--lambda-count", "3"]
        return ["scan", *model, "--lambdas", ",".join(map(repr, lams))]
    setting = draw(st.sampled_from(["simple", "compression", "channel"]))
    argv = ["verify", "--setting", setting, *model, "--dp", repr(draw(MAGNITUDES))]
    if setting == "compression":
        argv += ["--sigma-n2", repr(draw(MAGNITUDES))]
    if setting == "channel":
        argv += ["--pt", repr(draw(MAGNITUDES)), "--sigma-z2", repr(draw(MAGNITUDES))]
    return argv


@settings(derandomize=True, max_examples=200, deadline=None)
@given(oracle_argvs())
def test_oracle_commands_answer_finitely_or_exit_1(argv):
    # pytest collects warnings before they reach stderr: make them errors
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(argv)
    assert code in ((0, 1, 2) if argv[0] == "verify" else (0, 1))
    if code == 1:
        assert_one_error_line(out, err)
    else:
        assert err == "" and "nan" not in out and "inf" not in out


@st.composite
def simulate_argvs(draw):
    """argv of simulate at 64 samples."""
    setting = draw(st.sampled_from(["simple", "compression", "channel"]))
    argv = ["simulate", "--setting", setting, *model_flags(draw),
            "--dp", repr(draw(MAGNITUDES)), "--samples", "64"]
    if setting == "compression":
        argv += ["--sigma-n2", repr(draw(MAGNITUDES))]
    if setting == "channel":
        argv += ["--pt", repr(draw(MAGNITUDES)), "--sigma-z2", repr(draw(MAGNITUDES))]
    return argv


@settings(derandomize=True, max_examples=200, deadline=None)
@given(simulate_argvs())
def test_simulate_answers_finitely_or_exit_1(argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(argv)
    assert code in (0, 1)
    if code == 1:
        assert_one_error_line(out, err)
    else:
        assert err == "" and "nan" not in out and "inf" not in out


class TestOracleScaleRegressions:
    """Models the oracle used to fail or refuse in its own units."""

    def test_verify_large_r_passes(self):
        s2 = 2.5
        code, out, _ = run(["verify", "--setting", "simple", "--sigma-x2", repr(s2),
                            "--rho", "314572.8", "--r", "439804651110.4",
                            "--dp", "1011650697554.0"])
        assert code == 0
        assert abs(json.loads(out)["dc_gap"]) <= 1e-7 * s2

    def test_scan_small_sigma_x2_lands_on_frontier(self):
        from privcomm import solve_setting1, validate_model

        s2 = 9.5367431640625e-07
        code, out, _ = run(["scan", "--sigma-x2", repr(s2), "--rho", "0.6", "--r", "1",
                            "--lambdas", "1"])
        assert code == 0
        lam, alpha, noise_var, d_p, d_c = map(float, out.splitlines()[1].split(","))
        frontier = solve_setting1(validate_model(s2, 0.6, 1.0), d_p)
        assert abs(d_c - frontier.d_c) <= 1e-7 * s2

    # rho/sqrt(r) rounds to 1: the canonical model is degenerate
    @pytest.mark.parametrize("argv", [
        ["verify", "--setting", "simple", "--dp", "1e300"],
        ["scan"],
    ], ids=["verify", "scan"])
    def test_rounded_degenerate_model_exits_1(self, argv):
        code, out, err = run([*argv, "--sigma-x2", "1", "--rho", "1e150", "--r", "1e300"])
        assert code == 1 and out == ""
        (line,) = err.splitlines()
        assert line.startswith("error: degenerate model rho^2 = r")

    # rho^2 = r*(1 + 1e-12) passes validation, but (rho/sqrt(r))^2 exceeds 1 + 1e-12
    AT_BOUND = ["--sigma-x2", "1", "--rho", "16.528923604462967", "--r", "273.2053155218998"]

    def test_free_floor_above_correlation_bound(self):
        # rho^2 = r + 8e-13 passes validation and answers as the degenerate model does
        code, out, err = run(["solve", "--setting", "simple", "--sigma-x2", "1",
                              "--rho", "1.0000000000004", "--r", "1", "--dp", "0"])
        assert (code, err) == (0, "")
        assert out == run(["solve", "--setting", "simple", "--sigma-x2", "1",
                           "--rho", "1", "--r", "1", "--dp", "0"])[1]

    def test_compression_free_floor_above_correlation_bound(self):
        # rho^2 = r + 8e-13 is projected onto rho^2 = r: at sigma_n2 = 1e-20 the free
        # floor is r*n/(1 + n) > 0, and the answer is the projected model's, typed
        argv = ["solve", "--setting", "compression", "--sigma-x2", "1", "--rho",
                "1.0000000000004", "--dp", "0", "--sigma-n2", "1e-20"]
        code, out, err = run([*argv, "--r", "1"])
        assert (code, err) == (0, "")
        sol, r = json.loads(out), 1.0000000000004**2
        assert (sol["alpha"], sol["d_p"], sol["constraint_active"]) == (
            0.0, r * 1e-20 / (1.0 + 1e-20), False)
        assert out == run([*argv, "--r", repr(r)])[1]

    @pytest.mark.parametrize("argv", [
        ["--setting", "simple", "--dp", "0.01"],
        ["--setting", "compression", "--dp", "0.008", "--sigma-n2", "1"],
        ["--setting", "channel", "--dp", "0.005", "--pt", "1", "--sigma-z2", "1"],
    ], ids=["simple", "compression", "channel"])
    def test_typed_boundary_model_solves_as_its_projection(self, argv):
        # 0.1*0.1 rounds above 0.01: the model is admitted as rho^2 = r = 0.1**2, and
        # answers the simple endpoint, a compression interior target and the channel floor
        code, out, err = run(["solve", *argv, "--sigma-x2", "1", "--rho", "0.1",
                              "--r", "0.01"])
        assert (code, err) == (0, "")
        assert out == run(["solve", *argv, "--sigma-x2", "1", "--rho", "0.1",
                           "--r", repr(0.1**2)])[1]

    @pytest.mark.parametrize("argv", [
        ["solve", "--setting", "compression", "--sigma-n2", "1e-20"],
        ["rate", "--noise-grid", "1e-20,1"],
        ["verify", "--setting", "compression", "--sigma-n2", "1e-20"],
        ["simulate", "--setting", "compression", "--sigma-n2", "1e-20"],
    ], ids=["solve", "rate", "verify", "simulate"])
    def test_compression_without_real_root_exits_1(self, argv):
        # rho^2 = r*(1 + 8e-13) is projected onto rho^2 = r, whose quadratic has a real
        # root at n = 1e-20; rounding near -rho/r makes D_P miss the target
        code, out, err = run([*argv, "--sigma-x2", "1", "--rho", "1.0000000000004",
                              "--r", "1", "--dp", "0.1"])
        assert code == 1 and out == ""
        r = repr(1.0000000000004**2)
        (line,) = err.splitlines()
        assert line.startswith(f"error: degenerate model rho^2 = r ({r} vs {r}): rounding "
                               f"misses the privacy target 0.1: d_p = ")

    def test_model_at_correlation_bound(self):
        code, out, _ = run(["verify", "--setting", "compression", *self.AT_BOUND,
                            "--dp", "200", "--sigma-n2", "1"])
        assert code == 0 and json.loads(out)["passed"] is True
        code, out, err = run(["scan", *self.AT_BOUND])
        assert code == 1 and out == ""
        assert err.startswith("error: degenerate model rho^2 = r")

    def test_scan_without_theta(self):
        code, out, err = run(["scan", "--sigma-x2", "2", "--rho", "0", "--r", "0",
                              "--lambdas", "0,1,1e300"])
        assert code == 0 and err == ""
        rows = [list(map(float, line.split(","))) for line in out.splitlines()[1:]]
        assert [row[0] for row in rows] == [0.0, 1.0, 1e300]
        assert all(row[3] == 0.0 and abs(row[1]) <= 1e-6 for row in rows)

    @pytest.mark.parametrize("setting, extra", [
        ("simple", []),
        ("compression", ["--sigma-n2", "0.5"]),
        ("channel", ["--pt", "1", "--sigma-z2", "1"]),
    ])
    def test_verify_rho_zero_passes(self, setting, extra):
        code, out, _ = run(["verify", "--setting", setting, "--sigma-x2", "3", "--rho", "0",
                            "--r", "0.5", "--dp", "1.5", *extra])
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True and doc["oracle"]["alpha"] == 0.0

    @pytest.mark.parametrize("argv, message", [
        (["--setting", "compression", "--sigma-x2", "8.099323166262594e+202",
          "--rho", "1.96931240054113e-140", "--r", "3.878191330925069e-280",
          "--dp", "3.5646286703345157e-196", "--sigma-n2", "3.5646286703345157e-196"],
         "compression search requires 0 < sigma_n2/sigma_x2 < inf"),
        (["--setting", "compression", "--sigma-x2", "2.366e-320", "--rho", "0.0794",
          "--r", "1.1832", "--dp", "2.366e-320", "--sigma-n2", "1.1832"],
         # the solve refuses sigma_n2/sigma_x2 = inf before the oracle runs
         "the compression floor overflows a float at sigma_n2=1.1832"),
        (["--setting", "channel", "--sigma-x2", "1", "--rho", "0.75", "--r", "1",
          "--dp", "0.99997", "--pt", "5.88e-89", "--sigma-z2", "8.68e246"],
         "the oracle cannot resolve a channel with sigma_z2/P_T = inf"),
    ], ids=["noise-underflows", "noise-overflows", "channel-noise-overflows"])
    def test_noise_beyond_the_float_range_exits_1(self, argv, message):
        # the canonical noise sigma_n2/sigma_x2 or sigma_z2/P_T leaves the float range
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(["verify", *argv])
        assert code == 1 and out == ""
        (line,) = err.splitlines()
        assert line.startswith(f"error: {message}")

    def test_scan_multiplier_overflowing_r_exits_1(self):
        code, out, err = run(["scan", "--sigma-x2", "1e-300", "--rho", "5e99",
                              "--r", "1e200", "--lambdas", "1e200"])
        assert code == 1 and out == ""
        assert err == ("error: lam=1e+200 is too large to resolve its frontier point in "
                       "floating point: lam*r overflows\n")


#: Output fields that are variances (or distortions, or their standard errors).
VARIANCES = {"d_c", "d_p", "noise_var", "sigma_n2", "dc_gap", "noise_at_optimum", "d_c_hat",
             "d_p_hat", "d_p_hat_regression", "power_hat", "stderr_dc", "stderr_dp"}


def output_fields(command, out):
    """{field: value} of a command's output: JSON leaves by path, CSV cells by (column, row)."""
    if command in ("tradeoff", "rate", "scan"):
        header, *rows = out.splitlines()
        return {(name, i): float(v) for i, row in enumerate(rows)
                for name, v in zip(header.split(","), row.split(","))}

    def leaves(doc, path=()):
        for key, value in doc.items():
            if isinstance(value, dict):
                yield from leaves(value, (*path, key))
            else:
                yield (*path, key), value

    return dict(leaves(json.loads(out)))


def flag_values(argv, flags, factor):
    """argv with each value of ``flags`` multiplied by ``factor``."""
    out = list(argv)
    for i, arg in enumerate(argv[:-1]):
        if arg in flags:
            out[i + 1] = ",".join(repr(float(v) * factor) for v in argv[i + 1].split(","))
    return out


@st.composite
def scalable_argvs(draw, commands):
    """argv over benchmark-style models (sigma_x2 in [0.1, 10], r in [0.05, 4])."""
    s2, r = draw(st.floats(0.1, 10.0)), draw(st.floats(0.05, 4.0))
    rho = draw(st.floats(0.05, 0.99)) * math.sqrt(r)
    target = s2 * (r - rho**2 * draw(st.floats(0.05, 0.95)))
    model = ["--sigma-x2", repr(s2), "--rho", repr(rho), "--r", repr(r)]
    noise, p_t, sigma_z2 = (repr(s2 * draw(st.floats(0.1, 2.0))) for _ in range(3))
    command = draw(st.sampled_from(commands))
    if command == "rate":
        more_noise = repr(s2 * draw(st.floats(2.5, 4.0)))
        return ["rate", *model, "--dp", repr(target), "--noise-grid", f"{noise},{more_noise}"]
    if command == "scan":
        return ["scan", *model, "--lambda-count", "3"]
    setting = draw(st.sampled_from(["simple", "compression", "channel"]))
    if command == "tradeoff":
        argv = ["tradeoff", "--setting", "simple" if setting == "compression" else setting,
                *model, "--grid", "5"]
    else:
        argv = [command, "--setting", setting, *model, "--dp", repr(target)]
        argv += ["--samples", "1000"] if command == "simulate" else []
        argv += ["--sigma-n2", noise] if setting == "compression" else []
    if "channel" in argv:
        argv += ["--pt", p_t, "--sigma-z2", sigma_z2]
    return argv


@settings(derandomize=True, max_examples=60, deadline=None)
@given(scalable_argvs(["solve", "tradeoff", "rate", "verify", "scan", "simulate"]),
       st.sampled_from([-40, -10, 10, 40]))
def test_sigma_x2_scaling_scales_every_variance_exactly(argv, k):
    if argv[0] == "simulate":  # sigma_x must scale exactly too
        k = 5 if k > 0 else -5
        factor = 4.0**k
    else:
        factor = 2.0**k
    scaled = flag_values(argv, {"--sigma-x2", "--dp", "--sigma-n2", "--pt", "--sigma-z2",
                                "--noise-grid"}, factor)
    code, out, _ = run(argv)
    code_k, out_k, _ = run(scaled)
    assert code_k == code and code in (0, 2)
    base, fields = output_fields(argv[0], out), output_fields(argv[0], out_k)
    assert fields.keys() == base.keys()
    for key, value in base.items():
        name = key[-1] if isinstance(key[-1], str) else key[0]
        if name in VARIANCES:
            assert fields[key] == value * factor, key
        elif name == "entropy_hat":  # 0.5*log(2*pi*e*mmse) shifts by 0.5*log(factor)
            assert fields[key] == pytest.approx(value + 0.5 * math.log(factor), abs=1e-12)
        else:
            assert fields[key] == value, key


def within_ulps(a, b, n=2):
    return abs(a - b) <= n * math.ulp(max(abs(a), abs(b)))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(scalable_argvs(["solve", "tradeoff", "rate", "verify", "scan"]),
       st.sampled_from([-20, -10, 10, 20]))
def test_theta_scaling_maps_alpha_dp_and_lambda(argv, k):
    # theta -> 2^k*theta: r -> 4^k*r, rho -> 2^k*rho, D_P -> 4^k*D_P,
    # alpha -> alpha/2^k and lambda -> lambda/4^k; everything else stays
    scaled = flag_values(flag_values(argv, {"--r", "--dp"}, 4.0**k), {"--rho"}, 2.0**k)
    code, out, _ = run(argv)
    code_k, out_k, _ = run(scaled)
    assert code_k == code and code in (0, 2)
    base, fields = output_fields(argv[0], out), output_fields(argv[0], out_k)
    assert fields.keys() == base.keys()
    factors = {"d_p": 4.0**k, "alpha": 2.0**-k, "lambda": 4.0**-k}
    for key, value in base.items():
        name = key[-1] if isinstance(key[-1], str) else key[0]
        if name == "dc_gap":  # a difference of two D_C, each within 2 ulp
            d_c = base[("closed_form", "d_c")]
            assert abs(fields[key] - value) <= 4 * math.ulp(d_c), key
        elif isinstance(value, float):
            assert within_ulps(fields[key] / factors.get(name, 1.0), value), key
        else:
            assert fields[key] == value, key


class TestVerifyExitCodes:
    SETTING_FLAGS = {"simple": [], "compression": ["--sigma-n2", "0.7"],
                     "channel": ["--pt", "1", "--sigma-z2", "1"]}

    @pytest.mark.parametrize("setting", SETTING_FLAGS)
    def test_target_within_endpoint_tolerance_passes(self, setting):
        # 1 + 1e-12 is dp_max * (1 + ENDPOINT_RTOL): the solvers snap it onto max privacy
        code, out, err = run(["verify", "--setting", setting, *MODEL_FLAGS,
                              "--dp", "1.000000000001", *self.SETTING_FLAGS[setting]])
        assert (code, err) == (0, "")
        assert json.loads(out)["passed"] is True

    @pytest.mark.parametrize("setting", SETTING_FLAGS)
    def test_target_beyond_max_privacy_exits_1(self, setting):
        code, out, err = run(["verify", "--setting", setting, *MODEL_FLAGS,
                              "--dp", "1.01", *self.SETTING_FLAGS[setting]])
        assert code == 1 and out == ""
        assert err == "error: d_p_target=1.01 exceeds dp_max=1.0\n"

    def test_coarse_oracle_fails_with_2(self, monkeypatch):
        import privcomm.oracle

        # with the refinement cut to one step, the answer is the best grid cell,
        # which misses the closed form by more than the tolerance
        monkeypatch.setattr(privcomm.oracle, "REFINE_TOL", 1.0)
        code, out, _ = run(["verify", "--setting", "simple", *MODEL_FLAGS, "--dp", "0.84"])
        assert code == 2
        assert json.loads(out)["passed"] is False


@pytest.mark.parametrize("argv", [
    ["scan", "--lambda-count", "3"],
    ["verify", "--setting", "simple", "--dp", "0.95e-21"],
], ids=["scan", "verify"])
def test_oracle_refinement_ends_where_floats_are_sparse(argv):
    # alpha reaches ~1e10 here, where floats lie further apart than REFINE_TOL
    proc = run_process([*argv, "--sigma-x2", "1", "--rho", "1e-11", "--r", "1e-21"])
    assert proc.returncode == 0 and proc.stderr == ""
    assert "nan" not in proc.stdout and "inf" not in proc.stdout


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

    @pytest.mark.parametrize(
        "argv, lines, golden",
        [(["solve", "--setting", "simple", *MODEL_FLAGS, "--dp", "0.84"],
          ["setting = simple", "sigma-x2 = 1", "rho = 0.6", "r = 1", "dp = 0.84"],
          "solve_simple.json"),
         (["rate", "--sigma-x2", "2.5", "--rho", "0.3", "--r", "0.4", "--dp", "0.95",
           "--noise-grid", "0.05,0.5,2,8"],
          ["sigma-x2 = 2.5", "rho = 0.3", "r = 0.4", "dp = 0.95", "noise-grid = 0.05,0.5,2,8"],
          "rate_compression.csv")],
        ids=["solve-setting", "rate-noise-grid"],
    )
    def test_config_alone_supplies_every_input(self, tmp_path, argv, lines, golden):
        cfg = tmp_path / "all.cfg"
        cfg.write_text("\n".join(lines) + "\n")
        code, out, err = run([argv[0], "--config", str(cfg)])
        assert (code, err) == (0, "")
        assert out == run(argv)[1] == (GOLDEN / golden).read_text()

    @pytest.mark.parametrize(
        "argv, flag",
        [(["solve", *MODEL_FLAGS, "--dp", "0.84"], "--setting"),
         (["tradeoff", *MODEL_FLAGS], "--setting"),
         (["verify", *MODEL_FLAGS, "--dp", "0.84"], "--setting"),
         (["simulate", *MODEL_FLAGS, "--dp", "0.84"], "--setting"),
         (["rate", *MODEL_FLAGS, "--dp", "0.9"], "--noise-grid")],
        ids=["solve", "tradeoff", "verify", "simulate", "rate"],
    )
    def test_input_given_nowhere_exits_1(self, tmp_path, argv, flag):
        cfg = tmp_path / "empty.cfg"
        cfg.write_text("# no keys\n")
        for given in (argv, [*argv, "--config", str(cfg)]):
            code, out, err = run(given)
            assert (code, out) == (1, "")
            assert err == f"error: missing required {flag}\n"

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
        "line, message",
        [("bits = maybe", "bad value"), ("grid = 2.5", "bad value"), ("rho = high", "bad value"),
         ("setting = other", "bad value"), ("bogus = 1", "unknown key")],
        ids=["bits = maybe", "grid = 2.5", "rho = high", "setting = other", "bogus = 1"],
    )
    def test_bad_config_value_exits_1(self, tmp_path, line, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"sigma-x2 = 1\nrho = 0.6\nr = 1\n{line}\n")
        # rate reads --bits, tradeoff does not
        command = (["rate", "--noise-grid", "0.5"] if line.startswith("bits")
                   else ["tradeoff", "--setting", "simple"])
        code, out, err = run([*command, "--config", str(cfg)])
        assert code == 1 and out == ""
        assert err.startswith(f"error: {cfg}:4: {message}")

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
