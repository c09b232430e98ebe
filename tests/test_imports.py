"""solve, tradeoff, rate and scan stay numpy-free and load neither ``dataclasses`` nor
``inspect``, and tradeoff and rate do not load ``json``; the package exports
exactly the names listed here, and removed names stay gone."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import privcomm

#: Every public name ``privcomm`` exports, eagerly or on first access.
EXPORTED = (
    "ChannelSpec", "CorrelationBoundError", "DegenerateModelError", "DegeneratePrivacyTarget",
    "EncoderPolicy", "EquilibriumSolution", "InfeasiblePrivacyTarget", "InfiniteRateError",
    "ModelError", "NegativeCorrelationError", "NonPositiveVarianceError",
    "OracleOptimum", "PrivacyBounds", "Setting", "SimConfig", "SimResult",
    "SolveError", "SourceModel", "TradeoffCurve", "VerificationReport",
    "covariance_evaluate", "curves",
    "equilibrium", "evaluate_setting2", "evaluate_setting3",
    "gaussian_conditional_entropy", "grid_search", "lagrangian_scan",
    "model", "montecarlo", "noise_for_rate", "oracle",
    "privacy_bounds", "privacy_floor", "simulate_policy",
    "solve_alpha_quadratic", "solve_setting1", "solve_setting2", "solve_setting3",
    "sweep_privacy_distortion", "sweep_rate_distortion", "validate_model",
    "verify_equilibrium",
)

#: Names that neither the package nor the module that defined them has any more.
REMOVED = [("montecarlo", "ProbeReport"), ("montecarlo", "decoder_optimality_probe"),
           ("montecarlo", "sample_joint"), ("equilibrium", "evaluate_setting1"),
           ("equilibrium", "xi_sign_check")]

# Runs cli.main on each argv in one fresh interpreter and reports, after each
# call, its exit status, whether numpy has been imported so far, and which of
# dataclasses, inspect and json have been imported since before privcomm.cli
# was (so a module that site loads does not count).  The argv list arrives as
# a Python literal, and json is imported only after the last call, so that
# the child itself loads none of the three.
CHILD = """
import contextlib, io, sys
before = set(sys.modules)
from privcomm.cli import main
report = []
for argv in eval(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    loaded = sorted({"dataclasses", "inspect", "json"} & (set(sys.modules) - before))
    report.append([argv[0], code, "numpy" in sys.modules, loaded])
import json
print(json.dumps(report))
"""

MODEL_FLAGS = ["--sigma-x2", "1", "--rho", "0.6", "--r", "1"]


def test_scalar_commands_never_import_numpy(tmp_path):
    cfg = tmp_path / "channel.cfg"
    cfg.write_text("sigma-x2 = 1\nrho = 0.6\nr = 1\ndp = 0.92\npt = 1\nsigma-z2 = 1\n")
    # the probe is cumulative: tradeoff and rate run before solve loads json,
    # and verify runs last, since it must see numpy once loaded
    argvs = [
        ["tradeoff", "--setting", "simple", *MODEL_FLAGS, "--grid", "3"],
        ["tradeoff", "--setting", "channel", *MODEL_FLAGS, "--pt", "1", "--sigma-z2", "1",
         "--output", str(tmp_path / "tradeoff.csv")],
        ["rate", *MODEL_FLAGS, "--dp", "0.9", "--noise-grid", "0.25,0.5,1", "--bits"],
        ["tradeoff", "--setting", "simple", *MODEL_FLAGS, "--grid", "2"],
        ["solve", "--setting", "simple", *MODEL_FLAGS, "--dp", "0.84"],
        ["solve", "--setting", "compression", *MODEL_FLAGS, "--dp", "0.9",
         "--sigma-n2", "0.5", "--bits"],
        ["solve", "--setting", "channel", "--config", str(cfg)],
        ["solve", "--setting", "simple", *MODEL_FLAGS, "--dp", "1.5"],
        ["scan", *MODEL_FLAGS, "--lambdas", "1"],
        ["scan", *MODEL_FLAGS],
        ["verify", "--setting", "simple", *MODEL_FLAGS, "--dp", "0.84"],
    ]
    src = str(pathlib.Path(privcomm.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, repr(argvs)],
        env=env, capture_output=True, text=True, check=True,
    )
    report = json.loads(proc.stdout)
    assert report[:-1] == [
        ["tradeoff", 0, False, []],
        ["tradeoff", 0, False, []],
        ["rate", 0, False, []],
        ["tradeoff", 0, False, []],
        ["solve", 0, False, ["json"]],
        ["solve", 0, False, ["json"]],
        ["solve", 0, False, ["json"]],
        ["solve", 1, False, ["json"]],
        ["scan", 0, False, ["json"]],
        ["scan", 0, False, ["json"]],
    ]
    assert report[-1][:3] == ["verify", 0, True]
    assert (tmp_path / "tradeoff.csv").read_text().startswith("d_p,d_c,alpha,kappa\n")


def test_every_exported_name_resolves():
    import privcomm.curves
    import privcomm.montecarlo
    import privcomm.oracle

    for name in EXPORTED:
        value = getattr(privcomm, name)
        owner = getattr(value, "__module__", None)
        if owner in ("privcomm.curves", "privcomm.montecarlo", "privcomm.oracle"):
            assert value is getattr(sys.modules[owner], name)
    assert set(privcomm.__all__) == set(EXPORTED)
    assert set(EXPORTED) <= set(dir(privcomm))


def test_star_import():
    namespace = {}
    exec("from privcomm import *", namespace)
    assert set(EXPORTED) <= set(namespace)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        privcomm.no_such_name


@pytest.mark.parametrize("module, name", REMOVED)
def test_removed_name_raises_attribute_error(module, name):
    with pytest.raises(AttributeError, match=name):
        getattr(privcomm, name)
    with pytest.raises(AttributeError, match=name):
        getattr(getattr(privcomm, module), name)


def test_tradeoff_curve_has_no_column_method():
    assert not hasattr(privcomm.TradeoffCurve, "column")
