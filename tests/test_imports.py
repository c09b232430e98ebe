"""solve, tradeoff, rate, scan and verify stay numpy-free and load neither ``dataclasses`` nor
``inspect``, and tradeoff and rate do not load ``json``; ``import privcomm`` loads
neither numpy nor the curves, oracle and Monte Carlo modules; the package binds
exactly the names listed here, and removed names stay gone."""

import importlib
import json
import os
import pathlib
import subprocess
import sys
import types

import pytest

import privcomm

#: Every public name the package root binds, apart from its submodules.
EXPORTED = (
    "ChannelSpec", "DegenerateModelError", "EncoderPolicy", "EquilibriumSolution",
    "InfeasiblePrivacyTarget", "ModelError", "PrivacyBounds", "Setting", "SolveError",
    "SourceModel", "compression_rate", "gaussian_conditional_entropy", "privacy_bounds",
    "solve_setting1", "solve_setting2", "solve_setting3", "validate_model",
)

#: Names that neither the package nor the module that defined them has any more.
REMOVED = [("montecarlo", "ProbeReport"), ("montecarlo", "decoder_optimality_probe"),
           ("montecarlo", "sample_joint"), ("equilibrium", "evaluate_setting1"),
           ("equilibrium", "xi_sign_check"), ("model", "NonPositiveVarianceError"),
           ("model", "NegativeCorrelationError"), ("model", "CorrelationBoundError"),
           ("equilibrium", "DegeneratePrivacyTarget"), ("equilibrium", "InfiniteRateError"),
           ("equilibrium", "evaluate_setting2"), ("equilibrium", "evaluate_setting3"),
           ("equilibrium", "solve_alpha_quadratic"), ("oracle", "GRID"),
           ("oracle", "BLOCK_CELLS")]

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


def run_child(*argv):
    """``python argv`` in a fresh interpreter that imports privcomm from this checkout."""
    src = str(pathlib.Path(privcomm.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True,
                          check=True)


def test_scalar_commands_never_import_numpy(tmp_path):
    cfg = tmp_path / "channel.cfg"
    cfg.write_text("sigma-x2 = 1\nrho = 0.6\nr = 1\ndp = 0.92\npt = 1\nsigma-z2 = 1\n")
    # the probe is cumulative: tradeoff and rate run before solve loads json
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
        ["verify", "--setting", "compression", *MODEL_FLAGS, "--dp", "0.92",
         "--sigma-n2", "0.7"],
        ["verify", "--setting", "simple", *MODEL_FLAGS, "--dp", "0.84"],
        ["verify", "--setting", "channel", "--config", str(cfg)],
    ]
    report = json.loads(run_child("-c", CHILD, repr(argvs)).stdout)
    assert report == [
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
        ["verify", 0, False, ["json"]],
        ["verify", 0, False, ["json"]],
        ["verify", 0, False, ["json"]],
    ]
    assert (tmp_path / "tradeoff.csv").read_text().startswith("d_p,d_c,alpha,kappa\n")


def test_import_loads_neither_numpy_nor_curves_oracle_montecarlo():
    probe = ("import sys; import privcomm; print(sorted(m for m in ('numpy', "
             "'privcomm.curves', 'privcomm.oracle', 'privcomm.montecarlo') if m in sys.modules))")
    assert run_child("-c", probe).stdout == "[]\n"


def test_every_exported_name_resolves():
    public = {name for name, value in vars(privcomm).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == set(EXPORTED)
    for name in EXPORTED:
        value = getattr(privcomm, name)
        assert value is getattr(sys.modules[value.__module__], name)


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
        getattr(importlib.import_module(f"privcomm.{module}"), name)


def test_tradeoff_curve_has_no_column_method():
    from privcomm.curves import TradeoffCurve

    assert not hasattr(TradeoffCurve, "column")
