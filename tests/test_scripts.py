"""The two scripts run end to end; the frontier CSVs are the CLI's bytes."""

import os
import pathlib
import subprocess
import sys

from privcomm.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1]
MODEL_FLAGS = ["--sigma-x2", "1", "--rho", "0.6", "--r", "1"]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env, capture_output=True, text=True, timeout=300,
    )


def test_trace_frontier_writes_the_cli_output(tmp_path):
    outdir = tmp_path / "frontier"
    proc = run_script("trace_frontier.py", "--outdir", str(outdir))
    assert proc.returncode == 0, proc.stderr
    assert "multiplier scan covers d_p in [0.6400, 0.9770]" in proc.stdout
    expected = {
        "frontier_simple.csv": ["tradeoff", "--setting", "simple", "--grid", "129"],
        "frontier_channel.csv": ["tradeoff", "--setting", "channel", "--pt", "1",
                                 "--sigma-z2", "1", "--grid", "129"],
        "frontier_scan.csv": ["scan", "--lambda-count", "17"],
    }
    for name, argv in expected.items():
        reference = tmp_path / name
        assert main([*argv, *MODEL_FLAGS, "--output", str(reference)]) == 0
        assert (outdir / name).read_bytes() == reference.read_bytes()


def test_verify_equilibria_passes():
    proc = run_script("verify_equilibria.py", "--models", "2", "--samples", "20000")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "2/2 configurations verified" in proc.stdout
