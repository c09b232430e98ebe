#!/usr/bin/env python3
"""Trace privacy-distortion frontiers for a few representative sources.

Writes one CSV per setting plus a Lagrange-multiplier scan, and prints a
short summary of the frontier shape: endpoint values, the measured slopes,
and how many of them lie between the closed-form multiplier at the two ends
of their stencil.  Output lands in ./frontier_out by default.  The CSVs are
written by the ``privcomm`` CLI (``tradeoff`` and ``scan``), so they are the
bytes that the same commands give.

Usage:
    python3 scripts/trace_frontier.py [--outdir DIR] [--grid N]
"""

import argparse
import os

import numpy as np

from privcomm import (
    Setting,
    privacy_bounds,
    sweep_privacy_distortion,
    validate_model,
)
from privcomm.cli import main as cli_main

MODEL_FLAGS = ["--sigma-x2", "1", "--rho", "0.6", "--r", "1"]


def cli(argv, path):
    # absolute, so that PRIVCOMM_OUTPUT_DIR cannot redirect it
    if cli_main([*argv, *MODEL_FLAGS, "--output", os.path.abspath(path)]) != 0:
        raise SystemExit(f"privcomm {argv[0]} failed")
    print(f"wrote {path}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="frontier_out")
    parser.add_argument("--grid", type=int, default=129)
    args = parser.parse_args()
    os.makedirs(args.outdir, exist_ok=True)

    model = validate_model(1.0, 0.6, 1.0)
    bounds = privacy_bounds(model)
    print(f"model: sigma_x2=1 rho=0.6 r=1; d_p range [{bounds.dp_min}, {bounds.dp_max}]")

    grid = ["--grid", str(args.grid)]
    cli(["tradeoff", "--setting", "simple", *grid],
        os.path.join(args.outdir, "frontier_simple.csv"))
    cli(["tradeoff", "--setting", "channel", "--pt", "1", "--sigma-z2", "1", *grid],
        os.path.join(args.outdir, "frontier_channel.csv"))

    simple = sweep_privacy_distortion(model, Setting.SIMPLE, grid=args.grid)
    d_p, d_c, alpha = (simple.column(c) for c in ("d_p", "d_c", "alpha"))
    slopes = (d_c[2:] - d_c[:-2]) / (d_p[2:] - d_p[:-2])
    # the frontier slope is lambda*(alpha) = -alpha(1+alpha*rho)/(rho+r*alpha),
    # infinite at max privacy (alpha = -rho/r)
    den = model.rho + model.r * alpha
    with np.errstate(divide="ignore"):
        lam = np.where(den > 0.0, -alpha * (1.0 + alpha * model.rho) / den, np.inf)
    bracketed = np.count_nonzero((lam[:-2] <= slopes) & (slopes <= lam[2:]))
    print(
        f"simple frontier: d_c {d_c[0]:.4f} -> {d_c[-1]:.4f}, "
        f"slopes {slopes.min():.3f} .. {slopes.max():.3f}; "
        f"{bracketed} of {slopes.size} lie between lambda* at their stencil ends"
    )

    scan_path = os.path.join(args.outdir, "frontier_scan.csv")
    cli(["scan", "--lambda-count", "17"], scan_path)
    d_p = np.loadtxt(scan_path, delimiter=",", skiprows=1, usecols=3)
    print(
        f"multiplier scan covers d_p in [{d_p[0]:.4f}, {d_p[-1]:.4f}] "
        f"of [{bounds.dp_min}, {bounds.dp_max}]"
    )


if __name__ == "__main__":
    main()
