"""Per-layer metrics of a traced run, computed from its spans.

A layer is a privcomm module; ``import`` is interpreter start plus
``import privcomm`` (in the cli workload's children) and ``harness`` is the
benchmark's own op spans and the loop around them, so the layers' self times
add up to the traced wall time.  Counts cover round 0 only, whose inputs the
seed fixes, so they repeat exactly; times cover every traced round.  A layer
a workload does not use reads 0.
"""

from __future__ import annotations

import numpy as np

import spans

SOLVES = ("equilibrium.solve_setting1", "equilibrium.solve_setting2",
          "equilibrium.solve_setting3")
EVALUATES = ("equilibrium.evaluate_setting1", "equilibrium.evaluate_setting2",
             "equilibrium.evaluate_setting3", "equilibrium.second_order_dc_dp")
SWEEPS = ("curves.sweep_privacy_distortion", "curves.sweep_rate_distortion")
DC_DP = "equilibrium.second_order_dc_dp"
CLI_SUBCOMMANDS = ("solve", "tradeoff", "rate", "verify", "simulate", "scan")
LAYER_NAMES = ("model", "equilibrium", "curves", "oracle", "montecarlo", "cli", "import")

PER_LAYER_UNITS = {"_calls": "count", "_us_p50": "us", "_ms_p50": "ms", "_ms": "ms",
                   "_frac": "ratio", "per_solve": "count", "per_inversion": "count",
                   "per_point": "us", "per_sample": "ns", "bytes_computed": "B",
                   "grid_cells": "count", "points": "count", "samples": "count"}


def unit_of(metric):
    for suffix, unit in PER_LAYER_UNITS.items():
        if metric.endswith(suffix):
            return unit
    raise KeyError(metric)


def per_layer(tracer, harness, wall, untraced_wall, imports):
    """{metric: (value, unit)} for the traced pass of ``wall`` seconds.

    ``untraced_wall`` is the same rounds run untraced; ``imports`` holds the
    import.* figures of the fresh-start probes.
    """
    arr = tracer.arrays()
    names = np.array(tracer.names + [""], dtype=object)
    name = names[arr["name"]]
    parent_name = names[np.where(arr["parent"] >= 0, arr["name"][arr["parent"]], -1)]
    op_round = np.array(harness.op_round + [-1])
    r0 = op_round[arr["op"]] == 0
    op_label = np.array(harness.op_label + [""], dtype=object)[arr["op"]]
    a = spans.analyse(arr, tracer.names)
    self_s, dur = a["self"], a["dur"]

    def isin(values):
        return np.isin(name, values)

    def count(mask):
        return float(np.count_nonzero(mask & r0))

    def med(values, scale):
        return float(np.median(values)) * scale if len(values) else 0.0

    def ratio(num, den):
        return float(num) / float(den) if den else 0.0

    validate = name == "model.validate_model"
    solve, evaluate, sweep = isin(SOLVES), isin(EVALUATES), isin(SWEEPS)
    dc_dp = name == DC_DP
    inversion = name == "curves.noise_for_rate"
    verify = name == "oracle.verify_equilibrium"
    grid = name == "oracle.grid_search"
    scan = name == "oracle.lagrangian_scan"
    simulate = name == "montecarlo.simulate_policy"
    under_grid = dc_dp & (parent_name == "oracle.grid_search")
    m = {
        "model.validate_calls": count(validate),
        "model.validate_us_p50": med(self_s[validate], 1e6),
        "equilibrium.solve_calls": count(solve),
        "equilibrium.solve_self_us_p50": med(self_s[solve], 1e6),
        "equilibrium.evaluate_calls": count(evaluate),
        "equilibrium.evaluate_self_us_p50": med(self_s[evaluate], 1e6),
        "equilibrium.dc_dp_calls_per_solve":
            ratio(count(dc_dp & np.isin(parent_name, SOLVES)), count(solve)),
        "curves.sweep_calls": count(sweep),
        "curves.points": float(arr["work"][sweep & r0].sum()),
        "curves.sweep_self_us_per_point":
            ratio(self_s[sweep].sum() * 1e6, arr["work"][sweep].sum()),
        "curves.solves_per_inversion":
            ratio(count(solve & (parent_name == "curves.noise_for_rate")), count(inversion)),
        "oracle.verify_calls": count(verify),
        "oracle.grid_search_self_ms_p50": med(self_s[grid], 1e3),
        "oracle.grid_cells": float(arr["work"][under_grid & (arr["work"] > 1) & r0].sum()),
        "oracle.refine_dc_dp_calls": count(under_grid & (arr["work"] == 1)),
        "oracle.verify_passed_frac": ratio(arr["work"][verify & r0].sum(), count(verify)),
        "oracle.scan_self_ms_p50": med(self_s[scan], 1e3),
        "oracle.scan_dc_dp_calls": count(dc_dp & (parent_name == "oracle.lagrangian_scan")),
        "montecarlo.simulate_calls": count(simulate),
        "montecarlo.samples": float(arr["work"][simulate & r0].sum()),
        "montecarlo.ns_per_sample":
            ratio(self_s[simulate].sum() * 1e9, arr["work"][simulate].sum()),
        "montecarlo.bytes_computed": float(arr["work2"][simulate & r0].sum()),
    }
    main = name == "cli.main"
    for sub in CLI_SUBCOMMANDS:
        m[f"cli.{sub}_ms_p50"] = med(dur[main & (op_label == sub)], 1e3)
    m.update(imports)
    layer_self = {layer: float(self_s[a["layer"] == layer].sum()) * 1e3
                  for layer in LAYER_NAMES}
    for layer in LAYER_NAMES:
        m[f"{layer}.self_ms"] = layer_self[layer]
    # harness time: its op spans' self time plus the loop between them
    root = arr["parent"] < 0
    harness_ms = (self_s[a["layer"] == "harness"].sum() + wall - dur[root].sum()) * 1e3
    m["harness.self_ms"] = float(harness_ms)
    m["trace.wall_ms"] = wall * 1e3
    m["trace_overhead_frac"] = wall / untraced_wall - 1.0
    return {k: (v, unit_of(k)) for k, v in m.items()}
