"""Command-line front end: solve, sweep, verify, simulate and scan.

Single results are emitted as JSON, curves as CSV with fixed headers; all
numeric output uses shortest-round-trip decimal formatting so identical
inputs produce byte-identical files.  Exit codes: 0 success, 1 invalid or
infeasible input, 2 verification failure (verify command only).

Relative ``--output`` paths are resolved against the ``PRIVCOMM_OUTPUT_DIR``
environment variable when it is set.

Each subcommand imports the modules it uses.  Every subcommand but
``simulate``, which loads numpy through ``montecarlo``, runs without it.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .equilibrium import (
    ChannelSpec,
    Setting,
    compression_rate,
    solve_setting1,
    solve_setting2,
    solve_setting3,
)
from .model import require_memory, validate_model

OUTPUT_DIR_ENV = "PRIVCOMM_OUTPUT_DIR"

NATS_PER_BIT = math.log(2.0)

#: Bytes that ``tradeoff`` and ``scan`` hold per CSV row, rounded up from
#: tracemalloc peaks of ~470 (tradeoff) and ~590 (scan).
BYTES_PER_ROW = 640

#: Config-file values of a ``store_true`` flag (case-insensitive).
_BOOLEANS = {"true": True, "false": False}


class CliError(Exception):
    """Raised for bad flags/combinations; mapped to exit status 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); keep exit codes ours
        raise CliError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="privcomm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    parser.subcommands = sub.choices

    def add_common(p, *reads):
        """The config, model and output flags, plus the optional groups in ``reads``:
        "dp", "sigma_n2", "channel" (--pt, --sigma-z2) and "bits"."""
        p.add_argument("--config", help="flat key=value config file; flags override")
        p.add_argument("--sigma-x2", type=float, help="variance of X")
        p.add_argument("--rho", type=float, help="normalized cross-correlation")
        p.add_argument("--r", type=float, help="normalized variance of theta")
        if "dp" in reads:
            p.add_argument("--dp", type=float, help="privacy MMSE target")
        if "sigma_n2" in reads:
            p.add_argument("--sigma-n2", type=float, help="test-channel noise (compression)")
        if "channel" in reads:
            p.add_argument("--pt", type=float, help="transmit power budget (channel)")
            p.add_argument("--sigma-z2", type=float, help="channel noise variance")
        p.add_argument("--output", help="output path; stdout when omitted")
        if "bits" in reads:
            p.add_argument("--bits", action="store_true", help="report rates/entropies in bits")

    settings = [s.value for s in Setting]
    p = sub.add_parser("solve", help="single equilibrium solution (JSON)")
    p.add_argument("--setting", choices=settings)
    add_common(p, "dp", "sigma_n2", "channel", "bits")

    p = sub.add_parser("tradeoff", help="privacy-distortion curve (CSV)")
    p.add_argument("--setting", choices=["simple", "channel"])
    add_common(p, "channel")
    p.add_argument("--grid", type=int, default=65, help="number of curve samples")

    p = sub.add_parser("rate", help="rate-distortion sweep at fixed privacy (CSV)")
    add_common(p, "dp", "bits")
    p.add_argument("--noise-grid", help="comma-separated sigma_n2 values")

    p = sub.add_parser("verify", help="brute-force oracle verification (JSON)")
    p.add_argument("--setting", choices=settings)
    add_common(p, "dp", "sigma_n2", "channel")

    p = sub.add_parser("simulate", help="Monte Carlo check of a solved equilibrium (JSON)")
    p.add_argument("--setting", choices=settings)
    add_common(p, "dp", "sigma_n2", "channel", "bits")
    p.add_argument("--samples", type=int, default=1_000_000,
                   help="number of Monte Carlo samples; the signal chain holds 24 bytes each")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("scan", help="Lagrange-multiplier frontier scan (CSV)")
    add_common(p)
    p.add_argument("--lambdas", help="comma-separated finite multipliers >= 0")
    p.add_argument("--lambda-count", type=int, default=9,
                   help="size of the grid on [0, 1/rho^2] when --lambdas is omitted")
    return parser


def _read_config(path: str, subparser: _Parser) -> dict:
    """Values of a flat key=value config file, keyed by flag destination.

    Each value is coerced like its flag on the command line: by the action's
    ``type`` and ``choices``, and as a boolean for a ``store_true`` flag.
    """
    actions = {a.dest: a for a in subparser._actions if a.dest != "help"}
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise CliError(f"cannot read config file: {exc}")
    values = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        action = actions.get(key.replace("-", ".").replace(".", "_"))
        if action is None:
            raise CliError(f"{path}:{lineno}: unknown key {key!r}")
        if action.nargs == 0:  # a store_true flag
            coerced = _BOOLEANS.get(value.lower())
        else:
            try:
                coerced = (action.type or str)(value)
            except ValueError:
                coerced = None
            if action.choices is not None and coerced not in action.choices:
                coerced = None
        if coerced is None:
            raise CliError(f"{path}:{lineno}: bad value for {key!r}: {value!r}")
        values[action.dest] = coerced
    return values


def _inputs(args):
    """(model, setting, channel) of a command, once every input it needs is given.

    The model flags are always needed, and --setting, --dp and --noise-grid
    by every command that declares them; a flag or a config key can give
    each.  Compression needs --sigma-n2, and the channel --pt with
    --sigma-z2.  ``setting`` is ``None`` for a command without --setting,
    and ``channel`` is ``None`` outside the channel setting.
    """
    for name in ("sigma_x2", "rho", "r"):
        if getattr(args, name) is None:
            raise CliError(f"missing required model parameter --{name.replace('_', '-')}")
    for name in ("setting", "dp", "noise_grid"):
        if name in args and getattr(args, name) is None:
            raise CliError(f"missing required --{name.replace('_', '-')}")
    setting = Setting(args.setting) if "setting" in args else None
    if setting is Setting.COMPRESSION and args.sigma_n2 is None:
        raise CliError("compression setting requires --sigma-n2")
    if setting is Setting.CHANNEL and (args.pt is None or args.sigma_z2 is None):
        raise CliError("channel setting requires --pt and --sigma-z2")
    model = validate_model(args.sigma_x2, args.rho, args.r)
    if setting is not Setting.CHANNEL:
        return model, setting, None
    return model, setting, ChannelSpec(p_t=args.pt, sigma_z2=args.sigma_z2)


def _floats(text: str, flag: str, item: str) -> list:
    """The values of a comma-separated flag; a bad value or an empty list is refused."""
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise CliError(f"bad {flag} value: {text!r}")
    if not values:
        raise CliError(f"{flag} lists no {item}: {text!r}")
    return values


def _resolve_output(path: str) -> str:
    base = os.environ.get(OUTPUT_DIR_ENV)
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _emit(text: str, args) -> None:
    if getattr(args, "output", None):
        path = _resolve_output(args.output)
        try:
            with open(path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliError(f"cannot write output: {exc}")
    else:
        sys.stdout.write(text)


def _csv(columns, rows) -> str:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def _json(obj) -> str:
    import json  # only solve, verify and simulate emit JSON

    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _solution_dict(setting: Setting, sol, rate=None, bits=False) -> dict:
    out = {
        "setting": setting.value,
        "alpha": sol.policy.alpha,
        "beta": sol.policy.beta,
        "noise_var": sol.policy.noise_var,
        "kappa": sol.kappa,
        "d_c": sol.d_c,
        "d_p": sol.d_p,
        "constraint_active": sol.constraint_active,
    }
    if rate is not None:
        out["rate"] = rate / NATS_PER_BIT if bits else rate
        out["rate_units"] = "bits" if bits else "nats"
    return out


def _solve_for(args, model, setting, channel):
    if setting is Setting.SIMPLE:
        return solve_setting1(model, args.dp), None
    if setting is Setting.COMPRESSION:
        sol = solve_setting2(model, args.dp, args.sigma_n2)
        return sol, compression_rate(model, sol.policy.alpha, args.sigma_n2)
    return solve_setting3(model, args.dp, channel), None


def _cmd_solve(args) -> int:
    model, setting, channel = _inputs(args)
    sol, rate = _solve_for(args, model, setting, channel)
    _emit(_json(_solution_dict(setting, sol, rate, args.bits)), args)
    return 0


def _cmd_tradeoff(args) -> int:
    from .curves import sweep_privacy_distortion

    model, setting, channel = _inputs(args)
    require_memory(BYTES_PER_ROW * args.grid, f"--grid {args.grid}")
    curve = sweep_privacy_distortion(model, setting, channel, args.grid)
    _emit(_csv(curve.columns, curve.points), args)
    return 0


def _cmd_rate(args) -> int:
    from .curves import sweep_rate_distortion

    model, _, _ = _inputs(args)
    curve = sweep_rate_distortion(model, args.dp, _floats(args.noise_grid, "--noise-grid",
                                                          "noise level"))
    rows = [
        (n, rate / NATS_PER_BIT if args.bits else rate, d_c, d_p, alpha)
        for (n, rate, d_c, d_p, alpha) in curve.points
    ]
    _emit(_csv(curve.columns, rows), args)
    return 0


def _cmd_verify(args) -> int:
    from .oracle import verify_equilibrium

    model, setting, channel = _inputs(args)
    report = verify_equilibrium(model, setting, channel, args.dp, sigma_n2=args.sigma_n2)
    payload = {
        "passed": report.passed,
        "dc_gap": report.dc_gap,
        "noise_at_optimum": report.oracle_optimum.noise_var,
        "oracle": {
            "alpha": report.oracle_optimum.alpha,
            "noise_var": report.oracle_optimum.noise_var,
            "d_c": report.oracle_optimum.d_c,
            "d_p": report.oracle_optimum.d_p,
        },
        "closed_form": _solution_dict(setting, report.closed_form),
    }
    _emit(_json(payload), args)
    return 0 if report.passed else 2


def _cmd_simulate(args) -> int:
    from .montecarlo import GENERATOR, SimConfig, simulate_policy

    model, setting, channel = _inputs(args)
    sol, rate = _solve_for(args, model, setting, channel)
    config = SimConfig(samples=args.samples, seed=args.seed, setting=setting)
    result = simulate_policy(model, sol.policy, channel, sol.kappa, config)
    entropy = result.entropy_hat / NATS_PER_BIT if args.bits else result.entropy_hat
    payload = {
        "closed_form": _solution_dict(setting, sol, rate, args.bits),
        "d_c_hat": result.d_c_hat,
        "d_p_hat": result.d_p_hat,
        "d_p_hat_regression": result.d_p_hat_regression,
        "power_hat": result.power_hat,
        "entropy_hat": entropy,
        "entropy_units": "bits" if args.bits else "nats",
        "stderr_dc": result.stderr_dc,
        "stderr_dp": result.stderr_dp,
        "samples": args.samples,
        "seed": args.seed,
        "generator": GENERATOR,
    }
    _emit(_json(payload), args)
    return 0


def _cmd_scan(args) -> int:
    from .oracle import lagrangian_scan

    model, _, _ = _inputs(args)
    if args.lambdas is not None:
        lams = _floats(args.lambdas, "--lambdas", "multiplier")
    else:
        rho2 = model.rho * model.rho
        lam_max = 1.0 / rho2 if rho2 else math.inf
        if lam_max == math.inf:
            raise CliError(f"the default grid [0, 1/rho^2] needs a finite 1/rho^2, got "
                           f"rho={model.rho!r}; pass --lambdas")
        if args.lambda_count < 2:
            raise CliError(f"--lambda-count must be >= 2, got {args.lambda_count}")
        require_memory(BYTES_PER_ROW * args.lambda_count,
                       f"--lambda-count {args.lambda_count}")
        lams = [lam_max * i / (args.lambda_count - 1) for i in range(args.lambda_count)]
    points = lagrangian_scan(model, lams)
    rows = [(p.lam, p.alpha, p.noise_var, p.d_p, p.d_c) for p in points]
    _emit(_csv(("lambda", "alpha", "noise_var", "d_p", "d_c"), rows), args)
    return 0


_COMMANDS = {
    "solve": _cmd_solve,
    "tradeoff": _cmd_tradeoff,
    "rate": _cmd_rate,
    "verify": _cmd_verify,
    "simulate": _cmd_simulate,
    "scan": _cmd_scan,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            subparser = parser.subcommands[args.command]
            subparser.set_defaults(**_read_config(args.config, subparser))
            args = parser.parse_args(argv)  # explicit flags win over the file
        return _COMMANDS[args.command](args)
    except (CliError, ValueError) as exc:  # ModelError and SolveError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_entry()
