"""Command-line front end: predict, sweep, verify, montecarlo, optimal-gain.

Exit codes: 0 success; 2 usage/config parse errors; 3 physics rejections
(valid syntax, unbuildable experiment or a result outside floating-point
range); 4 verification failure (oracle and closed form disagree); 1 anything
else (e.g. unwritable output).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys

import numpy as np

from . import analytics, montecarlo, swap
from .config import ConfigError, ConfigFile
from .params import ExperimentParams, GainSpec

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PHYSICS = 3
EXIT_VERIFY = 4

ORACLE_TOLERANCE = 1e-9  # max relative deviation, closed form vs network

# verify --random: each draw is nine uniform values, in this column order:
# r1, r2, xi1, xi2, xi3, xi4, eta, mirror_R, g_swap (a fixed gain)
DRAW_LOW = np.array([0.0, 0.0, 0.5, 0.5, 0.5, 0.5, 0.5, 0.9, 0.0])
DRAW_HIGH = np.array([1.5, 1.5, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.5])
VERIFY_CHUNK = 512  # draws per network build; bounds memory at any --random

_EPILOG = """\
Config files are YAML. Efficiencies are quoted as intensities (xi1_sq ...
xi4_sq, eta_sq), exactly as instruments report them; square roots to
amplitude values are taken once at the parsing boundary. Squeezing is given
per beam either as the parameter r or as a dB depth below shot noise
(r = dB * ln(10) / 20). Example:

  squeezing: {r1_db: 4.9, r2_db: 5.1}
  efficiencies: {xi1_sq: 0.970, xi2_sq: 0.950, xi3_sq: 0.966, xi4_sq: 0.968, eta_sq: 0.90}
  mirror_R: 0.98
  gain: {mode: optimal}
  enl_db: 11.3
"""


def _require_config(args: argparse.Namespace) -> ConfigFile:
    if args.config is None:
        raise ConfigError("this command requires --config PATH")
    return ConfigFile.load(args.config)


def _fmt_db(v: float) -> str:
    return f"{analytics.db_from_linear(v):+.3f} dB"


def _predict_payload(params: ExperimentParams) -> dict:
    report = swap.run_experiment(params)
    payload: dict = {
        "g_swap": report.g_swap_used,
        "gain_mode": "blocked" if params.channel_blocked else params.gain.mode,
        "v_plus": report.v_plus,
        "v_minus": report.v_minus,
        "v_plus_db": report.v_plus_db,
        "v_minus_db": report.v_minus_db,
        "entangled": report.entangled,
        "margin": report.margin,
    }
    if report.g_swap_used > 0 and params.mirror_R < 1:
        payload["g_electronic"] = analytics.gain_to_electronic(report.g_swap_used, params)
    if params.enl_db is not None:
        payload["enl_db"] = params.enl_db
        payload["enl_corrected_db_below_snl"] = {
            "v_plus": analytics.enl_correct(-report.v_plus_db, params.enl_db),
            "v_minus": analytics.enl_correct(-report.v_minus_db, params.enl_db),
        }
    return payload


def cmd_predict(args: argparse.Namespace) -> int:
    params = _require_config(args).to_params()
    payload = _predict_payload(params)
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        gain_note = payload["gain_mode"]
        if "g_electronic" in payload:
            gain_note += f", electronic gain {payload['g_electronic']:.4f}"
        print(f"g_swap    = {payload['g_swap']:.6f} ({gain_note})")
        print(f"v_plus    = {payload['v_plus']:.6f} ({_fmt_db(payload['v_plus'])})")
        print(f"v_minus   = {payload['v_minus']:.6f} ({_fmt_db(payload['v_minus'])})")
        verdict = "yes" if payload["entangled"] else "no"
        print(f"entangled = {verdict} (margin {payload['margin']:+.4f})")
        if "enl_corrected_db_below_snl" in payload:
            corr = payload["enl_corrected_db_below_snl"]
            print(
                f"ENL-corrected ({payload['enl_db']:g} dB below SNL): "
                f"v_plus {corr['v_plus']:+.3f} dB below SNL, "
                f"v_minus {corr['v_minus']:+.3f} dB below SNL"
            )
    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            fields = ["g_swap", "v_plus", "v_minus", "v_plus_db", "v_minus_db", "entangled"]
            writer.writerow(fields)
            writer.writerow([repr(payload[f]) if f != "entangled" else payload[f] for f in fields])
    return EXIT_OK


def cmd_optimal_gain(args: argparse.Namespace) -> int:
    params = _require_config(args).to_params()
    g_swap = analytics.optimal_gain(params)
    payload = {"g_swap_opt": g_swap}
    if params.mirror_R < 1 and params.eta > 0 and params.xi1 > 0:
        payload["g_electronic"] = analytics.gain_to_electronic(g_swap, params)
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        line = f"g_swap_opt = {g_swap:.6f}"
        if "g_electronic" in payload:
            line += f" (electronic gain {payload['g_electronic']:.4f})"
        print(line)
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    params = _require_config(args).to_params()
    if args.out is None:
        raise ConfigError("sweep requires --out PATH for the CSV grid")
    if args.steps < 2:
        raise ConfigError(f"--steps must be >= 2, got {args.steps}")
    for flag, bounds in (("--r1", args.r1), ("--r2", args.r2)):
        if not all(math.isfinite(b) and b >= 0 for b in bounds):
            raise ConfigError(f"{flag} bounds must be finite and >= 0, "
                              f"got {bounds[0]} {bounds[1]}")
    r1s = np.linspace(args.r1[0], args.r1[1], args.steps)
    r2s = np.linspace(args.r2[0], args.r2[1], args.steps)
    grid = analytics.sweep_surface(params, r1s, r2s)
    # the bytes csv.writer would give: r1-major rows of repr floats, \r\n line ends
    r2_cells = [f",{r2!r}," for r2 in grid.r2_values.tolist()]
    with open(args.out, "w", newline="") as fh:
        fh.write("r1,r2,v_snl\r\n")
        for r1, row in zip(grid.r1_values.tolist(), grid.values):
            r1_cell = repr(r1)
            fh.write("".join(f"{r1_cell}{r2_cell}{v!r}\r\n"
                             for r2_cell, v in zip(r2_cells, row.tolist())))
    print(f"wrote {grid.values.size} grid points to {args.out}")
    return EXIT_OK


def _drawn_params(columns) -> ExperimentParams:
    """Parameters from verify's drawn columns: floats for one draw, arrays for a chunk."""
    *physics, g_swap = columns
    return ExperimentParams(*physics, gain=GainSpec("fixed", g_swap))


def _oracle_deviation(params: ExperimentParams):
    """Relative deviation of the network oracle from the closed form, one per draw."""
    v_plus, v_minus, g_swap = swap.verification_variances(params)
    expected = analytics.variance_formula(params, g_swap)
    return np.maximum(abs(v_plus - expected) / abs(expected),
                      abs(v_minus - expected) / abs(expected))


def cmd_verify(args: argparse.Namespace) -> int:
    if args.random < 0:
        raise ConfigError(f"--random must be >= 0, got {args.random}")
    if args.config is None and not args.random:
        raise ConfigError("verify needs --config and/or --random N")

    worst, worst_params, n_points = -1.0, None, 0
    if args.config is not None:
        params = ConfigFile.load(args.config).to_params()
        worst, worst_params, n_points = float(_oracle_deviation(params)), params, 1
    rng = np.random.default_rng(args.seed)
    for start in range(0, args.random, VERIFY_CHUNK):
        # row-major: the same stream as nine scalar uniform calls per draw
        draws = rng.uniform(DRAW_LOW, DRAW_HIGH,
                            size=(min(VERIFY_CHUNK, args.random - start), DRAW_LOW.size))
        deviations = _oracle_deviation(_drawn_params(draws.T))
        k = int(np.argmax(deviations))
        if deviations[k] > worst:
            worst, worst_params = float(deviations[k]), _drawn_params(draws[k].tolist())
        n_points += len(draws)
    ok = worst <= ORACLE_TOLERANCE
    status = "pass" if ok else "FAIL"
    print(f"{status}: max relative deviation {worst:.3e} over {n_points} point(s) "
          f"(tolerance {ORACLE_TOLERANCE:.0e})")
    if not ok:
        assert worst_params is not None
        print("offending parameter set:", file=sys.stderr)
        print(json.dumps(dataclasses.asdict(worst_params), indent=2), file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def cmd_montecarlo(args: argparse.Namespace) -> int:
    params = _require_config(args).to_params()
    if args.out is None:
        raise ConfigError("montecarlo requires --out PATH for the trace CSV")
    if args.points < 1:
        raise ConfigError(f"--points must be >= 1, got {args.points}")
    if args.n_per_point is not None and args.n_per_point < 1:
        raise ConfigError(f"--n-per-point must be >= 1, got {args.n_per_point}")
    trace = montecarlo.render_trace(
        params, args.kind, args.points, args.seed, args.n_per_point
    )
    sidecar = montecarlo.write_trace_csv(trace, args.out)
    print(
        f"{args.kind}: {args.points} points x {trace.n_per_point} samples, "
        f"pooled noise power {trace.pooled_db():+.3f} dB (seed {args.seed})"
    )
    print(f"wrote {args.out} and {sidecar}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="experiment config (YAML)")
    common.add_argument("--out", metavar="PATH", help="output file")
    common.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    common.add_argument("--json", action="store_true", help="machine-readable output")

    parser = argparse.ArgumentParser(
        prog="cvswap",
        description="Entanglement-swapping bench: exact Gaussian predictions, "
        "gain optimization, oracle verification, and Monte Carlo traces.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("predict", parents=[common],
                       help="output variances, gain, and verdict for a config")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("optimal-gain", parents=[common],
                       help="closed-form optimal normalized gain for a config")
    p.set_defaults(func=cmd_optimal_gain)

    p = sub.add_parser("sweep", parents=[common],
                       help="CSV grid of optimal-gain variance over squeezing parameters")
    p.add_argument("--r1", nargs=2, type=float, metavar=("MIN", "MAX"), required=True)
    p.add_argument("--r2", nargs=2, type=float, metavar=("MIN", "MAX"), required=True)
    p.add_argument("--steps", type=int, required=True, help="points per axis (>= 2)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", parents=[common],
                       help="check the network oracle against the closed form")
    p.add_argument("--random", type=int, metavar="N", default=0,
                   help="additionally check N random parameter draws")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("montecarlo", parents=[common],
                       help="render a sampled noise trace to CSV")
    p.add_argument("--kind", choices=montecarlo.TRACE_KINDS, required=True)
    p.add_argument("--points", type=int, default=100, help="displayed points (default 100)")
    p.add_argument("--n-per-point", type=int, default=None,
                   help=f"samples averaged per point (default {montecarlo.DEFAULT_N_PER_POINT})")
    p.set_defaults(func=cmd_montecarlo)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        print(f"physics rejection: {exc}", file=sys.stderr)
        return EXIT_PHYSICS
    except ArithmeticError as exc:
        print(f"physics rejection: result outside floating-point range "
              f"({type(exc).__name__}: {exc})", file=sys.stderr)
        return EXIT_PHYSICS
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
