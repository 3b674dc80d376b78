"""Command-line front end: predict, sweep, verify, montecarlo, optimal-gain.

Exit codes: 0 success; 2 a bad command line or config file; 3 physics
rejections (valid syntax, unbuildable experiment or a result outside
floating-point range); 4 verification failure (oracle and closed form
disagree); 1 anything else (e.g. unwritable output, or out of memory).

Each flag's rule (required, a number, its range, such as a count too large
for any array on this platform) is declared on the flag, so argparse rejects
a bad command line with its usage and ``error: argument --flag: ...``; a
``config error:`` line is always about the config file.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys

import numpy as np

from . import analytics, floattext, montecarlo, swap
from .config import ConfigError, ConfigFile
from .params import _NUMERIC_FIELDS, ExperimentParams, GainSpec

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PHYSICS = 3
EXIT_VERIFY = 4

ORACLE_TOLERANCE = 1e-9  # max relative deviation, closed form vs network

# verify --random: each draw is nine uniform values, the columns _NUMERIC_FIELDS then g_swap
DRAW_LOW = np.array([0.0, 0.0, 0.5, 0.5, 0.5, 0.5, 0.5, 0.9, 0.0])
DRAW_HIGH = np.array([1.5, 1.5, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.5])
# draws per network build, bounding memory at any --random; the first build
# also carries the config point, as row 0
VERIFY_CHUNK = 512
SWEEP_BLOCK_CELLS = 4096  # grid cells turned to text at once; bounds the CSV writer's memory

# the most float64 elements one array can hold on this platform (numpy's size limit)
MAX_ARRAY_FLOATS = sys.maxsize // np.dtype(float).itemsize

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


def _bounded(kind: type, low: float, high: float = math.inf, limit: str = ""):
    """An argparse ``type=``: a ``kind`` in ``[low, high]``; ``limit`` says where ``high``
    comes from. A text ``kind`` cannot read is argparse's "invalid <kind> value"."""
    def parse(text: str):
        value = kind(text)
        if not value >= low:  # nan too
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        if not value <= high:
            raise argparse.ArgumentTypeError(f"must be <= {high} ({limit})")
        return value
    parse.__name__ = kind.__name__
    return parse


def _fmt_num(x: float, decimals: int, sign: str = "") -> str:
    """``x`` to ``decimals`` places, or in scientific notation with as many digits
    where fixed places would hide it (0 < |x| < 1e-3) or run long (|x| >= 1e6)."""
    kind = "f" if x == 0 or 1e-3 <= abs(x) < 1e6 else "e"
    return f"{x:{sign}.{decimals}{kind}}"


def _electronic_gain(g_swap: float, params: ExperimentParams) -> dict:
    """``{"g_electronic": g}`` for a gain that needs feedforward, else nothing."""
    if g_swap > 0:
        return {"g_electronic": analytics.electronic_gain(g_swap, params.mirror_R,
                                                          params.eta, params.xi1)}
    return {}


def _predict_payload(params: ExperimentParams) -> dict:
    report = swap.run_experiment(params)
    payload = {**vars(report), **_electronic_gain(report.g_swap, params)}
    if params.enl_db is not None:
        payload["enl_db"] = params.enl_db
        payload["enl_corrected_db_below_snl"] = {
            "v_plus": _enl_corrected(report.v_plus_db, params.enl_db),
            "v_minus": _enl_corrected(report.v_minus_db, params.enl_db),
        }
    return payload


def _enl_corrected(v_db: float, enl_db: float) -> float | None:
    """ENL-corrected depth below SNL of a variance at ``v_db``; None where that variance
    is at or below the electronic noise floor, so the correction is undefined."""
    try:
        return analytics.enl_correct(-v_db, enl_db)
    except ValueError:
        return None


def _fmt_depth(depth: float | None) -> str:
    if depth is None:
        return "undefined (at or below the noise floor)"
    return f"{depth:+.3f} dB below SNL"


def cmd_predict(args: argparse.Namespace) -> int:
    params = ConfigFile.load(args.config).to_params()
    payload = _predict_payload(params)
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        gain_note = payload["gain_mode"]
        if "g_electronic" in payload:
            gain_note += f", electronic gain {_fmt_num(payload['g_electronic'], 4)}"
        print(f"g_swap    = {_fmt_num(payload['g_swap'], 6)} ({gain_note})")
        for key in ("v_plus", "v_minus"):
            print(f"{key:<9} = {_fmt_num(payload[key], 6)} ({payload[key + '_db']:+.3f} dB)")
        verdict = "yes" if payload["entangled"] else "no"
        print(f"entangled = {verdict} (margin {_fmt_num(payload['margin'], 4, '+')})")
        if "enl_corrected_db_below_snl" in payload:
            corr = payload["enl_corrected_db_below_snl"]
            print(
                f"ENL-corrected ({payload['enl_db']:g} dB below SNL): "
                f"v_plus {_fmt_depth(corr['v_plus'])}, v_minus {_fmt_depth(corr['v_minus'])}"
            )
    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            fields = ["g_swap", "v_plus", "v_minus", "v_plus_db", "v_minus_db", "entangled"]
            writer.writerow(fields)
            writer.writerow([repr(payload[f]) if f != "entangled" else payload[f] for f in fields])
    return EXIT_OK


def cmd_optimal_gain(args: argparse.Namespace) -> int:
    params = ConfigFile.load(args.config).to_params()
    g_swap = analytics.optimal_gain(params)
    payload = {"g_swap_opt": g_swap, **_electronic_gain(g_swap, params)}
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        line = f"g_swap_opt = {_fmt_num(g_swap, 6)}"
        if "g_electronic" in payload:
            line += f" (electronic gain {_fmt_num(payload['g_electronic'], 4)})"
        print(line)
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    params = ConfigFile.load(args.config).to_params()
    r1s = np.linspace(args.r1[0], args.r1[1], args.steps)
    r2s = np.linspace(args.r2[0], args.r2[1], args.steps)
    values = analytics.sweep_surface(params, r1s, r2s)
    # csv.writer's bytes: r1-major rows of repr floats, CRLF line ends; a block of
    # grid rows at a time goes through the vectorized repr, into one cell list
    r1_cells = floattext.repr_bytes(r1s, b",")
    r2_cells = floattext.repr_bytes(r2s, b",")
    cols = len(r2_cells)
    rows = max(1, SWEEP_BLOCK_CELLS // cols)
    cells = [b""] * (3 * values[:rows].size)
    cells[1::3] = r2_cells * len(values[:rows])
    with open(args.out, "wb") as fh:
        fh.write(b"r1,r2,v_snl\r\n")
        for start in range(0, len(r1_cells), rows):
            block = values[start:start + rows]
            del cells[3 * block.size:]  # the last block may be partial
            for i, r1_cell in enumerate(r1_cells[start:start + rows]):
                cells[3 * cols * i:3 * cols * (i + 1):3] = [r1_cell] * cols
            cells[2::3] = floattext.repr_bytes(block.ravel(), b"\r\n")
            fh.write(b"".join(cells))
    print(f"wrote {values.size} grid points to {args.out}")
    return EXIT_OK


def _drawn_params(columns) -> ExperimentParams:
    """Parameters from verify's drawn columns: floats for one draw, arrays for a chunk."""
    *physics, g_swap = columns
    return ExperimentParams(*physics, gain=GainSpec("fixed", g_swap))


def cmd_verify(args: argparse.Namespace) -> int:
    if args.config is None and not args.random:
        args.usage("needs --config and/or --random N")

    config = None if args.config is None else ConfigFile.load(args.config).to_params()
    rng = np.random.default_rng(args.seed)
    # the worst point's drawn row; None for the config point
    worst, worst_draw = -1.0, None
    for start in range(0, max(args.random, 1), VERIFY_CHUNK):
        # row-major: the same stream as nine scalar uniform calls per draw
        draws = rng.uniform(DRAW_LOW, DRAW_HIGH,
                            size=(min(VERIFY_CHUNK, args.random - start), DRAW_LOW.size))
        rows, ahead = draws, 0
        if config is not None and start == 0:
            # the config point rides as row 0 at the gain it is built with alone
            g_config = swap.resolve_gain(config)
            point = [*(getattr(config, name) for name in _NUMERIC_FIELDS), g_config]
            rows, ahead = np.vstack((point, draws)), 1
        params = _drawn_params(rows.T) if len(draws) else config  # no one-row batch
        v_plus, v_minus, g_swap = swap.verification_variances(params)
        # the config point keeps its own scalar closed form (numpy's exp is not
        # math.exp), evaluated first so that it raises first; the batch's row 0 is dropped
        expected = np.empty(len(rows))
        if ahead:
            expected[0] = analytics.variance_formula(config, g_config)
        if len(draws):
            expected[ahead:] = analytics.variance_formula(params, g_swap)[ahead:]
        deviations = np.maximum(abs(v_plus - expected) / abs(expected),
                                abs(v_minus - expected) / abs(expected))
        k = int(np.argmax(deviations))
        if deviations[k] > worst:
            worst, worst_draw = float(deviations[k]), None if k < ahead else draws[k - ahead]
    ok = worst <= ORACLE_TOLERANCE
    status = "pass" if ok else "FAIL"
    n_points = args.random + (config is not None)
    print(f"{status}: max relative deviation {worst:.3e} over {n_points} point(s) "
          f"(tolerance {ORACLE_TOLERANCE:.0e})")
    if not ok:
        offending = config if worst_draw is None else _drawn_params(worst_draw.tolist())
        print("offending parameter set:", file=sys.stderr)
        print(json.dumps(offending.as_dict(), indent=2), file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def cmd_montecarlo(args: argparse.Namespace) -> int:
    params = ConfigFile.load(args.config).to_params()
    trace = montecarlo.render_trace(
        params, args.kind, args.points, args.seed, args.n_per_point
    )
    sidecar = montecarlo.write_trace_csv(trace, args.out)
    print(
        f"{args.kind}: {args.points} points x {trace.metadata['n_per_point']} samples, "
        f"pooled noise power {trace.pooled_db():+.3f} dB (seed {args.seed})"
    )
    print(f"wrote {args.out} and {sidecar}")
    return EXIT_OK


# flags shared by several subcommands; each subcommand takes only those it reads
_SHARED_FLAGS = {
    "--config": dict(metavar="PATH", help="experiment config (YAML)"),
    "--out": dict(metavar="PATH", help="output file"),
    "--seed": dict(type=_bounded(int, 0), default=0, help="RNG seed (default 0)"),
    "--json": dict(action="store_true", help="machine-readable output"),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every later :func:`main` call."""
    parser = argparse.ArgumentParser(
        prog="cvswap",
        description="Entanglement-swapping bench: exact Gaussian predictions, "
        "gain optimization, oracle verification, and Monte Carlo traces.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, flags: tuple[str, ...], help: str,
                required: tuple[str, ...] = ("--config",)) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func, usage=p.error)  # for a rule argparse cannot declare
        for flag in flags:
            p.add_argument(flag, **_SHARED_FLAGS[flag], required=flag in required)
        return p

    command("predict", cmd_predict, ("--config", "--out", "--json"),
            "output variances, gain, and verdict for a config")
    command("optimal-gain", cmd_optimal_gain, ("--config", "--json"),
            "closed-form optimal normalized gain for a config")

    p = command("sweep", cmd_sweep, ("--config", "--out"),
                "CSV grid of optimal-gain variance over squeezing parameters",
                required=("--config", "--out"))
    bound = _bounded(float, 0, sys.float_info.max, "the largest float")
    p.add_argument("--r1", nargs=2, type=bound, metavar=("MIN", "MAX"), required=True)
    p.add_argument("--r2", nargs=2, type=bound, metavar=("MIN", "MAX"), required=True)
    p.add_argument("--steps", required=True, help="points per axis (>= 2)", type=_bounded(
        int, 2, math.isqrt(MAX_ARRAY_FLOATS), "a grid of steps x steps floats must fit one array"))

    p = command("verify", cmd_verify, ("--config", "--seed"),
                "check the network oracle against the closed form", required=())
    p.add_argument("--random", type=_bounded(int, 0), metavar="N", default=0,
                   help="additionally check N random parameter draws")

    p = command("montecarlo", cmd_montecarlo, ("--config", "--out", "--seed"),
                "render a sampled noise trace to CSV", required=("--config", "--out"))
    p.add_argument("--kind", choices=montecarlo.TRACE_KINDS, required=True)
    p.add_argument("--points", default=100, help="displayed points (default 100)", type=_bounded(
        int, 1, MAX_ARRAY_FLOATS, "one float per point must fit one array"))
    p.add_argument("--n-per-point", type=_bounded(int, 1, sys.float_info.max, "the largest float"),
                   default=montecarlo.DEFAULT_N_PER_POINT,
                   help=f"samples averaged per point (default {montecarlo.DEFAULT_N_PER_POINT})")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
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
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
