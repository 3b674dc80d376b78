"""Workload operations: run them through ``cvswap.cli.main`` and check their outputs.

An operation is the list of CLI calls of one ``OpSpec``. Only the calls are
timed; writing the config beforehand and checking outputs afterwards are
not. Checks use the program's public functions as the reference and never
compare against a stored digest, because later changes may legitimately
move float bits or the RNG stream.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import random
import re
import traceback
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

import yaml

import cvswap.cli
from cvswap import analytics, swap
from cvswap.config import ConfigFile

import inputs
import reference
from inputs import CONFIG, OUT, OpSpec

ORACLE_GATE = 1e-9
SWEEP_REL = 1e-12
SWEEP_SPOT_CELLS = 16
MC_SIGMAS = 5.0


class CheckFailed(Exception):
    """An operation's output disagrees with the reference."""


@dataclass(frozen=True)
class Workload:
    name: str
    item: str       # the unit of work that items_per_s counts
    cycle: int      # operations per cycle; timed loops stop only between cycles
    trace_ops: int  # operations in the traced pass (fixed, so counts repeat)
    # Parts of the reference kernel whose speed scales this workload's times.
    reference_parts: tuple[str, ...] = reference.PARTS


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep_grid", "grid point", cycle=1, trace_ops=1),
        Workload("oracle_verify", "parameter point checked", cycle=1, trace_ops=10),
        Workload("bench_session", "session", cycle=1, trace_ops=20),
        # Sampling is 99.7 % of mc_deep's traced time. Over 16 runs, scaling
        # by the sampling part alone spread its latency by 0.035 of the
        # median; scaling by the whole unit, by 0.074.
        Workload("mc_deep", "averaged sample", cycle=len(inputs.DEEP_KINDS),
                 trace_ops=len(inputs.DEEP_KINDS), reference_parts=("sampling",)),
    )
}


@dataclass
class Call:
    argv: list[str]
    code: int
    stdout: str
    stderr: str


@dataclass
class OpResult:
    seconds: float
    items: int          # work items completed, counted from the outputs
    samples: int        # Monte Carlo samples (points x n_per_point), computed
    bytes_written: int  # sizes of the output files, computed
    fingerprint: str    # sha256 of every stdout and output file
    error: str | None = None


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


class Runner:
    """Runs one workload's operations in this process, optionally traced."""

    def __init__(self, workload: str, pool: list[OpSpec], workdir: Path):
        self.workload = workload
        self.pool = pool
        self.workdir = workdir
        self.tracer = None  # set to a tracing.Tracer for the traced pass
        self._check = getattr(self, f"_check_{workload}")

    # -- running -------------------------------------------------------------

    def _call(self, argv: list[str]) -> Call:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                if self.tracer is not None:
                    code = self.tracer.call_root(cvswap.cli.main, argv)
                else:
                    code = cvswap.cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:
                code = 1
                err.write(traceback.format_exc())
        return Call(argv, code, out.getvalue(), err.getvalue())

    def _outputs(self, index: int) -> list[Path]:
        return [self.workdir / f"out{index}.csv", self.workdir / f"out{index}.meta.yaml"]

    def run_op(self, index: int) -> OpResult:
        spec = self.pool[index % len(self.pool)]
        config = self.workdir / "op.yaml"
        config.write_text(spec.config)
        argvs = []
        for k, template in enumerate(spec.calls):
            subs = {CONFIG: str(config), OUT: str(self._outputs(k)[0])}
            argvs.append([subs.get(arg, arg) for arg in template])
        files = [path for k in range(len(argvs)) for path in self._outputs(k)]
        for path in files:
            path.unlink(missing_ok=True)

        if self.tracer is not None:
            self.tracer.op = index
        calls = []
        start = perf_counter()
        for argv in argvs:
            calls.append(self._call(argv))
            if calls[-1].code != 0:
                break
        seconds = perf_counter() - start

        digest = hashlib.sha256()
        written = 0
        for call in calls:
            digest.update(call.stdout.encode())
        for path in files:
            if path.exists():
                data = path.read_bytes()
                digest.update(data)
                written += len(data)
        result = OpResult(seconds, 0, 0, written, digest.hexdigest())
        failed = next((c for c in calls if c.code != 0), None)
        if failed is not None:
            result.error = f"{' '.join(failed.argv)}: exit {failed.code}: {failed.stderr.strip()}"
            return result
        try:
            result.items, result.samples = self._check(spec, calls)
        except (CheckFailed, ValueError, KeyError, OSError, yaml.YAMLError) as exc:
            result.error = f"check failed: {type(exc).__name__}: {exc}"
        return result

    def reference_check(self) -> str | None:
        """predict on the reference lab config must give g = 0.741, V = 0.719."""
        config = self.workdir / "reference.yaml"
        config.write_text(inputs.REFERENCE_CONFIG)
        call = self._call(["predict", "--json", "--config", str(config)])
        if call.code != 0:
            return f"reference predict: exit {call.code}: {call.stderr.strip()}"
        try:
            payload = json.loads(call.stdout)
            g_swap, v_plus, v_minus = payload["g_swap"], payload["v_plus"], payload["v_minus"]
        except (ValueError, KeyError) as exc:
            return f"reference predict: unreadable output: {exc}"
        if abs(g_swap - 0.741) > 0.001:
            return f"reference predict: g_swap {g_swap} != 0.741 +/- 0.001"
        for key, value in (("v_plus", v_plus), ("v_minus", v_minus)):
            if abs(value - 0.719) > 0.002:
                return f"reference predict: {key} {value} != 0.719 +/- 0.002"
        return None

    # -- output checks; each returns (items, samples) or raises ----------------

    def _check_sweep_grid(self, spec: OpSpec, calls: list[Call]) -> tuple[int, int]:
        argv = calls[0].argv
        r1_axis = (float(argv[argv.index("--r1") + 1]), float(argv[argv.index("--r1") + 2]))
        r2_axis = (float(argv[argv.index("--r2") + 1]), float(argv[argv.index("--r2") + 2]))
        steps = int(argv[argv.index("--steps") + 1])
        total = steps * steps
        rng = random.Random(" ".join(spec.calls[0]))  # the template: no run-specific paths
        wanted = {0, total - 1, *(rng.randrange(total) for _ in range(SWEEP_SPOT_CELLS))}
        params = ConfigFile.loads(spec.config).to_params()
        rows = 0
        with open(self._outputs(0)[0], newline="") as fh:
            reader = csv.reader(fh)
            if next(reader) != ["r1", "r2", "v_snl"]:
                raise CheckFailed("sweep CSV header")
            for index, row in enumerate(reader):
                rows += 1
                if index not in wanted:
                    continue
                r1, r2, value = map(float, row)
                point = replace(params, r1=r1, r2=r2)
                expected = analytics.variance_formula(point, analytics.optimal_gain(point))
                if _rel(value, expected) > SWEEP_REL:
                    raise CheckFailed(f"sweep cell {index}: {value!r} != {expected!r}")
                if index == 0 and (r1, r2) != (r1_axis[0], r2_axis[0]):
                    raise CheckFailed("sweep grid does not start at the axis minima")
                if index == total - 1 and (r1, r2) != (r1_axis[1], r2_axis[1]):
                    raise CheckFailed("sweep grid does not end at the axis maxima")
        if rows != total:
            raise CheckFailed(f"sweep wrote {rows} rows, expected {total}")
        return rows, 0

    def _check_oracle_verify(self, spec: OpSpec, calls: list[Call]) -> tuple[int, int]:
        argv = calls[0].argv
        expected_points = int(argv[argv.index("--random") + 1]) + 1  # plus the config point
        match = re.match(r"pass: max relative deviation (\S+) over (\d+) point", calls[0].stdout)
        if match is None:
            raise CheckFailed(f"verify output: {calls[0].stdout.strip()!r}")
        deviation, points = float(match.group(1)), int(match.group(2))
        if not deviation <= ORACLE_GATE:
            raise CheckFailed(f"verify deviation {deviation} above {ORACLE_GATE}")
        if points != expected_points:
            raise CheckFailed(f"verify checked {points} points, expected {expected_points}")
        return points, 0

    def _check_bench_session(self, spec: OpSpec, calls: list[Call]) -> tuple[int, int]:
        params = ConfigFile.loads(spec.config).to_params()
        payload = json.loads(calls[1].stdout)
        g_swap = payload["g_swap"]
        expected = analytics.variance_formula(params, g_swap)
        for key in ("v_plus", "v_minus"):
            if _rel(payload[key], expected) > ORACLE_GATE:
                raise CheckFailed(f"predict {key} {payload[key]!r} != closed form {expected!r}")
        if params.gain.mode == "optimal":
            reference = analytics.optimal_gain(params)
            if _rel(g_swap, reference) > SWEEP_REL:
                raise CheckFailed(f"predict g_swap {g_swap!r} != optimal_gain {reference!r}")
        elif g_swap != params.gain.value:
            raise CheckFailed(f"predict g_swap {g_swap!r} != fixed gain {params.gain.value!r}")
        text_v = re.search(r"v_plus\s*=\s*(\S+)", calls[0].stdout)
        if text_v is None or abs(float(text_v.group(1)) - payload["v_plus"]) > 5e-7:
            raise CheckFailed(f"predict text output: {calls[0].stdout.strip()!r}")
        text_g = re.search(r"g_swap_opt\s*=\s*(\S+)", calls[2].stdout)
        if text_g is None or abs(float(text_g.group(1)) - analytics.optimal_gain(params)) > 5e-7:
            raise CheckFailed(f"optimal-gain output: {calls[2].stdout.strip()!r}")
        samples = sum(self._check_trace(params, call, k) for k, call in enumerate(calls) if k >= 3)
        return 1, samples

    def _check_mc_deep(self, spec: OpSpec, calls: list[Call]) -> tuple[int, int]:
        params = ConfigFile.loads(spec.config).to_params()
        samples = self._check_trace(params, calls[0], 0)
        return samples, samples

    def _check_trace(self, params, call: Call, k: int) -> int:
        """The pooled trace lies within 5 standard errors of the exact variance."""
        kind = call.argv[call.argv.index("--kind") + 1]
        csv_path, sidecar = self._outputs(k)
        meta = yaml.safe_load(sidecar.read_text())
        points, n_per_point = int(meta["points"]), int(meta["n_per_point"])
        with open(csv_path, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        if len(rows) != points:
            raise CheckFailed(f"{kind} trace has {len(rows)} rows, expected {points}")
        pooled = sum(10.0 ** (float(db) / 10.0) for _, db in rows) / points
        exact = exact_trace_variance(params, kind)
        # the mean of squares of N(0, V) draws has standard error V * sqrt(2 / n)
        stderr = exact * math.sqrt(2.0 / (points * n_per_point))
        if not abs(pooled - exact) <= MC_SIGMAS * stderr:
            raise CheckFailed(f"{kind} pooled {pooled!r} vs exact {exact!r} "
                              f"({(pooled - exact) / stderr:+.1f} SE)")
        return points * n_per_point


def exact_trace_variance(params, kind: str) -> float:
    """SNL-normalized variance that a trace of ``kind`` samples, from the network oracle."""
    if kind == "correlated":
        return swap.run_experiment(params).v_plus
    if kind == "blocked":
        return swap.run_experiment(replace(params, channel_blocked=True)).v_plus
    if kind == "single_mode_a":
        return swap.single_mode_noise(params, "a")
    if kind == "single_mode_dprime":
        return swap.single_mode_noise(params, "dprime")
    raise CheckFailed(f"no exact variance for trace kind {kind!r}")
