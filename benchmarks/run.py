"""cvswap benchmark: seeded closed-loop workloads through the public CLI.

Usage (from the repository root):

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

One process, one client, no extra threads: each operation calls
``cvswap.cli.main(argv)`` in this process on inputs generated from the seed
and waits for it to finish before the next (closed loop). ``--trace 0``
prints the end-to-end metrics; ``--trace 1`` additionally runs a fixed,
traced pass and the baseline layer probes and prints the per-layer metrics.
Gated times are scaled by how fast a fixed reference kernel, run interleaved
with them (``reference.py``), ran against its nominal time, so other
tenants' load on a shared host cancels out.
The last line of stdout is one JSON object; the full result, with
provenance, goes to ``.bench_out/``. See benchmarks/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

# Fixed on both sides of every comparison, and set before numpy is imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import inputs  # noqa: E402
import reference  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_RUNS = 15  # fresh interpreters per run; setup_s is their median
SETUP_REF_UNITS = 10  # reference units run on each side of every set-up probe
REF_SHARE = 0.15  # reference-kernel time after each operation, as a share of its time
TAIL_MIN_BEYOND = 10
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_setup_probe(config: Path, *extra: str) -> tuple[dict, float]:
    """One fresh interpreter: its self-timed phases and its wall time."""
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("setup_probe.py")), str(config), *extra],
        cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=60,
    )
    wall = perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1]), wall


def bracketed_setup_probe(config: Path) -> dict:
    """One set-up probe between two stretches of the reference kernel.

    ``setup_norm_s`` is its set-up time scaled by the whole units run right
    around it.
    """
    units = [reference.unit() for _ in range(SETUP_REF_UNITS)]
    phases = run_setup_probe(config)[0]
    units += [reference.unit() for _ in range(SETUP_REF_UNITS)]
    phases["host_scale"] = reference.scale(units)
    phases["setup_norm_s"] = phases["setup_s"] * phases["host_scale"]
    return phases


def median_setup(runs: list[dict]) -> dict:
    return {key: statistics.median(r[key] for r in runs) for key in runs[0]}


def tail_latency(seconds: list[float]) -> dict | None:
    """Highest listed percentile with at least 10 samples beyond it (nearest rank)."""
    ordered = sorted(seconds)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        rank = math.ceil(pct / 100.0 * n)
        if n - rank >= TAIL_MIN_BEYOND:
            return {"percentile": pct, "value_ms": ordered[rank - 1] * 1e3,
                    "beyond": n - rank, "samples": n}
    return None


def timed_loop(runner, seconds: float, cycle: int,
               setup_config: Path) -> tuple[list, list, list]:
    """Closed loop of whole cycles for ``seconds`` of wall time.

    Returns the operations' results, the times of the reference units run
    after each operation (REF_SHARE of its time), and the set-up samples.

    The SETUP_RUNS fresh interpreters are started between cycles, spread over
    the loop, because other tenants' load on a shared host comes and goes
    within seconds and a median of samples taken back to back follows it.
    The time they take does not count towards ``seconds``.
    """
    run_setup_probe(setup_config)  # unmeasured: compiles bytecode on a fresh checkout
    results, ref_units, setups = [], [], []
    start = perf_counter()
    paused = 0.0
    index = 0
    while True:
        for _ in range(cycle):
            results.append(runner.run_op(index))
            ref_units += reference.run_for(REF_SHARE * results[-1].seconds)
            index += 1
        elapsed = perf_counter() - start - paused
        while len(setups) < SETUP_RUNS * min(elapsed / seconds, 1.0):
            before = perf_counter()
            setups.append(bracketed_setup_probe(setup_config))
            paused += perf_counter() - before
        if elapsed >= seconds:
            return results, ref_units, setups


def throughput(results: list) -> float:
    done = [r for r in results if r.error is None]
    busy = sum(r.seconds for r in done)
    return sum(r.items for r in done) / busy if busy > 0 else 0.0


def provenance(args, workload, pool_digest: str) -> dict:
    import numpy
    import yaml

    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pyyaml": yaml.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "inputs_sha256": pool_digest,
        "params": {
            "pool_size": inputs.POOL_SIZE,
            "item": workload.item,
            "cycle": workload.cycle,
            "trace_ops": workload.trace_ops,
            "sweep_steps": inputs.SWEEP_STEPS,
            "verify_random": inputs.VERIFY_RANDOM,
            "session_mc_points": inputs.SESSION_MC_POINTS,
            "deep_points": inputs.DEEP_POINTS,
            "deep_n_per_point": inputs.DEEP_N_PER_POINT,
            "deep_kinds": list(inputs.DEEP_KINDS),
            "setup_runs": SETUP_RUNS,
        },
    }


def _commit() -> str:
    """HEAD commit read from .git without running git; 'unknown' outside a checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.DRAWERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (SRC / "cvswap" / "cli.py").is_file():
        print(f"error: no cvswap sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    pool = inputs.generate(args.workload, args.seed)
    pool_digest = inputs.digest(pool)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        workdir = Path(tmp)
        setup_config = workdir / "setup.yaml"
        setup_config.write_text(pool[0].config)

        runner = workloads.Runner(args.workload, pool, workdir)
        errors: list[str] = []
        attempted = 1
        reference_error = runner.reference_check()
        if reference_error:
            errors.append(reference_error)
        warm = runner.run_op(0)  # also the reference for the determinism check
        results, ref_units, setups = timed_loop(runner, args.seconds, workload.cycle,
                                                setup_config)
        setup = median_setup(setups)
        # Mean operation time over mean reference time: both sample the same
        # moments of the run, so a host slow-down common to both cancels.
        host_scale = reference.scale(ref_units, workload.reference_parts)
        attempted += 1 + len(results)
        errors += [r.error for r in [warm, *results] if r.error]
        if warm.error is None and results[0].error is None \
                and warm.fingerprint != results[0].fingerprint:
            errors.append("same inputs rendered twice gave different outputs")
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        latencies = [r.seconds for r in results]
        mean_ms = statistics.mean(latencies) * 1e3
        end_to_end = {
            "setup_s": (setup["setup_norm_s"], "s"),
            "latency_ms.norm": (mean_ms * host_scale, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        # Raw times, printed and recorded but not gated: on a shared host they
        # follow other tenants' load by more than the largest allowed bound.
        rate = throughput(results)
        p50_ms = statistics.median(latencies) * 1e3
        tail = tail_latency(latencies)
        result = {
            "provenance": provenance(args, workload, pool_digest),
            "setup": setup,
            "setup_samples_s": [r["setup_s"] for r in setups],
            "setup_host_scale": [r["host_scale"] for r in setups],
            "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()},
            "host_scale": host_scale,
            "reference_parts": list(workload.reference_parts),
            "ref_units": len(ref_units),
            "setup_s.raw": setup["setup_s"],
            "latency_ms.mean": mean_ms,
            "items_per_s": rate,
            "latency_ms.p50": p50_ms,
            "latency_ms.tail": tail,
            "timed_ops": len(results),
            "op_ms": [r.seconds * 1e3 for r in results],
            "items": sum(r.items for r in results if r.error is None),
            "per_op": {"items": warm.items, "samples": warm.samples,
                       "bytes_written": warm.bytes_written},
        }

        per_layer = None
        if args.trace:
            import probes
            from tracing import Tracer

            result["probes"] = probes.run_all(workdir, run_setup_probe)
            tracer = Tracer()
            tracer.install()
            try:
                runner.tracer = tracer
                traced = [runner.run_op(i) for i in range(workload.trace_ops)]
            finally:
                runner.tracer = None
                tracer.uninstall()
            attempted += len(traced)
            errors += [r.error for r in traced if r.error]
            summary = tracer.summarize()
            tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.tsv.gz")
            per_layer = layer_metrics(summary, setup, traced, rate, result["probes"])
            result["trace"] = {
                "ops": len(traced),
                "counts": trace_counts(summary, traced, workload.item),
                "calls": summary["calls"],
                "self_s": summary["self_s"],
                "busy_s": summary["busy_s"],
                "self_share": {k: v / summary["root_s"] for k, v in summary["self_s"].items()},
                "missing_targets": summary["missing"],
            }
            result["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()}

    failed = len(errors)
    result.update(attempted=attempted, failed=failed, failed_ratio=failed / attempted,
                  errors=errors[:20])
    (OUT_DIR / f"result-{stem}.json").write_text(json.dumps(result, indent=2) + "\n")

    report(args, result, end_to_end, tail, per_layer)
    metrics = per_layer if args.trace else end_to_end
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def trace_counts(summary: dict, traced: list, item: str) -> dict:
    """Exact counts of the traced pass; they repeat for a given seed."""
    from tracing import FORMULA

    calls = summary["calls"]
    return {
        f"items: {item} (computed)": sum(r.items for r in traced),
        "montecarlo_samples (computed)": sum(r.samples for r in traced),
        "bytes_written (computed)": sum(r.bytes_written for r in traced),
        "network_builds": calls.get("swap.build_network", 0),
        "configs_parsed": calls.get("config.load", 0),
        "formula_calls": sum(calls.get(n, 0) for n in FORMULA),
        "spans": summary["spans"],
    }


def layer_metrics(summary: dict, setup: dict, traced: list, untraced_rate: float,
                  probe_rows: dict) -> dict:
    from tracing import FORMULA, LAYERS, MC_WRITE

    calls, layer_calls = summary["calls"], summary["layer_calls"]
    self_s, busy_s = summary["self_s"], summary["busy_s"]
    write_s = summary["name_self_s"].get(MC_WRITE, 0.0)
    metrics = {
        "import.numpy_s": (setup["numpy_s"], "s"),
        "import.cvswap_s": (setup["cvswap_s"], "s"),
        "cli.calls": (layer_calls["cli"], "count"),
        "cli.self_s": (self_s["cli"], "s"),
        "config.calls": (layer_calls["config"], "count"),
        "config.busy_s": (busy_s["config"], "s"),
        "analytics.calls": (layer_calls["analytics"], "count"),
        "analytics.formula_calls": (sum(calls.get(n, 0) for n in FORMULA), "count"),
        "analytics.self_s": (self_s["analytics"], "s"),
        "swap.calls": (layer_calls["swap"], "count"),
        "swap.self_s": (self_s["swap"], "s"),
        "gaussian.calls": (layer_calls["gaussian"], "count"),
        "gaussian.busy_s": (busy_s["gaussian"], "s"),
        "montecarlo.calls": (layer_calls["montecarlo"], "count"),
        "montecarlo.self_s": (self_s["montecarlo"] - write_s, "s"),
        "montecarlo.write_s": (write_s, "s"),
        "montecarlo.samples": (sum(r.samples for r in traced), "count"),
        "io.bytes_written": (sum(r.bytes_written for r in traced), "bytes"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.failed"] = (summary["failed"][layer], "count")
    metrics["trace.overhead_ratio"] = (throughput(traced) / untraced_rate, "ratio")
    for name, row in probe_rows.items():
        metrics[f"probe.{name}"] = (row["value"], row["unit"])
    return metrics


def report(args, result: dict, end_to_end: dict, tail: dict | None, per_layer: dict | None):
    """Human-readable summary, printed before the JSON line."""
    prov = result["provenance"]
    print(f"cvswap benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds} s, trace {args.trace}")
    print(f"  commit {prov['commit']}, python {prov['python']}, numpy {prov['numpy']}, "
          f"pyyaml {prov['pyyaml']}, nproc {prov['nproc']}, BLAS threads {prov['blas_threads']}")
    print(f"  inputs sha256 {prov['inputs_sha256']}")
    for name, (value, unit) in end_to_end.items():
        print(f"  {name:<22} {value:>14.6g} {unit}")
    print(f"  {'host_scale':<22} {result['host_scale']:>14.6g} "
          f"(nominal / measured time of reference parts {', '.join(result['reference_parts'])}; "
          f"{result['ref_units']} units)")
    print(f"  {'setup_s.raw':<22} {result['setup_s.raw']:>14.6g} s")
    print(f"  {'latency_ms.mean':<22} {result['latency_ms.mean']:>14.6g} ms")
    print(f"  {'items_per_s':<22} {result['items_per_s']:>14.6g} items/s "
          f"({result['items']} items in {result['timed_ops']} ops)")
    print(f"  {'latency_ms.p50':<22} {result['latency_ms.p50']:>14.6g} ms")
    if tail is None:
        print(f"  {'latency_ms.tail':<22} {'not reported':>14} "
              f"(fewer than {TAIL_MIN_BEYOND} ops beyond the median)")
    else:
        print(f"  {'latency_ms.tail':<22} {tail['value_ms']:>14.6g} ms "
              f"(p{tail['percentile']:g}, {tail['beyond']} of {tail['samples']} ops beyond)")
    print(f"  {'failed_ratio':<22} {result['failed_ratio']:>14.6g} "
          f"({result['failed']} of {result['attempted']} ops)")
    for error in result["errors"]:
        print(f"  FAILED: {error}")
    if per_layer is None:
        return
    trace = result["trace"]
    print(f"  traced pass: {trace['ops']} ops, layer self-time share:")
    for layer, share in sorted(trace["self_share"].items(), key=lambda kv: -kv[1]):
        print(f"    {layer:<12} {share:7.1%}  self {trace['self_s'][layer]:.4f} s, "
              f"busy {trace['busy_s'][layer]:.4f} s")
    if trace["missing_targets"]:
        print(f"  trace targets not found (recorded as 0 calls): {trace['missing_targets']}")
    for name, (value, unit) in per_layer.items():
        if not name.startswith("probe."):
            print(f"  {name:<30} {value:>14.6g} {unit}")
    print("  baseline probes (value / re-anchor):")
    for name, row in result["probes"].items():
        note = f"  [{row['error']}]" if row.get("error") else ""
        print(f"    {name:<28} {row['value']:>12.6g} {row['unit']:<6} / "
              f"{row['reanchor']:g}{note}")


if __name__ == "__main__":
    sys.exit(main())
