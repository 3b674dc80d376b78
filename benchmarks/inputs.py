"""Seeded input generator for the benchmark workloads.

Everything the program sees is produced here from the workload seed: YAML
config documents and CLI argument lists. Nothing in this module imports
cvswap, so the inputs cannot depend on the program's internals. Python's
``random.Random`` is used (not numpy) so that the same seed gives the same
inputs whatever numpy version is installed.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import asdict, dataclass

# Distinct operations generated per run; a run that gets further cycles
# through them again, so the digest below covers every input a run can use.
POOL_SIZE = 1024

# Placeholders in argv templates, replaced by the runner with paths in the
# run's working directory.
CONFIG = "{config}"
OUT = "{out}"

SWEEP_STEPS = 301
VERIFY_RANDOM = 200
SESSION_MC_POINTS = 100
DEEP_POINTS = 40
DEEP_N_PER_POINT = 150_000
# The network-derived trace kinds; "snl" is two bare vacua and is left out.
DEEP_KINDS = ("correlated", "blocked", "single_mode_a", "single_mode_dprime")

# The reference operating point of the bench (the lab values the paper
# reports). predict on it must give g = 0.741 and V = 0.719.
REFERENCE_CONFIG = """\
squeezing:
  r1: 0.564
  r2: 0.587
efficiencies:
  xi1_sq: 0.970
  xi2_sq: 0.950
  xi3_sq: 0.966
  xi4_sq: 0.968
  eta_sq: 0.90
mirror_R: 0.98
gain:
  mode: optimal
enl_db: 11.3
"""


@dataclass(frozen=True)
class OpSpec:
    """One workload operation: a config document and the CLI calls made on it."""

    config: str
    calls: tuple[tuple[str, ...], ...]


def draw_config(rng: random.Random) -> str:
    """A lab-realistic config: high efficiencies, squeezing of 3 to 7.8 dB."""
    lines = ["squeezing:"]
    for beam in ("r1", "r2"):
        if rng.random() < 0.5:
            lines.append(f"  {beam}: {rng.uniform(0.35, 0.9)!r}")
        else:
            lines.append(f"  {beam}_db: {rng.uniform(3.0, 7.8)!r}")
    lines.append("efficiencies:")
    for key in ("xi1_sq", "xi2_sq", "xi3_sq", "xi4_sq", "eta_sq"):
        lines.append(f"  {key}: {rng.uniform(0.85, 1.0)!r}")
    lines.append(f"mirror_R: {rng.uniform(0.95, 0.99)!r}")
    if rng.random() < 0.5:
        lines += ["gain:", "  mode: optimal"]
    else:
        lines += ["gain:", "  mode: fixed", f"  value: {rng.uniform(0.5, 0.95)!r}"]
    if rng.random() < 0.5:
        lines.append(f"enl_db: {rng.uniform(9.0, 13.0)!r}")
    return "\n".join(lines) + "\n"


def _seed(rng: random.Random) -> str:
    return str(rng.randrange(2**31))


def _sweep_op(rng: random.Random, index: int) -> OpSpec:
    axes: list[str] = []
    for flag in ("--r1", "--r2"):
        axes += [flag, repr(rng.uniform(0.0, 0.2)), repr(rng.uniform(1.0, 1.5))]
    return OpSpec(
        draw_config(rng),
        (("sweep", "--config", CONFIG, *axes, "--steps", str(SWEEP_STEPS), "--out", OUT),),
    )


def _verify_op(rng: random.Random, index: int) -> OpSpec:
    return OpSpec(
        draw_config(rng),
        (("verify", "--config", CONFIG, "--random", str(VERIFY_RANDOM), "--seed", _seed(rng)),),
    )


def _session_op(rng: random.Random, index: int) -> OpSpec:
    mc = ("--points", str(SESSION_MC_POINTS))
    return OpSpec(
        draw_config(rng),
        (
            ("predict", "--config", CONFIG),
            ("predict", "--json", "--config", CONFIG),
            ("optimal-gain", "--config", CONFIG),
            ("montecarlo", "--config", CONFIG, "--kind", "correlated", *mc,
             "--seed", _seed(rng), "--out", OUT),
            ("montecarlo", "--config", CONFIG, "--kind", "blocked", *mc,
             "--seed", _seed(rng), "--out", OUT),
        ),
    )


def _deep_op(rng: random.Random, index: int) -> OpSpec:
    kind = DEEP_KINDS[index % len(DEEP_KINDS)]
    return OpSpec(
        draw_config(rng),
        (("montecarlo", "--config", CONFIG, "--kind", kind,
          "--points", str(DEEP_POINTS), "--n-per-point", str(DEEP_N_PER_POINT),
          "--seed", _seed(rng), "--out", OUT),),
    )


DRAWERS = {
    "sweep_grid": _sweep_op,
    "oracle_verify": _verify_op,
    "bench_session": _session_op,
    "mc_deep": _deep_op,
}


def generate(workload: str, seed: int) -> list[OpSpec]:
    """The run's operation pool for ``workload``, drawn from ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    draw = DRAWERS[workload]
    return [draw(rng, index) for index in range(POOL_SIZE)]


def digest(pool: list[OpSpec]) -> str:
    """sha256 over the generated inputs, recorded with every result."""
    text = json.dumps([asdict(op) for op in pool], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()
