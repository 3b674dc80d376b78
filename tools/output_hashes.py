"""sha256 of every CLI output that must stay byte-identical within one version.

Usage::

    python tools/output_hashes.py [CHECKOUT] > hashes.txt

Runs each command below on ``CHECKOUT/src`` (default: the checkout holding
this script), each in a fresh interpreter and a fresh temporary directory
holding ``example.yaml`` (``CHECKOUT/configs/example.yaml``), the CI's
``fixed.yaml`` and ``exponent.yaml`` edits of it, the rewrites of
:data:`PARSE_CONFIGS` and the out-of-range edits of :data:`RANGE_CONFIGS`.
It prints one sha256 line per stdout, stderr, exit code and written file, so
two checkouts compare with one ``diff`` of their outputs, e.g. a commit
against its parent::

    mkdir parent && git archive PARENT | tar -x -C parent
    diff <(python tools/output_hashes.py parent) <(python tools/output_hashes.py)

The last command is not the CLI: :data:`FORMS` prints one hash of V+, V- and
every ``NetworkHandles`` form of ``swap.build_network`` per batch of 1 to 512
seeded draws and per single point; run it alone to see which batch differs.
"""

from __future__ import annotations

import hashlib
import os
import pathlib
import re
import subprocess
import sys
import tempfile

import yaml

CONFIGS = ("example.yaml", "fixed.yaml", "exponent.yaml")
# example.yaml rewritten in flow style, which only PyYAML reads, and with CRLF line ends,
# which the CLI reads as "\n" (universal newlines) and so reads as the block form
PARSE_CONFIGS = ("flow.yaml", "crlf.yaml")
# the CI's edits with a feedforward port that underflows to 0 and with exps past the
# float range, and a 2 r past it: every route's overflow and range exit
RANGE_CONFIGS = ("tiny.yaml", "r200.yaml", "r400.yaml", "r1e308.yaml")
KINDS = ("correlated", "blocked", "single_mode_a", "single_mode_dprime", "snl")

FORMS = """
import hashlib
import numpy as np
from cvswap.cli import DRAW_HIGH, DRAW_LOW
from cvswap.params import ExperimentParams, GainSpec
from cvswap.swap import build_network, verification_variances

def digest(params):
    handles = build_network(params)[1]
    arrays = [*verification_variances(params), handles.i_plus, handles.i_minus,
              handles.victor_plus, handles.victor_minus, handles.a, handles.dprime]
    return hashlib.sha256(b"".join(np.asarray(a).tobytes() for a in arrays)).hexdigest()

draws = np.random.default_rng(32).uniform(DRAW_LOW, DRAW_HIGH, size=(512, DRAW_LOW.size))
for size in range(1, 513):
    *physics, g_swap = draws[:size].T
    print(size, "draws", digest(ExperimentParams(*physics, gain=GainSpec("fixed", g_swap))))
for index, (*physics, g_swap) in enumerate(draws[:32].tolist()):
    print("point", index, digest(ExperimentParams(*physics, gain=GainSpec("fixed", g_swap))))
"""


def commands() -> list[list[str]]:
    """Each command's arguments after ``cvswap``, or ``["-c", code]`` for Python."""
    runs = []
    for config in CONFIGS:
        runs += [["predict", "--config", config],
                 ["predict", "--config", config, "--json", "--out", "predict.json"],
                 ["optimal-gain", "--config", config, "--json"]]
    for config in CONFIGS:
        stem = config.removesuffix(".yaml")
        for kind in KINDS:
            runs.append(["montecarlo", "--config", config, "--kind", kind, "--points", "100",
                         "--seed", "1", "--out", f"bytes-{stem}-{kind}.csv"])
    for config in PARSE_CONFIGS:
        stem = config.removesuffix(".yaml")
        runs += [["predict", "--config", config],
                 ["predict", "--config", config, "--json", "--out", "predict.json"],
                 ["montecarlo", "--config", config, "--kind", "correlated", "--seed", "1",
                  "--out", f"bytes-{stem}-correlated.csv"]]
    runs += [["verify", "--config", "example.yaml"],
             ["verify", "--config", "example.yaml", "--random", "200", "--seed", "1"],
             ["verify", "--config", "example.yaml", "--random", "20000", "--seed", "7"],
             ["verify", "--random", "3000", "--seed", "3"],
             ["sweep", "--config", "example.yaml", "--r1", "0", "1.5", "--r2", "0", "1.5",
              "--steps", "301", "--out", "grid.csv"]]
    for config in RANGE_CONFIGS:
        runs += [["predict", "--config", config], ["optimal-gain", "--config", config],
                 ["montecarlo", "--config", config, "--kind", "correlated", "--out", "range.csv"],
                 ["verify", "--config", config]]
    # the config point ahead of three draws: a batched 2 r past the float range
    runs += [["verify", "--config", "r1e308.yaml", "--random", "3"], ["-c", FORMS]]
    return runs


def edit(text: str, *edits: tuple[str, str]) -> str:
    for old, new in edits:
        text = re.sub(old, new, text)
    return text


def write_configs(checkout: pathlib.Path, directory: pathlib.Path) -> None:
    """The example config, the CI's fixed-gain and exponent-number edits of it, its
    flow-style and CRLF rewrites, and the out-of-range edits."""
    text = (checkout / "configs" / "example.yaml").read_text()
    blocked = ("# blocked: .*", "blocked: true")
    bodies = (text,
              edit(text, ("mode: optimal.*", "mode: fixed\n  value: 0.74"), ("enl_db: .*\n", "")),
              edit(text, ("r1: .*", "r1: 1.0e-05"), ("enl_db: .*", "enl_db: 1.0e+20")),
              yaml.safe_dump(yaml.safe_load(text), default_flow_style=True),
              text.replace("\n", "\r\n"),
              edit(text, ("xi1_sq: .*", "xi1_sq: 5e-324"), ("eta_sq: .*", "eta_sq: 5e-324"),
                   ("mirror_R: .*", "mirror_R: 0.99999999"),
                   ("mode: optimal.*", "mode: fixed\n  value: 0.5")),
              edit(text, ("r1: .*", "r1: 200"), ("r2: .*", "r2: 1")),
              edit(text, ("r1: .*", "r1: 400"), blocked),
              edit(text, ("r2: .*", "r2: 1e308"), blocked))
    for name, body in zip(CONFIGS + PARSE_CONFIGS + RANGE_CONFIGS, bodies, strict=True):
        (directory / name).write_bytes(body.encode())


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main() -> None:
    here = pathlib.Path(__file__).resolve().parent.parent
    checkout = pathlib.Path(sys.argv[1]).resolve() if len(sys.argv) > 1 else here
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    cli = "import sys; from cvswap.cli import main; sys.exit(main(sys.argv[1:]))"
    for args in commands():
        with tempfile.TemporaryDirectory() as tmp:
            directory = pathlib.Path(tmp)
            write_configs(checkout, directory)
            code = args if args[0] == "-c" else ["-c", cli, *args]
            done = subprocess.run([sys.executable, *code], cwd=directory, env=env,
                                  capture_output=True)
            label = "python forms" if args[0] == "-c" else "cvswap " + " ".join(args)
            print(sha256(done.stdout), f"{label}: stdout")
            print(sha256(done.stderr), f"{label}: stderr")
            print(sha256(str(done.returncode).encode()), f"{label}: exit code")
            for path in sorted(directory.iterdir()):
                if path.name not in CONFIGS + PARSE_CONFIGS + RANGE_CONFIGS:
                    print(sha256(path.read_bytes()), f"{label}: {path.name}")


if __name__ == "__main__":
    main()
