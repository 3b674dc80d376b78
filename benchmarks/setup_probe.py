"""Set-up time of a fresh interpreter: import cvswap.cli, then the first config load.

Usage: python3 benchmarks/setup_probe.py CONFIG [--predict]
(with the repository's ``src`` on PYTHONPATH). Prints one JSON line of phase
times in seconds. With ``--predict`` it runs ``cvswap predict`` on CONFIG
after the imports instead of the bare config load.
"""

import time

_START = time.perf_counter()

import sys  # noqa: E402

import numpy  # noqa: E402,F401  (timed apart from cvswap's own imports)

_NUMPY = time.perf_counter()

import cvswap.cli  # noqa: E402

_CVSWAP = time.perf_counter()

if "--predict" in sys.argv[2:]:
    import contextlib
    import io

    with contextlib.redirect_stdout(io.StringIO()):
        rc = cvswap.cli.main(["predict", "--config", sys.argv[1]])
else:
    from cvswap.config import ConfigFile

    ConfigFile.load(sys.argv[1]).to_params()
    rc = 0
_END = time.perf_counter()

import json  # noqa: E402

print(json.dumps({
    "numpy_s": _NUMPY - _START,
    "cvswap_s": _CVSWAP - _NUMPY,
    "first_call_s": _END - _CVSWAP,
    "setup_s": _END - _START,
}))
sys.exit(rc)
