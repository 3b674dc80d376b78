"""In-memory span tracer that wraps cvswap's public functions from outside.

Only public module and class attributes are wrapped, and only while a traced
pass runs; ``uninstall`` restores the originals. A target that no longer
exists (renamed or deleted by a later change) is recorded with zero calls
and never stops the run. Span names are ``<module>.<function>`` so that
per-stage timings inside the program can reuse them.

A span records name, start, end, parent span and the workload operation it
belongs to. A layer's self time is the sum over its spans of the span's
duration minus the time its direct child spans cover; its busy time is the
duration of its outermost spans (those with no ancestor in the same layer).
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

LAYERS = ("cli", "config", "analytics", "swap", "gaussian", "montecarlo")

# (layer, module, class or None, attribute names or "*" for every public
# function defined in the module)
TARGETS = (
    ("config", "cvswap.config", "ConfigFile", ("load", "to_params")),
    ("analytics", "cvswap.analytics", None, "*"),
    ("swap", "cvswap.swap", None, ("build_network", "run_experiment")),
    ("gaussian", "cvswap.gaussian", "GaussianModel",
     ("add_vacuum_mode", "add_epr_pair", "beamsplitter", "loss", "displace_by_form",
      "covariance")),
    ("cli", "cvswap.cli", None, ("check_point",)),
    ("montecarlo", "cvswap.montecarlo", None, ("render_trace", "write_trace_csv")),
)

ROOT = "cli.main"
FORMULA = ("analytics.variance_formula", "analytics.optimal_gain")
MC_WRITE = "montecarlo.write_trace_csv"


@dataclass
class Tracer:
    """Span recorder; the wrappers it installs are pass-through unless ``recording``."""

    recording: bool = False
    op: int = -1
    spans: list = field(default_factory=list)
    names: list[str] = field(default_factory=list)
    layer_of: list[str] = field(default_factory=list)
    missing: list[str] = field(default_factory=list)
    failed: dict[str, int] = field(default_factory=lambda: dict.fromkeys(LAYERS, 0))
    _stack: list[tuple[int, str]] = field(default_factory=lambda: [(-1, "")])
    _restore: list = field(default_factory=list)
    _root: int = -1

    def _name_id(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layer_of.append(layer)
        return len(self.names) - 1

    def _wrap(self, fn, name: str, layer: str):
        name_id = self._name_id(name, layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            spans, stack = self.spans, self._stack
            index = len(spans)
            parent, parent_layer = stack[-1]
            spans.append(None)
            stack.append((index, layer))
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                if parent_layer != layer:  # count once per layer it leaves
                    self.failed[layer] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name_id, start, end, parent, self.op)

        return wrapper

    def install(self) -> None:
        self._root = self._name_id(ROOT, "cli")
        for layer, module_name, class_name, attrs in TARGETS:
            prefix = module_name.rsplit(".", 1)[1]
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(prefix)
                continue
            owner = module if class_name is None else getattr(module, class_name, None)
            if owner is None:
                self.missing.append(f"{prefix}.{class_name}")
                continue
            if attrs == "*":
                attrs = tuple(
                    n for n, obj in vars(module).items()
                    if not n.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == module_name
                )
            for attr in attrs:
                name = f"{prefix}.{attr}"
                raw = vars(owner).get(attr)
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapped = type(raw)(self._wrap(raw.__func__, name, layer))
                elif inspect.isfunction(raw):
                    wrapped = self._wrap(raw, name, layer)
                else:
                    self.missing.append(name)
                    continue
                self._restore.append((owner, attr, raw))
                setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)

    def call_root(self, fn, *args):
        """Run ``fn`` (the CLI entry point) as a root span of operation ``self.op``."""
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append((index, "cli"))
        self.recording = True
        start = perf_counter()
        try:
            return fn(*args)
        except BaseException:
            self.failed["cli"] += 1
            raise
        finally:
            end = perf_counter()
            self.recording = False
            self._stack.pop()
            self.spans[index] = (self._root, start, end, -1, self.op)

    # -- analysis --------------------------------------------------------------

    def summarize(self) -> dict:
        """Per-name call counts and per-layer self and busy seconds."""
        spans = self.spans
        child = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        bit = {layer: 1 << k for k, layer in enumerate(LAYERS)}
        ancestors = [0] * len(spans)  # bitmask of layers above each span
        calls = dict.fromkeys(self.names, 0)
        layer_calls = dict.fromkeys(LAYERS, 0)
        self_s = dict.fromkeys(LAYERS, 0.0)
        busy_s = dict.fromkeys(LAYERS, 0.0)
        name_self_s = dict.fromkeys(self.names, 0.0)
        root_s = 0.0
        for index, (name_id, start, end, parent, _) in enumerate(spans):
            layer = self.layer_of[name_id]
            duration = end - start
            if parent >= 0:
                ancestors[index] = ancestors[parent] | bit[self.layer_of[spans[parent][0]]]
            else:
                root_s += duration
            own = duration - child[index]
            calls[self.names[name_id]] += 1
            layer_calls[layer] += 1
            name_self_s[self.names[name_id]] += own
            self_s[layer] += own
            if not ancestors[index] & bit[layer]:
                busy_s[layer] += duration
        return {
            "spans": len(spans),
            "root_s": root_s,
            "calls": calls,
            "layer_calls": layer_calls,
            "self_s": self_s,
            "busy_s": busy_s,
            "name_self_s": name_self_s,
            "failed": dict(self.failed),
            "missing": list(self.missing),
        }

    def write(self, path: Path) -> None:
        """Write every span as gzip'd TSV, times in seconds from the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\top\n")
            for index, (name_id, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{index}\t{self.names[name_id]}\t{start - origin:.9f}\t"
                         f"{end - origin:.9f}\t{parent}\t{op}\n")
