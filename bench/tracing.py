"""Span tracing at cpflow's module boundaries, from outside the package.

A traced pass rebinds the module attributes that callers look up (for
example ``cpflow.flow.evaluate`` or ``cpflow.cli.check_mincut``) to
wrappers that record a span per call: name, start, end and the index of
the enclosing span.  Spans stay in memory until the pass ends.  A layer's
self time is the sum of its spans' durations minus the time covered by
their child spans.

A boundary whose name no longer exists is skipped; the layer metrics that
depend on it are then reported as absent (``None``).
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict
from pathlib import Path

# (module, attribute, span name).  An attribute "Class.prop" names a
# cached property, wrapped at its getter.
BOUNDARIES = (
    ("cpflow.geometry", "_edge_kernel", "geometry.kernel"),
    ("cpflow.flow", "evaluate", "curvature.evaluate"),
    ("cpflow.cli", "evaluate", "curvature.evaluate"),
    ("cpflow.instancefile", "evaluate", "curvature.evaluate"),
    ("cpflow.curvature", "CurvatureState.eigenvalues", "curvature.spectrum"),
    ("cpflow.flow", "run", "flow.run"),
    ("cpflow.cli", "run", "flow.run"),
    ("cpflow.flow", "check_mincut", "feasibility.mincut"),
    ("cpflow.cli", "check_mincut", "feasibility.mincut"),
    ("cpflow.cli", "check_bruteforce", "feasibility.bruteforce"),
    ("cpflow.cli", "parse_instance", "instancefile.parse"),
    ("cpflow.cli", "write_trace", "instancefile.write"),
    ("cpflow.cli", "write_solution", "instancefile.write"),
    ("cpflow.surface", "validate", "surface.validate"),
    ("cpflow.cli", "main", "cli.main"),
)

# Per-layer metric -> (unit, span names it needs).
METRICS = {
    "geometry.kernel_calls": ("count", {"geometry.kernel"}),
    "geometry.kernel_s": ("s", {"geometry.kernel"}),
    "geometry.edges_per_s": ("1/s", {"geometry.kernel"}),
    "curvature.evaluate_calls": ("count", {"curvature.evaluate"}),
    "curvature.evaluate_self_s": ("s", {"curvature.evaluate"}),
    "curvature.spectrum_calls": ("count", {"curvature.spectrum"}),
    "curvature.spectrum_s": ("s", {"curvature.spectrum"}),
    "flow.runs": ("count", {"flow.run"}),
    "flow.accepted_steps": ("count", {"flow.run"}),
    "flow.evals_per_step": ("ratio", {"flow.run", "curvature.evaluate"}),
    "flow.self_s": ("s", {"flow.run"}),
    "flow.calabi_s": ("s", {"flow.run"}),
    "flow.curvature_s": ("s", {"flow.run"}),
    "flow.newton_s": ("s", {"flow.run"}),
    "feasibility.mincut_calls": ("count", {"feasibility.mincut"}),
    "feasibility.mincut_s": ("s", {"feasibility.mincut"}),
    "feasibility.bruteforce_calls": ("count", {"feasibility.bruteforce"}),
    "feasibility.bruteforce_s": ("s", {"feasibility.bruteforce"}),
    "feasibility.cert_kept_ratio": ("ratio", {"flow.run", "feasibility.mincut"}),
    "instancefile.parse_calls": ("count", {"instancefile.parse"}),
    "instancefile.parse_s": ("s", {"instancefile.parse"}),
    "instancefile.write_s": ("s", {"instancefile.write"}),
    "instancefile.bytes_written": ("B", {"instancefile.write"}),
    "surface.validate_s": ("s", {"surface.validate"}),
    "cli.self_s": ("s", {"cli.main"}),
    "cli.check_s": ("s", {"cli.main"}),
    "cli.solve_s": ("s", {"cli.main"}),
}


class Tracer:
    """Records spans and boundary counters while installed."""

    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self.run_s = defaultdict(float)  # inclusive flow.run time per method
        self.cli_s = defaultdict(float)  # inclusive cli.main time per command
        self.present: set[str] = set()
        self._stack: list[int] = []
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn, site: str):
        spans, stack, after = self.spans, self._stack, self._after

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            after(name, site, args, result, span[2] - span[1])
            return result

        return wrapper

    def _after(self, name, site, args, result, duration) -> None:
        counts = self.counts
        if name == "geometry.kernel":
            counts["edges"] += len(args[0])
        elif name == "curvature.evaluate" and site == "cpflow.flow":
            counts["flow_evaluate_calls"] += 1
        elif name == "flow.run":
            method = result.method
            self.run_s[method] += duration
            # Newton samples are iterations; flow samples are accepted steps.
            counts["accepted_steps"] += len(result.samples) - 1
            counts["certificates"] += result.certificate is not None
        elif name == "feasibility.mincut" and site == "cpflow.flow":
            counts["flow_mincut_calls"] += 1
        elif name == "instancefile.write":
            counts["bytes"] += args[0].tell()
        elif name == "cli.main":
            self.cli_s[args[0][0]] += duration

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        for module_name, attr, name in BOUNDARIES:
            module = importlib.import_module(module_name)
            owner, _, prop = attr.rpartition(".")
            if owner:
                cls = getattr(module, owner, None)
                cached = cls.__dict__.get(prop) if cls is not None else None
                if not isinstance(cached, functools.cached_property):
                    continue
                wrapped = functools.cached_property(
                    self._wrap(name, cached.func, module_name))
                wrapped.__set_name__(cls, prop)
                setattr(cls, prop, wrapped)
                self._undo.append((cls, prop, cached))
            else:
                fn = getattr(module, attr, None)
                if fn is None:
                    continue
                setattr(module, attr, self._wrap(name, fn, module_name))
                self._undo.append((module, attr, fn))
            self.present.add(name)

    def uninstall(self) -> None:
        while self._undo:
            target, attr, original = self._undo.pop()
            setattr(target, attr, original)

    # -- results -----------------------------------------------------------

    def _totals(self):
        """Per span name: call count, inclusive seconds, self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, incl, own = Counter(), defaultdict(float), defaultdict(float)
        for (name, start, end, _), inner in zip(self.spans, child):
            calls[name] += 1
            incl[name] += end - start
            own[name] += end - start - inner
        return calls, incl, own

    def metrics(self) -> dict[str, dict]:
        calls, incl, own = self._totals()
        c = self.counts
        steps = c["accepted_steps"]
        flow_mincut = c["flow_mincut_calls"]
        values = {
            "geometry.kernel_calls": calls["geometry.kernel"],
            "geometry.kernel_s": own["geometry.kernel"],
            "geometry.edges_per_s": (c["edges"] / own["geometry.kernel"]
                                     if own["geometry.kernel"] else 0.0),
            "curvature.evaluate_calls": calls["curvature.evaluate"],
            "curvature.evaluate_self_s": own["curvature.evaluate"],
            "curvature.spectrum_calls": calls["curvature.spectrum"],
            "curvature.spectrum_s": incl["curvature.spectrum"],
            "flow.runs": calls["flow.run"],
            "flow.accepted_steps": steps,
            "flow.evals_per_step": c["flow_evaluate_calls"] / steps if steps else 0.0,
            "flow.self_s": own["flow.run"],
            "flow.calabi_s": self.run_s["calabi"],
            "flow.curvature_s": self.run_s["curvature"],
            "flow.newton_s": self.run_s["newton"],
            "feasibility.mincut_calls": calls["feasibility.mincut"],
            "feasibility.mincut_s": incl["feasibility.mincut"],
            "feasibility.bruteforce_calls": calls["feasibility.bruteforce"],
            "feasibility.bruteforce_s": incl["feasibility.bruteforce"],
            "feasibility.cert_kept_ratio": (c["certificates"] / flow_mincut
                                            if flow_mincut else 0.0),
            "instancefile.parse_calls": calls["instancefile.parse"],
            "instancefile.parse_s": own["instancefile.parse"],
            "instancefile.write_s": own["instancefile.write"],
            "instancefile.bytes_written": c["bytes"],
            "surface.validate_s": incl["surface.validate"],
            "cli.self_s": own["cli.main"],
            "cli.check_s": self.cli_s["check"],
            "cli.solve_s": self.cli_s["solve"],
        }
        out = {}
        for name, (unit, needs) in METRICS.items():
            value = values[name] if needs <= self.present else None
            out[name] = {"value": value, "unit": unit}
        return out

    def write_spans(self, path: Path) -> None:
        """Spans as tab-separated rows: index, name, start, end, parent."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("index\tname\tstart\tend\tparent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start!r}\t{end!r}\t{parent}\n")
