"""Per-layer spans and counts, recorded from outside the package.

The traced run replaces module attributes with timing wrappers.  A call
from one module into another is caught by wrapping the name the *calling*
module looks up (``fairstops.algorithms.route_costs``,
``fairstops.fairness.milp``); the benchmark's own calls go through the
package namespace (``fairstops.gc_trsp``).  Each wrapper records its span
and hands the span to the enclosing wrapper, so a layer's time is its self
time: its spans minus the spans of the wrapped calls made inside them.

Checks run through :meth:`Tracer.untraced`, so checking outputs adds
nothing to the layer totals.
"""

from __future__ import annotations

import importlib
import os
import time
from collections import defaultdict

#: (per-layer metric stem, attribute name, modules whose lookup is wrapped)
WRAPPED = (
    ("instances.random_euclidean", "random_euclidean", ("", "cli")),
    ("instances.generate", "generate", ("", "cli")),
    ("instances.read_instance", "read_instance", ("cli",)),
    ("instances.write_instance", "write_instance", ("", "cli")),
    ("model.route_costs", "route_costs", ("algorithms",)),
    ("model.solution_costs", "solution_costs", ("algorithms", "fairness", "cli")),
    ("model.validate_instance", "validate_instance", ("cli",)),
    ("algorithms.gc_trsp", "gc_trsp", ("", "cli")),
    ("algorithms.eca", "eca", ("", "cli")),
    ("algorithms.hybrid", "hybrid", ("", "cli")),
    ("fairness.jr_ratio", "jr_ratio", ("", "cli")),
    ("fairness.jr_violation", "jr_violation", ("", "cli")),
    ("fairness.core_ratio", "core_ratio", ("", "cli")),
    ("fairness.pf_ratio", "pf_ratio", ("", "cli")),
    ("fairness.milp", "milp", ("fairness",)),
)

#: Every per-layer metric, with its unit, in the order the run prints them.
METRICS = (
    ("import.fairstops_s", "s"),
    ("import.modules", "count"),
    ("instances.random_euclidean_s", "s"),
    ("instances.generate_s", "s"),
    ("instances.read_instance_s", "s"),
    ("instances.write_instance_s", "s"),
    ("instances.bytes", "bytes"),
    ("model.route_costs.calls", "count"),
    ("model.route_costs_s", "s"),
    ("model.solution_costs.calls", "count"),
    ("model.solution_costs_s", "s"),
    ("model.validate_instance_s", "s"),
    ("algorithms.gc_trsp_s", "s"),
    ("algorithms.eca_s", "s"),
    ("algorithms.hybrid_s", "s"),
    ("algorithms.trace_events", "count"),
    ("fairness.jr_ratio_s", "s"),
    ("fairness.jr_violation_s", "s"),
    ("fairness.core_ratio_s", "s"),
    ("fairness.core_ratio_milp_s", "s"),
    ("fairness.pf_ratio_s", "s"),
    ("fairness.milp.calls", "count"),
    ("fairness.milp_s", "s"),
    ("cli.gen_s", "s"),
    ("cli.run_s", "s"),
    ("cli.verify_s", "s"),
    ("cli.experiment_s", "s"),
)


class Tracer:
    """Self times and counts per layer, kept apart for set-up and the loop."""

    def __init__(self):
        self.setup = defaultdict(float)
        self.loop = defaultdict(float)
        self.bucket = self.setup
        self._open: list[float] = []  # child span time of each open span
        self._restore: list[tuple[object, str, object]] = []

    def span(self, stem: str, fn, *args, **kwargs):
        """Call ``fn`` under a span named ``stem``; return its result."""
        self._open.append(0.0)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            total = time.perf_counter() - t0
            child = self._open.pop()
            self.bucket[stem + "_s"] += total - child
            self.bucket[stem + ".calls"] += 1
            if self._open:
                self._open[-1] += total

    def untraced(self, fn):
        """``fn`` with its spans and counts discarded."""
        def call(*args, **kwargs):
            kept, self.bucket = self.bucket, defaultdict(float)
            try:
                return fn(*args, **kwargs)
            finally:
                self.bucket = kept

        return call

    def _wrapper(self, stem: str, fn):
        def traced(*args, **kwargs):
            name = stem
            if stem == "fairness.core_ratio" and kwargs.get("backend") == "milp":
                name = "fairness.core_ratio_milp"
            out = self.span(name, fn, *args, **kwargs)
            if stem.startswith("algorithms."):
                self.bucket["algorithms.trace_events"] += len(out[1].events)
            elif stem == "instances.read_instance":
                self.bucket["instances.bytes"] += os.path.getsize(args[0])
            elif stem == "instances.write_instance":
                self.bucket["instances.bytes"] += os.path.getsize(args[1])
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self, package) -> None:
        """Wrap every attribute in :data:`WRAPPED`."""
        for stem, attr, owners in WRAPPED:
            for owner in owners:
                module = importlib.import_module(f"{package.__name__}.{owner}") if owner else package
                original = getattr(module, attr)
                self._restore.append((module, attr, original))
                setattr(module, attr, self._wrapper(stem, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def totals(self, rounds: int) -> dict[str, float]:
        """Set-up totals plus the loop totals of one round (the loop's totals
        divided by the rounds completed)."""
        out = {}
        for name, _unit in METRICS:
            value = self.setup.get(name, 0.0) + self.loop.get(name, 0.0) / rounds
            out[name] = value
        return out
