"""Per-layer spans recorded from outside the library.

`Tracer` replaces each layer function named in `LAYERS` with a wrapper, at
every place the function object is bound in a loaded `twobytwo` module.  The
binding sites matter: `verify`, `cli` and `render.figures` use
`from .equilibria import cce_polytope`, so patching only the defining module
would miss their calls.  Each call records a span (name, tag, start, end,
parent span, op id) in memory; `layer_table` turns the spans into call counts,
total time and self time (a span's duration minus the time its child spans
cover).  Leaving a `with` block puts every original function back.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable

VERIFY_CHECKS = (
    "check_ne_grid",
    "check_ne_samples",
    "check_cce",
    "check_affine_invariance",
    "check_permute_equivariance",
    "check_embedding_consistency",
)


def _count_vertices(counters, args, result):
    counters["equilibria.cce_polytope.vertices"] += len(result.vertices)


def _count_grid_points(counters, args, result):
    counters["kernels.grid_oracle.points"] += (args[0] + 1) ** 2


def _count_prims(counters, args, result):
    counters["render.scene.prims"] += len(result.prims)


def _count_bytes(counters, args, result):
    counters["render.bytes"] += len(result.encode("utf-8"))


@dataclass(frozen=True)
class Layer:
    name: str
    module: str
    attr: str
    observe: Callable | None = None  # (counters, args, result) -> None
    tag: Callable | None = None  # args -> a sub-name for the span, such as the figure kind


LAYERS = (
    Layer("cli.main", "twobytwo.cli", "main"),
    Layer("core.as_rational", "twobytwo.core", "as_rational"),
    Layer("core.permute", "twobytwo.core", "permute"),
    Layer("core.transform_affine", "twobytwo.core", "transform_affine"),
    Layer("equilibria.cce_polytope", "twobytwo.equilibria", "cce_polytope", _count_vertices),
    Layer("equilibria.nash_set", "twobytwo.equilibria", "nash_set"),
    Layer("equilibria.joint_in_cce", "twobytwo.equilibria", "joint_in_cce"),
    Layer("equilibria.is_nash", "twobytwo.equilibria", "is_nash"),
    Layer("graphs.br_graph", "twobytwo.graphs", "br_graph"),
    Layer("graphs.br_class", "twobytwo.graphs", "br_class"),
    Layer("graphs.ordinal_graph", "twobytwo.graphs", "ordinal_graph"),
    Layer("embedding.embed", "twobytwo.embedding", "embed"),
    Layer("kernels.grid_oracle", "twobytwo.kernels", "grid_oracle", _count_grid_points),
    *(Layer(f"verify.{check}", "twobytwo.verify", check) for check in VERIFY_CHECKS),
    Layer("render.build_scene", "twobytwo.render.figures", "build_scene", _count_prims,
          tag=lambda args: args[0].kind.value),
    Layer("render.to_svg", "twobytwo.render.canvas", "to_svg", _count_bytes),
    Layer("render.to_tikz", "twobytwo.render.canvas", "to_tikz", _count_bytes),
    Layer("render.load_points", "twobytwo.render.files", "load_points"),
    Layer("render.load_matrix", "twobytwo.render.files", "load_matrix"),
)


class Tracer:
    """Records a span per call of every layer in `LAYERS` while inside a `with` block.

    The same tracer can be entered many times; its spans and counters add up.
    """

    def __init__(self):
        self.spans: list[list] = []  # [name, tag, start_ns, end_ns, parent index, op id]
        self.counters: Counter = Counter()
        self.missing: list[str] = []  # layers the loaded program does not define
        self.op = -1
        self._stack: list[int] = []
        self._sites: list[tuple[object, str, object, object]] | None = None  # module, key, original, wrapper
        self._patched: list[tuple[object, str, object]] = []

    def _binding_sites(self) -> list[tuple[object, str, object, object]]:
        modules = [m for n, m in list(sys.modules.items()) if n == "twobytwo" or n.startswith("twobytwo.")]
        sites = []
        for layer in LAYERS:
            original = getattr(sys.modules.get(layer.module), layer.attr, None)
            if original is None:
                self.missing.append(layer.name)
                continue
            wrapper = self._wrap(layer, original)
            for module in modules:
                sites.extend((module, key, original, wrapper)
                             for key, value in list(vars(module).items()) if value is original)
        return sites

    def __enter__(self) -> "Tracer":
        if self._sites is None:
            self._sites = self._binding_sites()
        try:
            for module, key, original, wrapper in self._sites:
                setattr(module, key, wrapper)
                self._patched.append((module, key, original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def _wrap(self, layer: Layer, fn):
        spans, stack, counters, clock = self.spans, self._stack, self.counters, time.perf_counter_ns
        name, observe, tag_of = layer.name, layer.observe, layer.tag

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, tag_of(args) if tag_of else None, 0, 0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(record)
            record[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()
            if observe is not None:
                observe(counters, args, result)
            return result

        return traced

    def layer_table(self) -> dict[str, dict[str, int]]:
        """Calls, total and self nanoseconds per layer, and per `layer.tag` when tagged."""
        covered = [0] * len(self.spans)
        for _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        table: dict[str, dict[str, int]] = {}
        for index, (name, tag, start, end, _, _) in enumerate(self.spans):
            duration = end - start
            for key in (name, f"{name}.{tag}") if tag else (name,):
                row = table.setdefault(key, {"calls": 0, "total_ns": 0, "self_ns": 0})
                row["calls"] += 1
                row["total_ns"] += duration
                row["self_ns"] += duration - covered[index]
        return table


# Per-layer metrics, all per op of the traced run: (metric, unit, layer, field).
_CALLS = ("core.as_rational", "core.permute", "core.transform_affine", "equilibria.cce_polytope",
          "equilibria.nash_set", "equilibria.joint_in_cce", "equilibria.is_nash",
          "graphs.br_graph", "embedding.embed", "kernels.grid_oracle")
_SELF = ("cli.main", "core.as_rational", "equilibria.cce_polytope", "equilibria.nash_set",
         "equilibria.joint_in_cce", "equilibria.is_nash", "graphs.br_class", "graphs.ordinal_graph",
         "embedding.embed", "kernels.grid_oracle",
         *(f"verify.{check}" for check in VERIFY_CHECKS),
         "render.build_scene", "render.build_scene.embedding", "render.to_svg", "render.to_tikz",
         "render.load_points", "render.load_matrix")
_TOTAL = (*(f"verify.{check}" for check in VERIFY_CHECKS), "render.build_scene.polytope")

PER_OP = (
    *((f"{layer}.calls", "calls/op", layer, "calls") for layer in _CALLS),
    *((f"{layer}.self_ms", "ms/op", layer, "self_ns") for layer in _SELF),
    *((f"{layer}.total_ms", "ms/op", layer, "total_ns") for layer in _TOTAL),
)
# Ratios: (metric, unit).
RATIOS = (
    ("equilibria.cce_polytope.vertices_per_call", "vertices/call"),
    ("kernels.grid_oracle.mpoints_per_s", "Mpoints/s"),
    ("render.scene.prims_per_op", "prims/op"),
    ("render.bytes_per_op", "bytes/op"),
    ("trace.overhead_pct", "%"),
)
METRIC_UNITS = {name: unit for name, unit, *_ in PER_OP} | dict(RATIOS)


def layer_metrics(table, counters, ops: int, overhead_pct: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as (value, unit).

    A layer that never ran on the workload reads 0: no calls, no time, and 0
    for its ratios, which are undefined there.
    """
    def field(layer, key):
        return table.get(layer, {}).get(key, 0)

    metrics = {}
    for name, unit, layer, key in PER_OP:
        value = field(layer, key) / ops
        metrics[name] = (value / 1e6 if key.endswith("_ns") else value, unit)
    polytopes = field("equilibria.cce_polytope", "calls")
    grid_ns = field("kernels.grid_oracle", "total_ns")
    values = (
        counters["equilibria.cce_polytope.vertices"] / polytopes if polytopes else 0.0,
        counters["kernels.grid_oracle.points"] / grid_ns * 1e3 if grid_ns else 0.0,
        counters["render.scene.prims"] / ops,
        counters["render.bytes"] / ops,
        overhead_pct,
    )
    for (name, unit), value in zip(RATIOS, values):
        metrics[name] = (value, unit)
    return metrics
