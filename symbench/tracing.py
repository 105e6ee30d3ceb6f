"""Span tracing for the traced benchmark run.

The tracer wraps public functions of symbreak's layers from outside the
package.  Callers often import a name directly (``from .perms import
automorphism_group``), so a wrapper is installed in every ``symbreak``
module namespace that holds the original function, not only in the module
that defines it.  Spans are aggregated per name as they close: calls,
inclusive time, self time (inclusive time minus the time of direct child
spans) and layer counters.  Nothing is written until the run ends.
"""

from __future__ import annotations

import dataclasses
import inspect
import sys
import time
from collections import defaultdict
from typing import Callable

from workloads import VERIFY_RULES

_INDEX_FUNCS = ("graph_indices", "distinguishing_number",
                "distinguishing_threshold", "phi_table", "phi_brute",
                "is_steady", "rooted_indices")


def _layer_units() -> dict[str, str]:
    """Per-layer metric names with their units, in report order.

    BENCHMARK.json's per_layer list names exactly these (the self-test
    checks it)."""
    units = {}

    def add(prefix, fields):
        for f in fields:
            units[f"{prefix}.{f}"] = {"calls": "count", "self_s": "s",
                                      "elements": "count",
                                      "elements_in": "count",
                                      "budget_errors": "count",
                                      "bytes": "B", "s": "s"}.get(f, "ratio")

    add("kernels.search_automorphisms",
        ("calls", "self_s", "elements", "budget_errors"))
    add("kernels.all_automorphisms_preserve_blocks",
        ("calls", "self_s", "false_share"))
    add("kernels.exists_distinguishing_partition",
        ("calls", "self_s", "elements_in", "true_share", "budget_errors"))
    add("kernels.count_distinguishing_partitions",
        ("calls", "self_s", "elements_in", "budget_errors"))
    add("perms.enumerate_automorphisms", ("calls", "self_s", "elements"))
    add("perms.automorphism_group", ("calls", "self_s"))
    add("perms.cache", ("hit_share",))
    for name in _INDEX_FUNCS:
        add(f"indices.{name}", ("calls", "self_s"))
    add("products.construct", ("self_s",))
    add("products.all_automorphisms_natural", ("calls", "self_s"))
    add("formulas", ("self_s",))
    add("graphs.is_isomorphic", ("calls", "self_s"))
    add("graph6.parse", ("self_s",))
    add("graph6.emit", ("self_s",))
    add("report.emit_report", ("calls", "self_s", "bytes"))
    add("cli.main", ("self_s",))
    for rule in VERIFY_RULES:
        add(verify_span(rule), ("s",))
    add("verify", ("self_s",))
    add("trace", ("overhead_share",))
    return units


def verify_span(rule_id: str) -> str:
    return "verify." + rule_id.replace(".", "_")


class Tracer:
    """Aggregates nested spans by name; see the module docstring."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._child_time: list[float] = []   # one entry per open span

    def wrap(self, name: str, fn: Callable,
             observe: Callable | None = None) -> Callable:
        """fn wrapped in a span named name.

        observe(counts, args, result, exc) runs as the span closes, with
        exactly one of result and exc set, to update the layer counters.
        """
        clock, child_time, counts = self.clock, self._child_time, self.counts

        def traced(*args, **kwargs):
            child_time.append(0.0)
            start = clock()
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                elapsed = clock() - start
                children = child_time.pop()
                if child_time:
                    child_time[-1] += elapsed
                self.calls[name] += 1
                self.total[name] += elapsed
                self.self_time[name] += elapsed - children
                if observe is not None:
                    observe(counts, args, result, exc)

        traced.__wrapped__ = fn
        return traced


# ---------------------------------------------------------------------------
# layer targets


def _observer(span: str, elements_in: bool = False,
              counted: tuple[str, Callable] | None = None) -> Callable:
    """Counter hook for a span: budget errors, the number of group elements
    passed in (second argument), and counted = (field, value) summing
    value(result) into <span>.<field>."""
    from symbreak.errors import BudgetExceededError

    def observe(counts, args, result, exc):
        if elements_in:
            counts[span + ".elements_in"] += len(args[1])
        if isinstance(exc, BudgetExceededError):
            counts[span + ".budget_errors"] += 1
        elif exc is None and counted is not None:
            field, value = counted
            counts[f"{span}.{field}"] += value(result)
    return observe


def _targets() -> list[tuple[str, str, str, Callable | None]]:
    """(module, attribute, span name, observer) for every wrapped name."""
    kernel = "symbreak.kernels"
    out = [(kernel, name, "kernels." + name,
            _observer("kernels." + name, elements_in, counted))
           for name, elements_in, counted in (
               ("search_automorphisms", False, ("elements", lambda r: r[0])),
               ("all_automorphisms_preserve_blocks", False,
                ("false", lambda r: 0 if r else 1)),
               ("exists_distinguishing_partition", True,
                ("true", lambda r: 1 if r else 0)),
               ("count_distinguishing_partitions", True, None))]
    out += [
        ("symbreak.perms", "enumerate_automorphisms",
         "perms.enumerate_automorphisms",
         _observer("perms.enumerate_automorphisms",
                   counted=("elements", lambda group: group.order))),
        ("symbreak.perms", "automorphism_group", "perms.automorphism_group",
         None),
        ("symbreak.products", "all_automorphisms_natural",
         "products.all_automorphisms_natural", None),
        ("symbreak.graphs", "is_isomorphic", "graphs.is_isomorphic", None),
        ("symbreak.graph6", "parse_graph6", "graph6.parse", None),
        ("symbreak.graph6", "parse_graph6_many", "graph6.parse", None),
        ("symbreak.graph6", "emit_graph6", "graph6.emit", None),
        ("symbreak.report", "emit_report", "report.emit_report",
         _observer("report.emit_report",
                   counted=("bytes", lambda text: len(text.encode())))),
        ("symbreak.cli", "main", "cli.main", None),
    ]
    out += [("symbreak.indices", name, f"indices.{name}", None)
            for name in _INDEX_FUNCS]
    out += [("symbreak.products", name, "products.construct", None)
            for name in ("vertex_sum", "rooted_product_smooth", "corona",
                         "lexicographic")]
    formulas = sys.modules["symbreak.formulas"]
    out += [("symbreak.formulas", name, "formulas", None)
            for name, fn in vars(formulas).items()
            if inspect.isfunction(fn) and not name.startswith("_")
            and fn.__module__ == "symbreak.formulas"]
    return out


class Installation:
    """Wrappers installed into symbreak's namespaces; undo() restores them."""

    def __init__(self, tracer: Tracer):
        import symbreak.cli  # noqa: F401  - loads every layer module
        import symbreak.verify as verify

        self.tracer = tracer
        self._undo: list[tuple[object, str, object]] = []
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None
                   and (name == "symbreak" or name.startswith("symbreak."))]
        for module_name, attr, span, observe in _targets():
            original = getattr(sys.modules[module_name], attr)
            wrapper = tracer.wrap(span, original, observe)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, name, wrapper)
        rules = tuple(
            dataclasses.replace(r, runner=tracer.wrap(verify_span(r.rule_id),
                                                      r.runner))
            for r in verify._RULES)
        self._set(verify, "_RULES", rules)
        self._set(verify, "RULES", {r.rule_id: r for r in rules})

    def _set(self, obj, name, value):
        self._undo.append((obj, name, getattr(obj, name)))
        setattr(obj, name, value)

    def undo(self) -> None:
        while self._undo:
            obj, name, value = self._undo.pop()
            setattr(obj, name, value)


def layer_metrics(tracer: Tracer, overhead_share: float) -> dict[str, float]:
    """Every per-layer metric by name; 0 where the layer was never called."""
    calls, self_time, counts = tracer.calls, tracer.self_time, tracer.counts

    def share(key, span):
        return counts[key] / calls[span] if calls[span] else 0.0

    out: dict[str, float] = {}
    for name in _layer_units():
        span, _, field = name.rpartition(".")
        if field == "calls":
            out[name] = calls[span]
        elif field == "self_s":
            if span == "verify":
                out[name] = sum(self_time[verify_span(r)]
                                for r in VERIFY_RULES)
            else:
                out[name] = self_time[span]
        elif field == "s":
            out[name] = tracer.total[span]
        elif field in ("false_share", "true_share"):
            out[name] = share(span + "." + field[:-len("_share")], span)
        elif field == "hit_share":
            group = calls["perms.automorphism_group"]
            out[name] = (1 - calls["perms.enumerate_automorphisms"] / group
                         if group else 0.0)
        elif field == "overhead_share":
            out[name] = overhead_share
        else:
            out[name] = counts[name]
    return out


LAYER_UNITS = _layer_units()
