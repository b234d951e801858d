"""Per-layer tracing of singlat from outside the library.

A layer is one package module.  ``Tracer.install`` replaces every public
function of a layer (the plain functions named in its ``__all__``) by a
timing wrapper, set as a module attribute.  Module globals are the module
dict, so calls between functions of one module (``fundamental_cycle``
calling ``is_negative_definite``) go through the wrappers too.  Self time
comes from a span stack: each span's busy time minus the busy time of the
wrapped calls made inside it.  ``lru_cache``s are found by their
``cache_info``, never by name.

Run as a script, this file is the traced form of the ``singlat`` command:
``python tracer.py <singlat args>`` behaves like the command line and writes
the raw trace to the JSON file named by ``PERFBENCH_TRACE_OUT``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import os
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("graph_lattice", "brieskorn", "ideal_oracle", "checks", "cli", "cone_homogeneous")

COUNTS = (
    "graph_lattice.vertices_processed",
    "brieskorn.star_vertices",
    "brieskorn.pg_terms",
    "ideal_oracle.box_points",
    "ideal_oracle.closure_candidates",
    "ideal_oracle.closure_minimal",
)


def layer_modules() -> list:
    return [importlib.import_module(f"singlat.{name}") for name in LAYERS]


def find_caches(modules) -> dict:
    """Every lru_cache bound on the given modules, keyed '<layer>.<attribute>'."""
    found = {}
    for mod in modules:
        layer = mod.__name__.rsplit(".", 1)[-1]
        for attr, value in vars(mod).items():
            if callable(getattr(value, "cache_info", None)) and callable(
                getattr(value, "cache_clear", None)
            ):
                found[f"{layer}.{attr}"] = value
    return found


def _box(a) -> int:
    return math.prod(a[: len(a) - 2])


def a_invariant(a) -> int:
    ell = math.lcm(*a)
    return (len(a) - 2) * ell - sum(ell // x for x in a)


class Tracer:
    """Spans and work counts for the wrapped layers; inactive until ``active``."""

    def __init__(self) -> None:
        self.active = False
        self.spans: dict[str, list] = {}  # name -> [calls, busy_s, self_s]
        self.counts: Counter = Counter()
        self.caches: dict = {}
        self._stack: list[float] = []
        self._seen: dict[str, set] = {}
        self._originals: list[tuple] = []

    def install(self, modules) -> None:
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for name in getattr(mod, "__all__", ()):
                fn = vars(mod).get(name)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    self._originals.append((mod, name, fn))
                    setattr(mod, name, self._wrap(f"{layer}.{name}", fn))
        self.caches = find_caches(modules)

    def uninstall(self) -> None:
        """Put the original functions back."""
        for mod, name, fn in self._originals:
            setattr(mod, name, fn)
        self._originals.clear()

    def reset(self) -> None:
        """Start a fresh measurement; the caller clears the caches."""
        self.spans.clear()
        self.counts.clear()
        self._seen.clear()

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        on_graph = name.startswith("graph_lattice.")
        count = _COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                busy = perf_counter() - t0
                inner = stack.pop()
                if stack:
                    stack[-1] += busy
                span = spans.get(name)
                if span is None:
                    span = spans[name] = [0, 0.0, 0.0]
                span[0] += 1
                span[1] += busy
                span[2] += busy - inner
            if on_graph and args and hasattr(args[0], "self_ints"):
                self.counts["graph_lattice.vertices_processed"] += args[0].n
            if count is not None:
                count(self, args, result)
            return result

        return traced

    def _first(self, name: str, a) -> bool:
        """True the first time this measurement sees tuple ``a`` at ``name``."""
        seen = self._seen.setdefault(name, set())
        key = tuple(a)
        if key in seen:
            return False
        seen.add(key)
        return True

    def snapshot(self) -> dict:
        """Raw, mergeable trace: spans, counts and cache hits/misses."""
        caches = {}
        for name, cache in self.caches.items():
            info = cache.cache_info()
            caches[name] = [info.hits, info.misses]
        return {
            "spans": {k: list(v) for k, v in self.spans.items()},
            "counts": dict(self.counts),
            "caches": caches,
        }


def _count_star(tr: Tracer, args, result) -> None:
    if tr._first("star", args[0]):
        tr.counts["brieskorn.star_vertices"] += 1 + sum(
            len(fam.chain) for fam in result.branch_families
        )


def _count_pg(tr: Tracer, args, result) -> None:
    if tr._first("pg", args[0]):
        tr.counts["brieskorn.pg_terms"] += max(a_invariant(tuple(args[0])) + 1, 0)


def _count_table(tr: Tracer, args, result) -> None:
    if tr._first("table", args[0]):
        tr.counts["ideal_oracle.box_points"] += _box(tuple(args[0]))


def _count_closure(tr: Tracer, args, result) -> None:
    box, k = _box(tuple(args[0])), args[1]
    tr.counts["ideal_oracle.box_points"] += box
    tr.counts["ideal_oracle.closure_candidates"] += box * (k + 1) * (k + 2) // 2
    tr.counts["ideal_oracle.closure_minimal"] += len(result)


_COUNTERS = {
    "brieskorn.dual_graph": _count_star,
    "brieskorn.geometric_genus": _count_pg,
    "ideal_oracle.quotient_table": _count_table,
    "ideal_oracle.closure_monomials": _count_closure,
}


def merge(into: dict, raw: dict) -> dict:
    """Add one raw trace into another (traces of separate processes)."""
    for name, (calls, busy, own) in raw["spans"].items():
        span = into["spans"].setdefault(name, [0, 0.0, 0.0])
        span[0] += calls
        span[1] += busy
        span[2] += own
    for name, value in raw["counts"].items():
        into["counts"][name] = into["counts"].get(name, 0) + value
    for name, (hits, misses) in raw["caches"].items():
        pair = into["caches"].setdefault(name, [0, 0])
        pair[0] += hits
        pair[1] += misses
    return into


def empty() -> dict:
    return {"spans": {}, "counts": {}, "caches": {}}


def layer_metrics(raw: dict) -> dict:
    """Flat per-layer metrics: '<layer>.<fn>.calls|busy_s|self_s', '<layer>.self_s',
    the work counts and '<layer>.<cache>.hit_ratio' (0 when a cache saw no call)."""
    out: dict[str, float] = {}
    layer_self: dict[str, float] = {layer: 0.0 for layer in LAYERS}
    for name, (calls, busy, own) in sorted(raw["spans"].items()):
        out[f"{name}.calls"] = calls
        out[f"{name}.busy_s"] = busy
        out[f"{name}.self_s"] = own
        layer_self[name.split(".", 1)[0]] += own
    for layer, own in layer_self.items():
        out[f"{layer}.self_s"] = own
    for name in COUNTS:
        out[name] = raw["counts"].get(name, 0)
    for name, (hits, misses) in sorted(raw["caches"].items()):
        out[f"{name}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    return out


def _main() -> int:
    """The singlat command line under the tracer."""
    from singlat import cli

    tracer = Tracer()
    tracer.install(layer_modules())
    tracer.active = True
    sys.argv = ["singlat", *sys.argv[1:]]
    code = 0
    try:
        cli.main()
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 0
    finally:
        tracer.active = False
        with open(os.environ["PERFBENCH_TRACE_OUT"], "w") as fh:
            json.dump(tracer.snapshot(), fh)
    return code


if __name__ == "__main__":
    sys.exit(_main())
