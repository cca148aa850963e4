"""Span tracing of permarray's public functions, from outside the package.

``Tracer.install`` replaces each traced public function with a wrapper in
every ``permarray`` module that holds it (modules import each other's
functions by name), so calls the package makes internally are recorded as
well as the benchmark's own calls. A span is ``[name, start, end, parent,
round, work]``; spans stay in memory until the run writes them out.

Per-element helpers (``weight``, ``hamming_distance``, ``factorial``,
``binomial``, ...) and the ``Permutation`` class are not traced: they run
once per permutation or per table lookup, and a span would cost more than
the work it times.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("exactmath", "perm", "bounds", "constructions", "search", "pafile", "cli")

UNTRACED = {
    "exactmath": {"factorial", "binomial", "derangement_count"},
    "perm": {"identity", "hamming_distance", "weight", "support", "compose", "inverse"},
    "cli": {"build_parser", "run"},
}

# Array constructors count as building (search and pafile build their
# results through them); the methods measure distances.
METHODS = {
    "constructions": (
        ("PermutationArray", "__init__"),
        ("PermutationArray", "min_distance"),
        ("BinaryCwCode", "__post_init__"),
        ("BinaryCwCode", "violations"),
    ),
}

ENUMERATE = {"perm.iterate_all", "perm.iterate_weight", "perm.iterate_derangements_on"}
SEARCH_EXACT = {"search.exact_p", "search.exact_p_cw", "search.exact_a_cw"}
BUILD = {
    "constructions.perfect_pa",
    "constructions.greedy_partial_steiner",
    "constructions.lift_binary_cw_code",
    "constructions.block_cycle_cwpa",
    "constructions.PermutationArray.__init__",
    "constructions.BinaryCwCode.__post_init__",
}
DUMP = {"pafile.dump_pa", "pafile.dump_cw", "pafile.write_pa", "pafile.write_cw"}
LOAD = {"pafile.load", "pafile.loads"}


def _work(name, args, result):
    """Work count a span carries: the amount of input or output it handled."""
    if name == "perm.distance_matrix":
        m = len(args[0])
        return 2 * m * m  # the int16 result matrix, computed from m
    if name in SEARCH_EXACT:
        return result.nodes
    if name == "search.verify_pa":
        return len(result)
    if name == "constructions.BinaryCwCode.violations":
        m = len(args[0].words)
        return m * (m - 1) // 2
    if name in ("pafile.dump_pa", "pafile.dump_cw"):
        return len(result.encode())
    if name == "pafile.loads":
        return len(args[0].encode())
    return 0


class Tracer:
    """Records spans for calls into permarray while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.round = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around the benchmark's own code."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _open(self, name: str) -> list:
        span = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1,
                self.round, 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        self._stack.pop()
        span[2] = time.perf_counter()

    def _wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                # The span runs from the first item to exhaustion, so it
                # includes the caller's per-item work (the weight filter of a
                # vertex list); it is the parent only while the body runs.
                it = fn(*args, **kwargs)
                span = self._open(name)
                sid = self._stack.pop()
                try:
                    while True:
                        self._stack.append(sid)
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                        finally:
                            self._stack.pop()
                        span[5] += 1
                        yield item
                finally:
                    span[2] = time.perf_counter()
            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            span[5] = _work(name, args, result)
            return result
        return traced

    def install(self, *callers) -> None:
        """Wrap every traced public function of the package, in its modules
        and in the ``callers`` modules that imported it by name."""
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "permarray" or key.startswith("permarray."))]
        modules.extend(callers)
        for layer in LAYERS:
            module = sys.modules[f"permarray.{layer}"]
            skip = UNTRACED.get(layer, set())
            for attr, fn in vars(module).items():
                if (attr.startswith("_") or attr in skip or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for holder in modules:
                    for key, value in vars(holder).items():
                        if value is fn:
                            self._patch(holder, key, wrapper)
            for cls_name, meth in METHODS.get(layer, ()):
                cls = getattr(module, cls_name)
                fn = vars(cls)[meth]
                self._patch(cls, meth, self._wrap(f"{layer}.{cls_name}.{meth}", fn))

    def _patch(self, holder, key: str, value) -> None:
        self._patched.append((holder, key, getattr(holder, key)))
        setattr(holder, key, value)

    def uninstall(self) -> None:
        for holder, key, value in reversed(self._patched):
            setattr(holder, key, value)
        self._patched.clear()


def span_cost(calls: int = 10_000, repeats: int = 5) -> float:
    """Measured seconds one traced call adds: the median over ``repeats`` of
    (time of ``calls`` traced no-op calls - time of as many plain ones) / calls."""
    def noop():
        return None

    traced = Tracer()._wrap("probe.noop", noop)
    costs = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            traced()
        middle = time.perf_counter()
        for _ in range(calls):
            noop()
        costs.append(((middle - start) - (time.perf_counter() - middle)) / calls)
    return sorted(costs)[repeats // 2]


def _union(intervals) -> float:
    total, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi > end:
            total += hi - max(lo, end)
            end = hi
    return total


def layer_metrics(spans: list[list], round_index: int) -> dict[str, float]:
    """Per-layer numbers for the spans of one round."""
    ids = [i for i, s in enumerate(spans) if s[4] == round_index]
    children = defaultdict(list)
    for i in ids:
        if spans[i][3] >= 0:
            children[spans[i][3]].append(i)

    def self_time(i):
        s = spans[i]
        return (s[2] - s[1]) - _union((spans[c][1], spans[c][2]) for c in children[i])

    def outermost(names):
        """Time covered by spans in ``names``, not counting a span nested
        inside another of them."""
        total = 0.0
        for i in ids:
            if spans[i][0] not in names:
                continue
            parent = spans[i][3]
            while parent >= 0 and spans[parent][0] not in names:
                parent = spans[parent][3]
            if parent < 0:
                total += spans[i][2] - spans[i][1]
        return total

    def work(names):
        return sum(spans[i][5] for i in ids if spans[i][0] in names)

    out: dict[str, float] = {}
    for layer in LAYERS:
        mine = [i for i in ids if spans[i][0].startswith(layer + ".")]
        out[f"{layer}.self_s"] = sum(self_time(i) for i in mine)
        out[f"{layer}.calls"] = len(mine)
    search_self = sum(self_time(i) for i in ids if spans[i][0] in SEARCH_EXACT)
    nodes = work(SEARCH_EXACT)
    out.update({
        "perm.enumerate_s": outermost(ENUMERATE),
        "perm.vertices": work({"perm.iterate_all", "perm.iterate_weight"}),
        "perm.distance_matrix_s": outermost({"perm.distance_matrix"}),
        "perm.distance_matrix_bytes": work({"perm.distance_matrix"}),
        "search.exact_s": outermost(SEARCH_EXACT),
        "search.nodes": nodes,
        "search.us_per_node": 1e6 * search_self / nodes if nodes else 0.0,
        "search.verify_pa_s": outermost({"search.verify_pa"}),
        "search.violations": work({"search.verify_pa"}),
        "constructions.build_s": outermost(BUILD),
        "constructions.min_distance_s": outermost({"constructions.PermutationArray.min_distance"}),
        "constructions.violations_pairs": work({"constructions.BinaryCwCode.violations"}),
        "pafile.dump_s": outermost(DUMP),
        "pafile.load_s": outermost(LOAD),
        "pafile.bytes": work({"pafile.dump_pa", "pafile.dump_cw", "pafile.loads"}),
        "bounds.best_upper_bound_s": outermost({"bounds.best_upper_bound"}),
        "bounds.cells": sum(1 for i in ids if spans[i][0] == "bounds.best_upper_bound"),
        "exactmath.ball_volume_s": outermost({"exactmath.ball_volume"}),
    })
    return out


def parent_links(spans: list[list]) -> dict[tuple[str, str], tuple[int, float]]:
    """(parent layer, child name) -> (calls, seconds), over every span."""
    links: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0])
    for s in spans:
        parent = spans[s[3]][0].split(".")[0] if s[3] >= 0 else "-"
        link = links[(parent, s[0])]
        link[0] += 1
        link[1] += s[2] - s[1]
    return {k: (v[0], v[1]) for k, v in links.items()}
