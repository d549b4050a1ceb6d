"""Span tracing installed from outside the package, for the traced run.

`install` wraps the public functions named in SPANS and METHODS and patches
every galoispairs module that bound them, so no module is edited. Each
wrapped call is a span whose parent is the innermost open span. Spans are
folded into a calling-context tree in memory: one node per path of span
names from the job's root, with its call count, total time and self time
(its duration minus the time its child spans cover). Per-element
arithmetic (compose, apply, PrimeField ops) is not wrapped, because a
wrapper there costs as much as the call; its cost shows as the caller's
self time.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter

SPANS = {
    "cli": ("main",),
    "verify": ("verify_prime",),
    "cases": ("case_subgroups",),
    "criterion": ("subgroups_from_dict", "check_pair", "check_pair_all_basepoints"),
    "subgroups": ("generate_closure", "recognize", "orbit", "conjugate", "intersect"),
    "quotient": ("invariant_generator", "moebius_adjust", "emit_parametrization"),
    "implicitize": ("implicit_degree",),
    "search": ("run_search", "find_cyclic_regular", "find_scaling_conjugates"),
}
# (module, class, attribute, span name)
METHODS = (
    ("projline", "ProjectiveLine", "element_order", "projline.ProjectiveLine.element_order"),
    ("polys", "Poly", "__mul__", "polys.Poly.mul"),
    ("polys", "Poly", "gcd", "polys.Poly.gcd"),
)
ROOT = "job"
SEARCH = "search.run_search"


class Tracer:
    """Open-span stack plus the calling-context tree of one job."""

    def __init__(self):
        self.nodes: dict[tuple, list] = {}   # path -> [calls, total_s, self_s]
        self.counters: Counter = Counter()
        self.stack: list[list] = []          # [path, child_s] per open span

    def span(self, name, fn, observe=None):
        stack, nodes = self.stack, self.nodes

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            path = stack[-1][0] + (name,) if stack else (name,)
            frame = [path, 0.0]
            stack.append(frame)
            result = exc = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                dur = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                node = nodes.get(path)
                if node is None:
                    node = nodes[path] = [0, 0.0, 0.0]
                node[0] += 1
                node[1] += dur
                node[2] += dur - frame[1]
                if observe is not None:
                    observe(self.counters, path, result, exc)

        return wrapper

    def run(self, fn, *args):
        """Call fn(*args) as the job's root span."""
        return self.span(ROOT, fn)(*args)

    def record(self) -> dict:
        return {"nodes": [[list(path), *node] for path, node in self.nodes.items()],
                "counters": dict(self.counters)}


def _under_search(path) -> bool:
    return len(path) > 1 and path[-2] == SEARCH


def _observe_closure(counters, path, result, exc):
    search = _under_search(path)
    if search:
        counters["search.candidates"] += 1
    if exc is not None:
        if type(exc).__name__ == "ClosureCapExceeded":
            counters["subgroups.generate_closure.cap_exceeded"] += 1
            if search:
                counters["search.cap_exceeded"] += 1
    else:
        counters["subgroups.generate_closure.elements"] += len(result)


def _observe_conjugate(counters, path, result, exc):
    if _under_search(path):
        counters["search.candidates"] += 1


def _observe_all_basepoints(counters, path, result, exc):
    if result is not None and result.verdict == "pass":
        counters["criterion.check_pair_all_basepoints.passes"] += 1
        if _under_search(path):
            counters["search.passes"] += 1


def install(package) -> Tracer:
    """Wrap the traced names in every loaded galoispairs module."""
    tracer = Tracer()
    # the kinds the running search asks for, so that a recognize() result
    # directly under run_search can be counted as neither requested kind
    search_kinds = []

    def remember_kinds(run_search):
        def call(cfg):
            search_kinds[:] = (cfg.kind1, cfg.kind2)
            return run_search(cfg)
        return call

    def observe_recognize(counters, path, result, exc):
        if _under_search(path) and result is not None and result not in search_kinds:
            counters["search.wrong_kind"] += 1

    observers = {
        "subgroups.generate_closure": _observe_closure,
        "subgroups.conjugate": _observe_conjugate,
        "subgroups.recognize": observe_recognize,
        "criterion.check_pair_all_basepoints": _observe_all_basepoints,
    }
    prefix = package.__name__ + "."
    modules = [m for key, m in sorted(sys.modules.items())
               if m is not None and (key == package.__name__ or key.startswith(prefix))]
    for mod_name, names in SPANS.items():
        home = sys.modules[prefix + mod_name]
        for attr in names:
            original = getattr(home, attr)
            span_name = f"{mod_name}.{attr}"
            fn = remember_kinds(original) if span_name == SEARCH else original
            wrapper = tracer.span(span_name, fn, observers.get(span_name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
    for mod_name, cls_name, attr, span_name in METHODS:
        cls = getattr(sys.modules[prefix + mod_name], cls_name)
        setattr(cls, attr, tracer.span(span_name, getattr(cls, attr)))
    return tracer
