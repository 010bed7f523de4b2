"""In-memory timing spans around the public functions of the sgdnet modules.

`Tracer.install` wraps every public function and method of the listed
modules and rebinds each wrapper under every name that refers to the
original, in every sgdnet module. A `from .training import train` in
`evaluation` is therefore traced as well as `training.train` itself.

A span is (id, name, start_ns, end_ns, parent_id, run_id, flops). Spans stay
in memory; `summarize` turns them into per-function medians, call counts and
self times, which are a span's duration minus the time its children cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import statistics
import sys
import time
from collections import defaultdict

PACKAGE = "sgdnet"
MODULES = ("graph", "features", "diffusion", "model", "training", "evaluation")


def _diffusion_flops(args, kwargs) -> int:
    """Required flops of one K-step diffusion or adjoint call: each step does
    four sparse products, 2 * nnz * d flops per sign pair, so 2*2*nnz*d*K.
    The count is fixed by the operator, not by how it is implemented."""
    na, features, cfg = args[0], args[1], args[-1]
    nnz = na.na_plus.nnz + na.na_minus.nnz
    return 2 * 2 * nnz * features.shape[1] * cfg.k_steps


# Work counted at a span boundary, by span name.
WORK = {
    "diffusion.diffuse": _diffusion_flops,
    "diffusion.diffuse_adjoint": _diffusion_flops,
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.run_id = ""
        self.enabled = True
        self._stack: list[int] = []

    def span(self, name: str, fn, work=None):
        """Wrap `fn` so that each call records a span; `work(args, kwargs)`
        gives the flops of a call."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            with self._record(name, lambda: work(args, kwargs) if work else 0):
                return fn(*args, **kwargs)

        return wrapper

    def region(self, name: str, run_id: str):
        """A root span for one benchmark step, such as a set-up or a job unit;
        every span opened inside it carries `run_id`."""
        self.run_id = run_id
        return self._record(name)

    @contextlib.contextmanager
    def _record(self, name: str, flops=lambda: 0):
        parent = self._stack[-1] if self._stack else None
        sid = len(self.spans)
        self.spans.append(None)  # reserve the id; filled in on exit
        self._stack.append(sid)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[sid] = (sid, name, start, end, parent, self.run_id, flops())

    @contextlib.contextmanager
    def paused(self):
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def install(self) -> None:
        """Wrap the public functions and methods of the sgdnet modules."""
        loaded = [importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES]
        wrappers: dict[int, object] = {}
        for mod in loaded:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                    name = f"{short}.{obj.__qualname__}"
                    wrappers[id(obj)] = self.span(name, obj, WORK.get(name))
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_methods(short, obj)
        # Rebind every name that refers to a wrapped function, wherever it
        # is looked up.
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    setattr(mod, attr, wrappers[id(obj)])

    def _wrap_methods(self, short: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{short}.{cls.__qualname__}.{attr}"
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self.span(name, raw.__func__)))
            elif inspect.isfunction(raw) and not inspect.isgeneratorfunction(raw):
                setattr(cls, attr, self.span(name, raw))


def summarize(spans, run_prefix: str = "") -> dict[str, dict]:
    """Per span name: call count, median and total duration, median and total
    self time, and total flops, over the spans whose run id starts with
    `run_prefix`. Times are in seconds."""
    child_ns = defaultdict(int)
    for sid, _, start, end, parent, _, _ in spans:
        if parent is not None:
            child_ns[parent] += end - start
    groups = defaultdict(lambda: {"dur": [], "self": [], "flops": 0})
    for sid, name, start, end, _, run_id, flops in spans:
        if not run_id.startswith(run_prefix):
            continue
        g = groups[name]
        g["dur"].append((end - start) * 1e-9)
        g["self"].append((end - start - child_ns[sid]) * 1e-9)
        g["flops"] += flops
    return {
        name: {
            "calls": len(g["dur"]),
            "median_s": statistics.median(g["dur"]),
            "total_s": sum(g["dur"]),
            "median_self_s": statistics.median(g["self"]),
            "total_self_s": sum(g["self"]),
            "flops": g["flops"],
        }
        for name, g in sorted(groups.items())
    }


def check_nesting(spans) -> list[str]:
    """Problems with the span tree: a child outside its parent's interval,
    negative self time, or a span never closed."""
    problems = []
    by_id = {s[0]: s for s in spans if s is not None}
    if len(by_id) != len(spans):
        problems.append("unclosed span")
    child_ns = defaultdict(int)
    for sid, name, start, end, parent, _, _ in by_id.values():
        if end < start:
            problems.append(f"{name}#{sid} ends before it starts")
        if parent is None:
            continue
        _, pname, pstart, pend, _, _, _ = by_id[parent]
        if start < pstart or end > pend:
            problems.append(f"{name}#{sid} lies outside its parent {pname}#{parent}")
        child_ns[parent] += end - start
    for sid, name, start, end, *_ in by_id.values():
        if end - start - child_ns[sid] < 0:
            problems.append(f"{name}#{sid} has negative self time")
    return problems
