"""Spans around calls into wflag's modules, installed from outside the package.

`Tracer.install` replaces every binding of a traced function: the defining
module's attribute, each ``from … import`` copy in another wflag module, and
class attributes (aliases such as ``__rmul__ = __mul__`` included).  Patching
only the defining module would miss the copies ``search.py`` calls.

A span is ``[name, start, end, parent]`` with ``time.monotonic`` stamps, so
spans of pool workers line up with the parent's.  Spans stay in memory; the
main process writes them at the end of the run, and a forked pool worker
rewrites its own file each time its outermost span closes, because the pool
may terminate it before it could write at exit.
"""
from __future__ import annotations

import json
import os
import time
from collections import Counter

# (span name, module, attribute); the name's prefix is the layer
FUNCTIONS = (
    ("cli.main", "wflag.cli", "main"),
    ("search.sweep_parameters", "wflag.search", "sweep_parameters"),
    ("search.search_embedding", "wflag.search", "search_embedding"),
    ("search.emit", "wflag.search", "_emit"),
    ("formats.enumerate_parameters", "wflag.formats", "enumerate_parameters"),
    ("formats.hilbert_series", "wflag.formats", "hilbert_series"),
    ("weyl.weyl_elements", "wflag.weyl", "weyl_elements"),
    ("orbifold.porb_cont", "wflag.orbifold", "porb_cont"),
    ("orbifold.qorb", "wflag.orbifold", "qorb"),
    ("orbifold.basket_kernel", "wflag.orbifold", "basket_kernel"),
    ("ratfun.poly_gcd", "wflag.ratfun", "poly_gcd"),
    ("records.load_cache", "wflag.records", "load_cache"),
)
METHODS = (
    ("ratfun.poly_mul", "wflag.ratfun", "UniPolynomial", "__mul__"),
    ("ratfun.poly_divmod", "wflag.ratfun", "UniPolynomial", "__divmod__"),
    ("ratfun.rf_add", "wflag.ratfun", "RationalFunction", "__add__"),
    ("ratfun.rf_eq", "wflag.ratfun", "RationalFunction", "__eq__"),
    ("records.write", "wflag.records", "ResultWriter", "write_candidate"),
    ("records.write", "wflag.records", "ResultWriter", "write_sweep_done"),
)
# cached functions whose misses are read from cache_info()
CACHED = ("formats.hilbert_series", "orbifold.qorb")


class Tracer:
    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: Counter[str] = Counter()
        self.enabled = True
        self.pid = os.getpid()
        self.main_pid = self.pid
        self._cached: dict[str, object] = {}
        self._misses0: dict[str, int] = {}

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        import importlib
        import sys

        import wflag.cli  # noqa: F401  (loads every wflag module)

        modules = [m for name, m in sys.modules.items() if name.startswith("wflag")]
        for name, modname, attr in FUNCTIONS:
            original = getattr(importlib.import_module(modname), attr)
            if name in CACHED:
                self._cached[name] = original
            wrapper = self.wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
        for name, modname, clsname, attr in METHODS:
            cls = getattr(importlib.import_module(modname), clsname)
            original = cls.__dict__[attr]
            wrapper = self.wrap(name, original)
            for key, value in list(vars(cls).items()):
                if value is original:
                    setattr(cls, key, wrapper)
        records = sys.modules["wflag.records"]
        for kind, emitter in list(records.EMITTERS.items()):
            records.EMITTERS[kind] = self.wrap("records.emit", emitter)
        self._misses0 = self._misses()

    def _misses(self) -> dict[str, int]:
        return {name: fn.cache_info().misses for name, fn in self._cached.items()}

    def wrap(self, name: str, fn):
        tracer = self
        spans = self.spans
        counting_types = name == "orbifold.porb_cont"

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if os.getpid() != tracer.pid:
                tracer._forked()
            stack = tracer.stack
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.monotonic()
                stack.pop()
                if not stack and tracer.pid != tracer.main_pid:
                    tracer.write()
            if counting_types:
                tracer.counters["orbifold.porb_cont.types"] += len(result[0])
            return result

        return traced

    def _forked(self) -> None:
        # a pool worker: drop the spans and counts it inherited from the parent
        self.pid = os.getpid()
        self.spans.clear()
        self.stack.clear()
        self.counters.clear()
        self._misses0 = self._misses()

    # -- output ----------------------------------------------------------------

    def write(self) -> None:
        now = self._misses()
        state = {
            "pid": self.pid,
            "spans": self.spans,
            "counters": dict(self.counters),
            "misses": {k: now[k] - self._misses0[k] for k in now},
        }
        path = os.path.join(self.out_dir, f"spans-{self.pid}.json")
        with open(path + ".tmp", "w", encoding="utf-8") as fh:
            json.dump(state, fh)
        os.replace(path + ".tmp", path)


# ---------------------------------------------------------------------------
# analysis (runs in the benchmark process, without wflag)


def load(out_dir: str) -> list[dict]:
    states = []
    for entry in sorted(os.listdir(out_dir)):
        if entry.startswith("spans-") and entry.endswith(".json"):
            with open(os.path.join(out_dir, entry), encoding="utf-8") as fh:
                states.append(json.load(fh))
    return states


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the durations of its direct children.

    Children of one span run one after another in a single thread, so their
    intervals do not overlap and subtracting their sum is exact.
    """
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def nearest_other_layer(spans: list[list], idx: int) -> str:
    """Layer of the closest ancestor outside the span's own layer."""
    layer = spans[idx][0].split(".")[0]
    parent = spans[idx][3]
    while parent >= 0:
        other = spans[parent][0].split(".")[0]
        if other != layer:
            return other
        parent = spans[parent][3]
    return "harness"


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total
