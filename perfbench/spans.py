"""Span recording around calls into the `sslab` modules, from outside them.

`Tracer.install()` replaces every public function of the seven package
modules at every place a module binds it (including names bound by
`from .x import y`), and the public methods and cached properties of
`Graph`, with wrappers that record a span: name, parent, start, end.
`Tracer.uninstall()` restores the originals, so untraced runs execute the
unmodified program.

Each thread keeps its own parent stack.  A span opened on a thread whose
stack is empty (a `sweep` worker) takes the innermost open span of the
installing thread as its parent, which is the `cli` command that submitted
the work.  Spans stay in memory until `write()`.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("graphs", "spectra", "homcounts", "sidorenko", "regularize", "supersat", "cli")
BACKTRACK = {"homcounts.hom_count", "homcounts.inj_count", "homcounts.aut_order"}
IO = {"graphs.read_edge_list", "graphs.write_edge_list"}
ROOT = "bench.repetition"


class Tracer:
    def __init__(self, package):
        self._pkg = package
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._saved: list[tuple[object, str, object]] = []
        self._main_stack: list[int] = []
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counts: Counter = Counter()

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn, post=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else 0)
            sid = next(self._ids)
            stack.append(sid)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self.spans.append((sid, parent, name, t0, t1))
            if post is not None:
                post(out)
            return out

        return traced

    def count(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.counts[key] += n

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()

    # -- installation ------------------------------------------------------

    def _post(self, name: str):
        if name == "supersat.heavy_prune":
            return lambda trace: self.count("supersat.prune_steps", len(trace.steps))
        if name.startswith("homcounts."):
            def method(out):
                m = getattr(out, "method", None)
                if m is not None:
                    self.count(f"homcounts.method.{m}.calls")
            return method
        return None

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        self._main_stack = self._stack()
        mods = [sys.modules[f"{self._pkg}.{layer}"] for layer in LAYERS]
        sites = [m for k, m in sys.modules.items() if k == self._pkg or k.startswith(self._pkg + ".")]
        wrapped = {}
        for layer, mod in zip(LAYERS, mods):
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrapped[id(fn)] = (fn, self.span(name, fn, self._post(name)))
        for site in sites:
            for attr, obj in list(vars(site).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(site, attr, hit[1])
        self._install_graph(sys.modules[f"{self._pkg}.graphs"].Graph)

    def _install_graph(self, cls) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"graphs.Graph.{attr}"
            if isinstance(obj, staticmethod):
                self._set(cls, attr, staticmethod(self.span(name, obj.__func__)))
            elif isinstance(obj, functools.cached_property):
                prop = functools.cached_property(self.span(name, obj.func))
                prop.__set_name__(cls, attr)
                self._set(cls, attr, prop)
            elif inspect.isfunction(obj):
                self._set(cls, attr, self.span(name, obj))
        init = cls.__init__

        def counted_init(obj, *args, **kwargs):
            self.count("graphs.built")
            init(obj, *args, **kwargs)

        self._set(cls, "__init__", counted_init)

    def _set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved = []

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the union of its children's intervals."""
        children = defaultdict(list)
        for sid, parent, _, t0, t1 in self.spans:
            children[parent].append((t0, t1))
        out = {}
        for sid, _, _, t0, t1 in self.spans:
            covered = 0.0
            end = t0
            for c0, c1 in sorted(children.get(sid, ())):
                c0, c1 = max(c0, end), min(c1, t1)
                if c1 > c0:
                    covered += c1 - c0
                    end = c1
            out[sid] = (t1 - t0) - covered
        return out

    def summary(self) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since the last reset."""
        selfs = self.self_times()
        m: dict[str, float] = defaultdict(float)
        by_id = {s[0]: s for s in self.spans}
        prune_total = 0.0
        for sid, parent, name, t0, t1 in self.spans:
            st = selfs[sid]
            layer, _, func = name.partition(".")
            m[f"{layer}.self_s"] += st
            m[f"{name}.self_s"] += st
            m[f"{name}.calls"] += 1
            if name in BACKTRACK:
                m["homcounts.backtrack.self_s"] += st
            if name in IO and by_id.get(parent, ("", 0, ""))[2] not in IO:
                m["graphs.io_s"] += t1 - t0
            if name == "supersat.heavy_prune":
                prune_total += t1 - t0
            if name == ROOT:
                m["bench.unattributed_s"] += st
        for key, n in self.counts.items():
            m[key] += n
        steps = m.get("supersat.prune_steps", 0)
        m["supersat.prune.s_per_step"] = prune_total / steps if steps else 0.0
        return dict(m)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for sid, parent, name, t0, t1 in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": t0, "end": t1}) + "\n")
