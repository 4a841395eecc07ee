"""In-memory span tracer that instruments hsskit from outside the package.

A span records (id, name, start, end, parent, op): ``parent`` is the id of
the enclosing span (-1 at the top) and ``op`` the id of the benchmark
operation that caused it.  Spans stay in memory until :meth:`Tracer.dump`.

:func:`instrument` replaces every public function of the layer modules with a
span-recording wrapper.  hsskit modules import each other's functions by name
(``from .kernels import nullspace_basis``), so a function is patched in every
``hsskit`` namespace that holds it, the package itself included; the returned
:class:`Patch` puts every original object back.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import namedtuple
from contextlib import contextmanager

LAYER_MODULES = (
    "kernels",
    "sketching",
    "oracle",
    "matvec",
    "structures",
    "greedy",
    "blr2",
    "testbed",
    "formats",
    "experiment",
)

Span = namedtuple("Span", "id name start end parent op")

# Every span and every timed operation reads the CPU time of this process.
# On a shared host, the time the hypervisor gives the vCPU to others or the
# guest scheduler gives other processes is not counted, while the wall clock
# would count it; for this single-threaded caller the two agree otherwise.
CLOCK = time.process_time


class Tracer:
    """Records nested spans of one single-threaded caller."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._op = -1
        self._ops = 0

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped so that each call records a span ``name``."""
        spans, stack, clock = self.spans, self._stack, CLOCK

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = Span(sid, name, start, end, parent, self._op)

        return traced

    @contextmanager
    def operation(self, name: str):
        """Open a top-level span that starts a new operation id."""
        self._ops += 1
        outer, self._op = self._op, self._ops
        try:
            with self.span(name):
                yield
        finally:
            self._op = outer

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        start = CLOCK()
        try:
            yield
        finally:
            end = CLOCK()
            self._stack.pop()
            self.spans[sid] = Span(sid, name, start, end, parent, self._op)

    def dump(self, path):
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for sp in self.spans:
                fh.write(json.dumps(sp._asdict()) + "\n")


def self_times(spans) -> dict:
    """Map span id to its duration minus the part its children cover.

    Children are clipped to the parent's interval and their union is taken,
    so overlapping or out-of-bounds children are not subtracted twice.
    """
    children = {}
    for sp in spans:
        if sp.parent >= 0:
            children.setdefault(sp.parent, []).append(sp)
    out = {}
    for sp in spans:
        covered, cursor = 0.0, sp.start
        for ch in sorted(children.get(sp.id, ()), key=lambda c: c.start):
            lo, hi = max(ch.start, cursor), min(ch.end, sp.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[sp.id] = (sp.end - sp.start) - covered
    return out


def operation_spans(spans) -> list:
    """The spans recorded inside an operation; calls made outside any
    (``op`` -1), such as a correctness check's, are left out."""
    return [sp for sp in spans if sp.op >= 0]


def layer_totals(spans) -> dict:
    """Per span name: ``calls``, inclusive ``s`` and ``self_s``.

    Inclusive time counts only spans with no ancestor of the same name, so a
    recursive function's time is not counted once per recursion level.
    """
    by_id = {sp.id: sp for sp in spans}
    selfs = self_times(spans)
    totals = {}
    for sp in spans:
        t = totals.setdefault(sp.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        t["calls"] += 1
        t["self_s"] += selfs[sp.id]
        anc = by_id.get(sp.parent)
        while anc is not None and anc.name != sp.name:
            anc = by_id.get(anc.parent)
        if anc is None:
            t["s"] += sp.end - sp.start
    return totals


def subtree_self_sums(spans, root_ids) -> dict:
    """Map each id in ``root_ids`` to the sum of self times over that span
    and all its descendants; it equals the span's duration when every child
    lies inside its parent."""
    selfs = self_times(spans)
    children = {}
    for sp in spans:
        children.setdefault(sp.parent, []).append(sp.id)
    sums = {}
    for root in root_ids:
        total, todo = 0.0, [root]
        while todo:
            sid = todo.pop()
            total += selfs[sid]
            todo.extend(children.get(sid, ()))
        sums[root] = total
    return sums


class Patch:
    """Record of replaced module attributes; :meth:`restore` undoes them."""

    def __init__(self):
        self.replaced = []  # (module, attribute, original)

    def restore(self):
        for module, attr, original in reversed(self.replaced):
            setattr(module, attr, original)
        self.replaced.clear()


def public_functions() -> dict:
    """Map each public function of the layer modules to its span name."""
    names = {}
    for layer in LAYER_MODULES:
        module = sys.modules[f"hsskit.{layer}"]
        for attr in getattr(module, "__all__", ()):
            obj = getattr(module, attr)
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                names[obj] = f"{layer}.{attr}"
    return names


def instrument(tracer: Tracer) -> Patch:
    """Wrap every public layer function wherever an hsskit namespace holds it."""
    targets = public_functions()
    wrappers = {fn: tracer.wrap(name, fn) for fn, name in targets.items()}
    patch = Patch()
    modules = [
        m for key, m in sorted(sys.modules.items())
        if m is not None and (key == "hsskit" or key.startswith("hsskit."))
    ]
    try:
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    patch.replaced.append((module, attr, obj))
                    setattr(module, attr, wrappers[obj])
    except BaseException:
        patch.restore()
        raise
    return patch
