"""Spans and counters around the library's layer boundaries, from outside.

install() replaces, in every symmline module namespace that binds them,
the public functions of each symmline module with wrappers that record a
span: name, start, end, parent span and op id.  A module that imports a
function by name (norms binds det and mult_matrix, quotients binds norm,
cli binds nearly everything) gets the wrapper too, because the search is
by identity over every namespace.  A few methods carry work that no
public function brackets and are spanned as well (SPANNED_METHODS).
RingValue arithmetic and ring equality are only counted: a span per
scalar operation would cost more than the operation.  uninstall()
restores every original.

A layer is a module; its self time is the time inside its spans minus
the time inside their child spans.  Aggregates accumulate as spans end;
raw spans are kept only while `recording` is set.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
from collections import Counter

# class -> methods whose calls are spans of the class's module
SPANNED_METHODS = {
    ("symmetric", "SymPoly1"): (
        "__add__", "__sub__", "__neg__", "__mul__", "__pow__",
        "scale", "shift", "divmod_monic", "mod_monic", "expand",
    ),
    ("multipoly", "MultiPoly"): (
        "__add__", "__sub__", "__neg__", "__mul__", "__pow__",
        "scale", "evaluate",
    ),
    ("homs", "RingHom"): ("__call__", "map_poly", "map_monic"),
}

VALUE_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__neg__", "__pow__",
)


def _layer(module_name: str) -> str:
    return module_name.split(".", 1)[1]


class Tracer:
    def __init__(self):
        self.active = False
        self.recording = False
        self.op_id = -1
        self.spans = []  # (id, name, start_ns, end_ns, parent_id, op_id)
        self._stack = []  # [id, group, start_ns, child_ns]
        self._next_id = 0
        self._depth = Counter()  # open spans per group
        self.calls = Counter()  # span name -> calls
        self.incl_ns = Counter()  # group -> time in its outermost spans
        self.self_ns = Counter()  # layer -> self time
        self.counters = Counter()
        self._patches = []

    # accounting ------------------------------------------------------
    def reset(self):
        self.spans.clear()
        self.calls.clear()
        self.incl_ns.clear()
        self.self_ns.clear()
        self.counters.clear()

    def _span(self, fn, name, layer, group, args, kwargs):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        frame = [span_id, group, 0, 0]
        self._stack.append(frame)
        self._depth[group] += 1
        start = frame[2] = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self._depth[group] -= 1
            dur = end - start
            self.calls[name] += 1
            self.self_ns[layer] += dur - frame[3]
            if not self._depth[group]:
                self.incl_ns[group] += dur
            if parent is not None:
                parent[3] += dur
            if self.recording:
                self.spans.append(
                    (span_id, name, start, end,
                     parent[0] if parent else -1, self.op_id)
                )
        self._hook(name, parent, args, result)
        return result

    def _hook(self, name, parent, args, result):
        """Counters derived from a call's arguments and result."""
        if name == "matrices.char_poly":
            self.counters["matrices.berkowitz_work"] += args[0].n ** 4
        elif name == "quotients.is_free_quotient" and parent is not None \
                and parent[1] == "quotients.count_points":
            self.counters["quotients.census_candidates"] += 1
            self.counters["quotients.census_admissible"] += bool(result)

    # wrappers --------------------------------------------------------
    def _spanning(self, fn, name, layer, group):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            return self._span(fn, name, layer, group, args, kwargs)

        return wrapper

    def _counting(self, fn, key):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                self.counters[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, package):
        """Wrap every public function, spanned method and counted operator
        of the package; call uninstall() before installing again."""
        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
            if info.name != "__main__"
        ]
        wrappers = {}
        for mod in modules[1:]:
            layer = _layer(mod.__name__)
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    span = f"{layer}.{name}"
                    wrappers[id(obj)] = self._spanning(obj, span, layer, span)
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    self._patch(mod, name, wrappers[id(obj)])
        byname = {_layer(m.__name__): m for m in modules[1:]}
        for (layer, cls_name), methods in SPANNED_METHODS.items():
            cls = getattr(byname[layer], cls_name)
            group = f"{layer}.{cls_name}"
            for meth in methods:
                fn = cls.__dict__[meth]
                self._patch(cls, meth,
                            self._spanning(fn, f"{group}.{meth}", layer, group))
        rings = byname["rings"]
        for meth in VALUE_OPS:
            fn = rings.RingValue.__dict__[meth]
            self._patch(rings.RingValue, meth, self._counting(fn, "rings.value_ops"))
        for cls in _subclasses(rings.Ring):
            for meth in ("__eq__", "__ne__"):
                if meth in cls.__dict__:
                    fn = cls.__dict__[meth]
                    self._patch(cls, meth, self._counting(fn, "rings.ring_eq_calls"))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out += _subclasses(sub)
    return out
