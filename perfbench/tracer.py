"""Outside-in layer trace of one CLI invocation.

The layers are the program's modules.  ``Tracer.install`` wraps the public
functions of each module (and a few methods that carry a layer's work) and
rebinds every ``qrea.*`` name that pointed at the original, so calls made
through ``from .x import f`` are traced too.  Each wrapped call records a
span ``[name, parent, start, end, aggregated, value]``; spans stay in
memory until the invocation ends.

Laurent-scalar operations run 1e5-1e6 times per invocation, so they get no
span of their own: they are counted and timed in aggregate, and their time
is charged to the innermost open span as ``aggregated``.  A span's self
time is its duration minus its child spans minus that aggregated time.
"""

from __future__ import annotations

import inspect
import sys
import time

NAME, PARENT, START, END, AGG, VALUE = range(6)

LAYERS = ("scalars", "braid", "ncalg", "gtrep", "hrep", "classify", "cli")

# Generator-letter constructors and a sort key: called per letter or per
# pattern and doing no work of their own, so a span each would only add
# overhead.  Their time stays with the caller.
UNTRACED = {"X", "Z", "Tplain", "Tdiag", "Tstar", "pattern_total"}

SCALAR_METHODS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                  "__neg__", "__truediv__", "__pow__", "inv", "divide_exact",
                  "conjugate", "eval")

SPAN_METHODS = {
    ("braid", "QMat"): ("__matmul__", "__add__", "__sub__", "kron", "scale",
                        "is_zero", "__eq__"),
    ("ncalg", "_BaseSystem"): ("straighten",),
}


def _result_size(name, result):
    """The size a span records about its result, where a metric needs it."""
    if name == "gtrep.patterns":
        return len(result)
    if name == "gtrep.build_hw_module" or name.startswith("hrep.adjoint_transport_"):
        return result.dim
    return None


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._in_scalar = False
        self.scalar_ops = 0
        self.scalar_s = 0.0

    # -- wrappers ---------------------------------------------------------

    def span(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            rec[VALUE] = _result_size(name, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def aggregate(self, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def counted(*args, **kwargs):
            self.scalar_ops += 1
            if self._in_scalar:
                return fn(*args, **kwargs)
            self._in_scalar = True
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - start
                self._in_scalar = False
                self.scalar_s += dt
                if stack:
                    spans[stack[-1]][AGG] += dt

        counted.__wrapped__ = fn
        return counted

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap the layers of an imported ``qrea`` package in place."""
        modules = {name: sys.modules[f"qrea.{name}"] for name in LAYERS}
        replace = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or attr in UNTRACED or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                if layer == "scalars":
                    replace[id(obj)] = self.aggregate(obj)
                else:
                    replace[id(obj)] = self.span(f"{layer}.{attr}", obj)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "qrea" or modname.startswith("qrea.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replace and inspect.isfunction(obj):
                    setattr(mod, attr, replace[id(obj)])
        cls = modules["scalars"].LaurentScalar
        for meth in SCALAR_METHODS:
            setattr(cls, meth, self.aggregate(cls.__dict__[meth]))
        for (layer, clsname), methods in SPAN_METHODS.items():
            cls = getattr(modules[layer], clsname)
            for meth in methods:
                setattr(cls, meth, self.span(f"{layer}.{meth.strip('_')}", cls.__dict__[meth]))


# ---------------------------------------------------------------------------
# span arithmetic


def self_times(spans):
    """Self time of each span: duration minus child spans minus the
    aggregated time charged to it."""
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[END] - rec[START]
    return [rec[END] - rec[START] - child[i] - rec[AGG] for i, rec in enumerate(spans)]


def outermost(spans):
    """Whether each span has no ancestor of the same name, so that summing
    the durations of outermost spans never counts recursion twice."""
    out = []
    for rec in spans:
        p = rec[PARENT]
        while p >= 0 and spans[p][NAME] != rec[NAME]:
            p = spans[p][PARENT]
        out.append(p < 0)
    return out


def summarize(spans, scalar_ops, scalar_s):
    """Per-invocation layer totals from the spans of one invocation."""
    selfs = self_times(spans)
    outer = outermost(spans)
    layer_self = {layer: 0.0 for layer in LAYERS}
    layer_self["scalars"] = scalar_s
    self_by_name, incl, count, size_sum, size_max = {}, {}, {}, {}, {}
    build_patterns = 0
    for i, rec in enumerate(spans):
        name = rec[NAME]
        layer_self[name.split(".", 1)[0]] += selfs[i]
        self_by_name[name] = self_by_name.get(name, 0.0) + selfs[i]
        count[name] = count.get(name, 0) + 1
        if outer[i]:
            incl[name] = incl.get(name, 0.0) + rec[END] - rec[START]
        if rec[VALUE] is not None:
            size_sum[name] = size_sum.get(name, 0) + rec[VALUE]
            size_max[name] = max(size_max.get(name, 0), rec[VALUE])
            if name == "gtrep.patterns" and rec[PARENT] >= 0 \
                    and spans[rec[PARENT]][NAME] == "gtrep.build_hw_module":
                build_patterns += rec[VALUE]
    return {"self": layer_self, "self_by_name": self_by_name, "incl": incl, "count": count,
            "size_sum": size_sum, "size_max": size_max, "build_patterns": build_patterns,
            "scalar_ops": scalar_ops}
