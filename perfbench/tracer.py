"""Outside-in tracer for the heckeforge package.

The tracer wraps, from outside the package, the public module functions and
the public methods of every class defined in each layer module, including
the arithmetic dunders (``FqElement.__mul__``, ``CyclotomicNumber.__add__``,
``CycloMatrix.__matmul__`` ...).  A module function is also rebound in every
``heckeforge`` module that imported it by name (``sgn``, ``spinor_norm``,
``sgn_spinor``, ``det_sign_character`` ...).  Nothing in the package is
edited, and ``restore`` puts every wrapped name back.

Every wrapped call is counted and timed; its self time is its duration minus
the part its wrapped callees cover.  Calls that cross from one layer into
another, other than the element arithmetic of value types, also leave a span
``(span_id, parent_span_id, verdict, name, start, end)``.  Element
arithmetic is only counted, which keeps the overhead low and the span list
small.
"""

from __future__ import annotations

import inspect
import sys
import time

LAYERS = ("ffield", "linalg", "quadspace", "gradedorth", "cyclo", "sympweil",
          "heckealg", "sp4oracle", "cli")

# dunders that do work; identity and formatting dunders (__eq__, __hash__,
# __repr__, ...) are plumbing called implicitly by dicts and are not wrapped
_WORK_DUNDERS = frozenset((
    "__init__", "__call__", "__add__", "__radd__", "__sub__", "__rsub__",
    "__neg__", "__mul__", "__rmul__", "__truediv__", "__pow__",
    "__matmul__"))

# element factories of the context classes: as frequent as arithmetic
_ELEMENT_FACTORIES = frozenset((
    "elem", "elements", "units", "zero", "one", "from_rational", "zeta_pow",
    "reduce", "galois", "series", "scalar", "poly", "q", "psi"))

_MAX_SPANS = 200_000

BENCH = "bench"


def _is_public(name):
    if name.startswith("__") and name.endswith("__"):
        return name in _WORK_DUNDERS
    return not name.startswith("_")


class Tracer:
    """Wraps the layer modules of a freshly imported ``heckeforge``.

    Use ``install()`` before the traced work and ``restore()`` after it; the
    benchmark marks each verdict with ``begin_verdict``/``end_verdict`` so
    that spans of one verdict share its index.
    """

    def __init__(self, package):
        self.package = package
        self.stats = {}       # qualified name -> [calls, total_s, self_s, raised]
        self.layer_raised = dict.fromkeys(LAYERS, 0)
        self.cache_hits = {}  # qualified name -> calls that left the cache size unchanged
        self.spans = []
        self.spans_dropped = 0
        self._next_span = 1
        self._verdict = -1
        # frame: [child_time, layer, span_id]
        self._stack = [[0.0, BENCH, 0]]
        self._restore = []

    # -- installation -----------------------------------------------------

    def _modules(self):
        prefix = self.package.__name__ + "."
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == self.package.__name__
                                      or name.startswith(prefix))]

    def install(self):
        modules = self._modules()
        originals = {}
        for layer in LAYERS:
            mod = sys.modules[f"{self.package.__name__}.{layer}"]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(layer, obj)
                elif (callable(obj) and not inspect.isclass(obj)
                      and getattr(obj, "__module__", None) == mod.__name__):
                    wrapped = self._wrapper(layer, f"{layer}.{name}", obj,
                                            span=True)
                    originals[id(obj)] = (obj, wrapped)
        # rebind module functions wherever they were imported by name
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._restore.append((mod, name, obj))
                    setattr(mod, name, hit[1])
        return self

    def _wrap_class(self, layer, cls):
        slotted = "__slots__" in vars(cls)
        for name, attr in list(vars(cls).items()):
            if not _is_public(name):
                continue
            if name == "__init__" and slotted:
                continue  # value types are counted through their arithmetic
            qual = f"{layer}.{cls.__name__}.{name}"
            span = not slotted and name not in _ELEMENT_FACTORIES
            if isinstance(attr, (classmethod, staticmethod)):
                new = type(attr)(self._wrapper(layer, qual, attr.__func__,
                                               span))
            elif isinstance(attr, property):
                if attr.fget is None:
                    continue
                new = property(self._wrapper(layer, qual, attr.fget, False),
                               attr.fset, attr.fdel, attr.__doc__)
            elif inspect.isfunction(attr):
                probe = (_cache_size if cls.__name__ == "WeilSL2"
                         and name == "__call__" else None)
                new = self._wrapper(layer, qual, attr, span, probe)
            else:
                continue
            self._restore.append((cls, name, attr))
            setattr(cls, name, new)

    def restore(self):
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    # -- the wrapper --------------------------------------------------------

    def _wrapper(self, layer, qual, fn, span, probe=None):
        stats = self.stats.setdefault(qual, [0, 0.0, 0.0, 0])
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            boundary = parent[1] != layer
            if span and boundary:
                sid = tracer._next_span
                tracer._next_span += 1
            else:
                sid = parent[2]
            frame = [0.0, layer, sid]
            before = probe(args) if probe is not None else None
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stats[3] += 1
                if boundary:
                    tracer.layer_raised[layer] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                parent[0] += dur
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[0]
                if span and boundary:
                    tracer._record(sid, parent[2], qual, t0, t1)
            if probe is not None and probe(args) == before:
                tracer.cache_hits[qual] = tracer.cache_hits.get(qual, 0) + 1
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", qual)
        wrapper.__qualname__ = getattr(fn, "__qualname__", qual)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _record(self, sid, parent_sid, name, t0, t1):
        if len(self.spans) < _MAX_SPANS:
            self.spans.append((sid, parent_sid, self._verdict, name, t0, t1))
        else:
            self.spans_dropped += 1

    # -- verdict roots ------------------------------------------------------

    def begin_verdict(self, index, kind):
        self._verdict = index
        sid = self._next_span
        self._next_span += 1
        self._stack.append([0.0, BENCH, sid])
        return sid, kind, time.perf_counter()

    def end_verdict(self, token):
        sid, kind, t0 = token
        t1 = time.perf_counter()
        self._stack.pop()
        self._record(sid, 0, f"verdict.{kind}", t0, t1)
        self._verdict = -1

    # -- summaries ----------------------------------------------------------

    def calls(self, *quals):
        return sum(self.stats.get(q, (0,))[0] for q in quals)

    def self_s(self, *quals):
        return sum(self.stats.get(q, (0, 0.0, 0.0))[2] for q in quals)

    def layer_calls(self, layer):
        return sum(s[0] for q, s in self.stats.items()
                   if q.split(".", 1)[0] == layer)

    def layer_self_s(self, layer):
        return sum(s[2] for q, s in self.stats.items()
                   if q.split(".", 1)[0] == layer)

    def prefix_self_s(self, prefix):
        return sum(s[2] for q, s in self.stats.items() if q.startswith(prefix))

    def raised(self, qual):
        return self.stats.get(qual, (0, 0.0, 0.0, 0))[3]

    def counts(self):
        """Call and raise counts per wrapped name, for exact comparison."""
        return {q: (s[0], s[3]) for q, s in sorted(self.stats.items())
                if s[0] or s[3]}


def _cache_size(args):
    return len(args[0]._cache)
