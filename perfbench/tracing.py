"""Layer tracing from outside the program.

``Tracer.install`` wraps the public functions and methods of each
``moyalbench`` layer module and rebinds every name in every ``moyalbench``
module namespace that refers to one of them, so calls made through module
globals (``from .poly import divmod_poly``) are seen as well.  ``uninstall``
puts every original back, and ``assert_restored`` proves it with ``is``.

Each wrapped call adds to per-function totals: calls, self time (its
duration minus the time covered by wrapped calls it made) and exceptions
that left it.  Full spans (name, start, end, parent, op id) are kept only
for ops and for calls outside ``HOT``; they stay in memory until the run
writes them out.

``layer_self_shares`` reads a cProfile run instead: it attributes every
function's own time to a layer, with ``fractions`` counted as ``backend``
(it is the rational scalar type) and builtins and other libraries counted
against the layer that called them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from collections import defaultdict

LAYERS = (
    "backend", "gauss", "poly", "rootisolate", "exppoly", "biseries",
    "quadrature", "phase", "laguerre", "spectral", "observables",
    "uncertainty", "verify", "tables", "cli",
)

# Dunder methods worth wrapping: the arithmetic the exact containers run on.
_DUNDERS = ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__",
            "__truediv__", "__pow__", "__call__")

# Called so often that only per-function totals are kept, no spans.
HOT = frozenset({
    "backend.Q", "backend.is_rational", "backend.qbinom", "backend.qfact",
    "backend.rational_str", "backend.rceil",
    "poly.Poly.__mul__", "poly.Poly.__add__", "poly.Poly.__sub__",
    "poly.Poly.__call__", "poly.Poly.__truediv__", "poly.Poly.derivative",
    "poly.Poly.monic", "poly.Poly.scale_arg", "poly.Poly.shift",
    "poly.divmod_poly", "poly.poly_gcd",
    "gauss.GaussScalar.__mul__", "gauss.GaussScalar.__add__",
    "gauss.GaussScalar.__sub__", "gauss.GaussScalar.__truediv__",
    "exppoly.ExpPoly.__add__", "exppoly.ExpPoly.__sub__",
    "exppoly.ExpPoly.__mul__", "exppoly.ExpPoly.__call__",
    "exppoly.ExpPoly.sign_at", "exppoly.exp_integral", "exppoly.mu_times",
    "biseries.BiSeries.__mul__", "biseries.BiSeries.__add__",
    "biseries.BiSeries.__sub__",
    "phase.PhasePoly.__add__", "phase.PhasePoly.__sub__",
    "phase.PhasePoly.__mul__", "phase.PhasePoly.diff_a",
    "phase.PhasePoly.diff_abar",
    "rootisolate.count_roots", "rootisolate.cauchy_bound",
    "laguerre.laguerre", "laguerre.moment_integral",
    "laguerre.mixed_orthogonality", "laguerre.laguerre_coeff",
    "observables.binomial_weights", "observables.basic_distribution",
    "uncertainty.selection_inequality", "uncertainty.threshold_k",
    "spectral.projector_closed", "tables.format_float",
    "tables.format_complex",
})

MAX_SPANS = 200_000
_MARK = "__perfbench_original__"


def _public_targets(mod):
    """(owner, attribute, function, key) for every function a layer defines."""
    out = []
    for name, obj in sorted(vars(mod).items()):
        if name.startswith("_"):
            continue
        if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
            out.append((mod, name, obj))
        elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
            for attr, fn in sorted(vars(obj).items()):
                if not inspect.isfunction(fn):
                    continue  # skips classmethods, staticmethods, properties
                if attr.startswith("_") and attr not in _DUNDERS:
                    continue
                out.append((obj, attr, fn))
    layer = mod.__name__.rsplit(".", 1)[1]
    return [(o, a, f, f"{layer}.{f.__qualname__}") for o, a, f in out]


class Tracer:
    """Wraps the layer functions; accumulates totals, keeps spans in memory."""

    def __init__(self, clock=time.perf_counter, before=None, after=None):
        self.clock = clock
        self.before = dict(before or {})  # key -> fn(tracer, args, kwargs) -> (args, kwargs)
        self.after = dict(after or {})  # key -> fn(tracer, args, kwargs, result)
        self.hook_seconds = 0.0
        self.op_seconds = 0.0  # summed wall time of op spans
        self.op_layer_seconds = 0.0  # the part of it inside wrapped calls
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.errors = defaultdict(int)
        self.counters = defaultdict(int)
        self.maxima = defaultdict(int)
        self.spans = []
        self.dropped_spans = 0
        self.op_id = None
        self._stack = []  # frames: [child_seconds, span_index or None]
        self.installed = False
        self._bindings = []  # (namespace, attribute, original), kept to check restore
        self._wrappers = {}  # id(original) -> wrapper

    # -- wrapping ------------------------------------------------------------

    def wrap(self, key, fn):
        clock, stack = self.clock, self._stack
        before, after = self.before.get(key), self.after.get(key)
        calls, busy, errors = self.calls, self.busy, self.errors
        coarse = key not in HOT

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(self, args, kwargs)
            frame = [0.0, self._open_span(key) if coarse else None]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[key] += 1
                raise
            finally:
                d = clock() - t0
                stack.pop()
                calls[key] += 1
                busy[key] += d - frame[0]
                if stack:
                    stack[-1][0] += d
                if frame[1] is not None:
                    self.spans[frame[1]][2] = t0 + d
            if after is not None:
                # counting is tracer work: keep it out of the caller's self time
                h0 = clock()
                after(self, args, kwargs, result)
                h = clock() - h0
                self.hook_seconds += h
                if stack:
                    stack[-1][0] += h
            return result

        setattr(wrapper, _MARK, fn)
        return wrapper

    def _open_span(self, name):
        if len(self.spans) >= MAX_SPANS:
            self.dropped_spans += 1
            return None
        parent = next((f[1] for f in reversed(self._stack) if f[1] is not None), None)
        self.spans.append([name, self.clock(), None, parent, self.op_id])
        return len(self.spans) - 1

    def op(self, name, op_id):
        """Context manager for the root span of one op; ``.seconds`` after exit."""
        return _OpSpan(self, name, op_id)

    def install(self):
        if self.installed:
            raise RuntimeError("tracer already installed")
        self.installed = True
        self._bindings = []
        # import every layer before rebinding anything, so no module picks
        # up a wrapper through its own imports
        mods = [importlib.import_module(f"moyalbench.{layer}") for layer in LAYERS]
        for mod in mods:
            for owner, attr, fn, key in _public_targets(mod):
                if id(fn) not in self._wrappers:
                    self._wrappers[id(fn)] = self.wrap(key, fn)
                self._rebind(owner, attr, fn)
        for name, mod in list(sys.modules.items()):
            if name == "moyalbench" or name.startswith("moyalbench."):
                for attr, val in list(vars(mod).items()):
                    if id(val) in self._wrappers and getattr(val, _MARK, None) is None:
                        self._rebind(mod, attr, val)

    def _rebind(self, owner, attr, original):
        if any(o is owner and a == attr for o, a, _ in self._bindings):
            return
        self._bindings.append((owner, attr, original))
        setattr(owner, attr, self._wrappers[id(original)])

    def uninstall(self):
        for owner, attr, original in reversed(self._bindings):
            setattr(owner, attr, original)
        self.installed = False
        self.assert_restored()

    def assert_restored(self):
        """Every name the tracer rebound ``is`` its original again."""
        for owner, attr, original in self._bindings:
            if getattr(owner, attr) is not original:
                raise AssertionError(f"{owner!r}.{attr} is still wrapped")
        assert_no_wrappers()


class _OpSpan:
    def __init__(self, tracer, name, op_id):
        self.tracer, self.name, self.op_id = tracer, name, op_id
        self.seconds = 0.0
        self.layer_seconds = 0.0

    def __enter__(self):
        t = self.tracer
        t.op_id = self.op_id
        self.frame = [0.0, t._open_span(f"op:{self.name}")]
        t._stack.append(self.frame)
        self.t0 = t.clock()
        return self

    def __exit__(self, *exc):
        t = self.tracer
        self.seconds = t.clock() - self.t0
        t._stack.pop()
        self.layer_seconds = self.frame[0]
        t.op_seconds += self.seconds
        t.op_layer_seconds += self.layer_seconds
        if self.frame[1] is not None:
            t.spans[self.frame[1]][2] = self.t0 + self.seconds
        t.op_id = None
        return False


def assert_no_wrappers():
    """Raise if any moyalbench namespace or class still holds a wrapper."""
    for name, mod in list(sys.modules.items()):
        if name != "moyalbench" and not name.startswith("moyalbench."):
            continue
        for attr, val in vars(mod).items():
            if getattr(val, _MARK, None) is not None:
                raise AssertionError(f"{name}.{attr} is still wrapped")
            if inspect.isclass(val) and val.__module__ == name:
                for a, fn in vars(val).items():
                    if getattr(fn, _MARK, None) is not None:
                        raise AssertionError(f"{name}.{attr}.{a} is still wrapped")


def self_times(spans):
    """{name: self seconds} from closed spans [name, start, end, parent, op].

    A span's self time is its duration minus the part of it that its child
    spans cover; children of one parent may overlap each other.
    """
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[3] is not None:
            children[s[3]].append(i)
    out = defaultdict(float)
    for i, (name, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c in sorted(children[i], key=lambda j: spans[j][1]):
            lo, hi = max(spans[c][1], reach), min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[name] += (end - start) - covered
    return dict(out)


# -- cProfile attribution ---------------------------------------------------

def _layer_of(filename):
    base = os.path.basename(filename)
    parent = os.path.basename(os.path.dirname(filename))
    if parent == "moyalbench" and base.endswith(".py"):
        layer = base[:-3]
        return layer if layer in LAYERS else "other"
    if base == "fractions.py":
        return "backend"
    return None


def layer_self_shares(stats):
    """{layer: share of all profiled own time} from ``pstats.Stats.stats``.

    Functions outside the package (builtins, ``math``, ``mpmath``) hand their
    own time to their callers in proportion to the time spent under each
    caller, recursively; time with no layer above it counts as ``other``.
    """
    memo = {}

    def shares(func, depth=0):
        if func in memo:
            return memo[func]
        layer = _layer_of(func[0])
        if layer is not None:
            memo[func] = {layer: 1.0}
            return memo[func]
        callers = stats[func][4] if func in stats else {}
        total = sum(edge[2] for edge in callers.values())
        if depth > 20 or total <= 0:
            return {"other": 1.0}
        memo[func] = {"other": 1.0}  # cycle guard while resolving
        out = defaultdict(float)
        for caller, edge in callers.items():
            for lay, w in shares(caller, depth + 1).items():
                out[lay] += w * edge[2] / total
        memo[func] = dict(out)
        return memo[func]

    owned = defaultdict(float)
    for func, (_, _, tt, _, _) in stats.items():
        for lay, w in shares(func).items():
            owned[lay] += tt * w
    grand = sum(owned.values()) or 1.0
    return {lay: owned[lay] / grand for lay in owned}
