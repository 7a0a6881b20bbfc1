"""Traced-run instrumentation: wrappers around qlambda's public functions.

The benchmark measures each module from outside.  ``install()`` replaces
each traced function everywhere its name is bound in the loaded
``qlambda`` modules (``from x import f`` copies included) and each traced
kernel method on its class (``__rmul__`` along with ``__mul__``), so every
call into a layer passes through a wrapper whatever route it takes.

* Kernel methods only count: calls and summed time, no span per call.
* Every other boundary records a span ``(id, parent, name, start, end)``.

Both kinds take part in self time: a layer's ``self_s`` is its wrapped
time minus the wrapped time of the traced calls made inside it.  Spans stay
in memory until ``Tracer.dump`` writes them when the process ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

# Layer name -> (class in qlambda.kernel, methods).
KERNEL_LAYERS = {
    "kernel.lp_mul": ("LambdaPoly", ("__mul__", "__rmul__")),
    "kernel.lp_add": ("LambdaPoly", ("__add__", "__radd__")),
    "kernel.xp_mul": ("XPoly", ("__mul__", "__rmul__")),
    "kernel.ts_mul": ("TruncSeries", ("__mul__",)),
    "kernel.ts_scale": ("TruncSeries", ("scale",)),
    "kernel.ts_reciprocal": ("TruncSeries", ("reciprocal",)),
    "kernel.ts_compose": ("TruncSeries", ("compose",)),
}

# Layer name -> (module, functions); None means every public function of
# the module that passes the filter in ``_module_functions``.
SPAN_LAYERS = {
    "factorials.to_basis": ("qlambda.factorials", ("to_basis",)),
    "factorials.basis_poly": ("qlambda.factorials", ("basis_poly",)),
    "stirling.triangle": ("qlambda.stirling", ("triangle",)),
    "fubini_bell.poly_by_sum": ("qlambda.fubini_bell", ("poly_by_sum",)),
    "fubini_bell.family_series": ("qlambda.fubini_bell", ("family_series",)),
    "gfun": ("qlambda.gfun", None),
    "harmonic.degen_harmonic": ("qlambda.harmonic", ("degen_harmonic",)),
    "harmonic.degen_hyperharmonic": ("qlambda.harmonic", ("degen_hyperharmonic",)),
    "operators.theorem1_check": ("qlambda.operators", ("theorem1_check",)),
    "operators.theorem2_check": ("qlambda.operators", ("theorem2_check",)),
    "report.first_mismatch": ("qlambda.report", ("first_mismatch",)),
    "render.emit": ("qlambda.render", None),
    "render.parse": ("qlambda.render", None),
    "cli.main": ("qlambda.cli", ("main",)),
}

# The end-to-end metric and workload a change to each layer should move.
_VERIFY = "wall_s on verify-all"
_EMIT = "wall_s on emit"
MOVES = {
    "kernel.lp_mul": f"{_VERIFY}; {_EMIT}",
    "kernel.lp_add": _VERIFY,
    "kernel.xp_mul": _EMIT,
    "kernel.ts_mul": f"{_VERIFY}; {_EMIT}",
    "kernel.ts_scale": _VERIFY,
    "kernel.ts_reciprocal": _EMIT,
    "kernel.ts_compose": _EMIT,
    "factorials.to_basis": _EMIT,
    "factorials.basis_poly": _EMIT,
    "stirling.triangle": _EMIT,
    "fubini_bell.poly_by_sum": _EMIT,
    "fubini_bell.family_series": _EMIT,
    "gfun": _EMIT,
    "harmonic.degen_harmonic": _VERIFY,
    "harmonic.degen_hyperharmonic": _VERIFY,
    "operators.theorem1_check": _VERIFY,
    "operators.theorem2_check": _VERIFY,
    "report.first_mismatch": _VERIFY,
    "render.emit": f"cmd_p50_s on cli-mix; {_EMIT}",
    "render.parse": f"cmd_p50_s on cli-mix; {_EMIT}",
    "cli.main": "cmd_p50_s and cmd_p95_s on cli-mix",
}

CHECK_IDS = ("thm1", "thm2", "thm3", "thm4", "thm5", "thm6", "cor7", "thm8")
# Check id -> the public functions of qlambda.identities that run one check
# of it.  thm1 and thm2 checks are operators.theorem1_check/theorem2_check,
# which are layers of their own: their calls are counted for the id too.
CHECK_FUNCTIONS = {
    "thm3": ("check_thm3", "check_thm3_numeric"),
    "thm4": ("check_thm4",),
    "thm5": ("check_thm5",),
    "thm6": ("check_thm6",),
    "cor7": ("check_cor7",),
    "thm8": ("check_thm8",),
}
CHECKED_BY_OPERATORS = {"operators.theorem1_check": "thm1", "operators.theorem2_check": "thm2"}
MOVES.update({f"identities.{check_id}": _VERIFY for check_id in CHECK_IDS})

# Counts taken from a layer's arguments rather than from its calls.
ROWS_REQUESTED = "stirling.triangle.rows_requested"
# Traced wall time over untraced wall time, minus one.
OVERHEAD = "tracing.overhead_frac"


def moves(metric: str) -> str:
    """What a change seen in ``metric`` should move end to end."""
    if metric == OVERHEAD:
        return "nothing: it measures the tracer"
    layer = metric.rsplit(".", 1)[0] if metric != ROWS_REQUESTED else "stirling.triangle"
    return MOVES[layer]


def layer_names() -> list:
    """Every traced layer, in report order."""
    return (list(KERNEL_LAYERS) + list(SPAN_LAYERS)
            + [f"identities.{cid}" for cid in CHECK_IDS])


def metric_names() -> list:
    """Every per-layer metric a traced run reports."""
    out = []
    for layer in layer_names():
        out += [f"{layer}.calls", f"{layer}.self_s"]
        if layer == "stirling.triangle":
            out.append(ROWS_REQUESTED)
    return out + [OVERHEAD]


class Tracer:
    """Counters, self times and spans of one process."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.spans = []
        self._child = [0.0]  # wrapped time of traced calls inside each open frame
        self._open = [0]  # ids of the open spans; 0 is the root
        self._next_id = 1

    def counter(self, name, fn):
        """Wrap a kernel method: count calls and time, record no span."""
        calls, self_s, child, clock = self.calls, self.self_s, self._child, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                inner = child.pop()
                child[-1] += elapsed
                self_s[name] += elapsed - inner
                calls[name] += 1

        return wrapper

    def span(self, name, fn, before=None, counted=True):
        """Wrap a layer boundary: one span per call, plus self time and, if
        ``counted``, calls."""
        calls, self_s, child, open_ = self.calls, self.self_s, self._child, self._open
        spans, clock = self.spans, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = open_[-1]
            open_.append(span_id)
            child.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                inner = child.pop()
                open_.pop()
                child[-1] += t1 - t0
                self_s[name] += t1 - t0 - inner
                if counted:
                    calls[name] += 1
                spans.append((span_id, parent, name, t0, t1))

        return wrapper

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"calls": self.calls, "self_s": self.self_s, "counts": self.counts,
                       "spans": self.spans}, fh, separators=(",", ":"))


def _qlambda_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "qlambda" or name.startswith("qlambda."))]


def _rebind(original, wrapper) -> None:
    """Replace ``original`` by ``wrapper`` in every qlambda module namespace."""
    for mod in _qlambda_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


def _module_functions(layer, module):
    """Public functions ``module`` defines; render's ``parse_*`` ones form render.parse."""
    out = []
    for name, value in vars(module).items():
        if name.startswith("_") or not callable(value) or inspect.isclass(value):
            continue
        if getattr(value, "__module__", None) != module.__name__:
            continue
        if layer == "render.parse" and not name.startswith("parse_"):
            continue
        if layer == "render.emit" and name.startswith("parse_"):
            continue
        out.append(name)
    return out


def install() -> Tracer:
    """Wrap every traced layer of the already imported qlambda package."""
    tracer = Tracer()
    kernel = sys.modules["qlambda.kernel"]
    for layer, (cls_name, methods) in KERNEL_LAYERS.items():
        cls = getattr(kernel, cls_name)
        wrappers = {}
        for method in methods:
            fn = cls.__dict__[method]
            # __rmul__ = __mul__ in the class body: one function, one wrapper.
            if id(fn) not in wrappers:
                wrappers[id(fn)] = tracer.counter(layer, fn)
            setattr(cls, method, wrappers[id(fn)])

    def count_rows(family, nmax):
        tracer.counts[ROWS_REQUESTED] += nmax + 1

    def count_check(check_id):
        def hook(*args, **kwargs):
            tracer.calls[f"identities.{check_id}"] += 1
        return hook

    before = {"stirling.triangle": count_rows}
    before.update({layer: count_check(cid) for layer, cid in CHECKED_BY_OPERATORS.items()})
    for layer, (mod_name, names) in SPAN_LAYERS.items():
        module = sys.modules[mod_name]
        for name in names or _module_functions(layer, module):
            original = getattr(module, name)
            _rebind(original, tracer.span(layer, original, before.get(layer)))

    # identities.<id>: .calls counts the checks run, .self_s is the time of
    # the id's suite runner and checks outside other traced layers.
    identities = sys.modules["qlambda.identities"]
    runners = identities._RUNNERS
    if sorted(runners) != sorted(CHECK_IDS):
        raise RuntimeError(f"check ids changed: {sorted(runners)}")
    for check_id, names in CHECK_FUNCTIONS.items():
        for name in names:
            original = getattr(identities, name)
            _rebind(original, tracer.span(f"identities.{check_id}", original))
    for check_id in CHECK_IDS:
        runners[check_id] = tracer.span(f"identities.{check_id}", runners[check_id],
                                        counted=False)
    return tracer
