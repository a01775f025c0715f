"""Outside-in tracing of kglab's layers.

The tracer wraps public functions of the kglab modules without changing
any file of the package.  A wrapped name is replaced in every kglab
module namespace that holds it (``dynamics`` imports
``dealiased_product`` by name, for example), and every replacement is
undone by :meth:`Tracer.uninstall`.

Each wrapped call is a span.  Spans nest on one stack; a span's self
time is its duration minus the durations of the spans it directly
contains, so the self times of the spans inside a root span add up to
the root's duration.  kglab runs single-threaded under the benchmark
(KGLAB_WORKERS=1), so one stack serves.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from collections import defaultdict

import numpy as np

_clock = time.perf_counter

ROOT = "run"
BOOKKEEPING = "trace.bookkeeping"

# span name -> (module, function names); None means every function the
# module exports in __all__
FUNCTION_SPANS = {
    "spectral.dealiased_product": ("kglab.spectral", ["dealiased_product"]),
    "spectral.multiplier": ("kglab.spectral", [
        "derivative", "laplacian", "lambda_power", "semigroup",
        "lp_project", "lp_low", "lp_interval"]),
    "dynamics.rhs": ("kglab.dynamics", ["rhs"]),
    "dynamics.step": ("kglab.dynamics", ["step"]),
    "dynamics.run_to_time": ("kglab.dynamics", ["run_to_time"]),
    "dynamics.scattering_limit": ("kglab.dynamics", ["scattering_limit"]),
    "norms": ("kglab.norms", None),
    "resonance.scan": ("kglab.resonance", ["phase_bound_scan"]),
    "resonance.bilinear_apply": ("kglab.resonance", ["bilinear_apply"]),
    "resonance.trilinear_apply": ("kglab.resonance", ["trilinear_apply"]),
    "paradiff.weyl_apply": ("kglab.paradiff", ["weyl_apply"]),
    "paradiff.error_op": ("kglab.paradiff", ["error_op"]),
    "paradiff.remainder": ("kglab.paradiff", ["remainder"]),
    "cutoffs.psi": ("kglab.cutoffs", ["psi"]),
    "oracles": ("kglab.oracles", None),
    "data": ("kglab.data", None),
    "config.parse": ("kglab.config", ["load_config", "parse_config"]),
    "reports.write": ("kglab.reports", ["write_report"]),
}

# span name -> [(module, class, method)]
METHOD_SPANS = {
    "resonance.symbol_eval": [("kglab.resonance", "BilinearSymbol", "__call__"),
                              ("kglab.resonance", "TrilinearSymbol", "__call__")],
}


def _is_live(field) -> bool:
    """True when a Field is not identically zero, read from its cache."""
    arr = field._coeffs if field._coeffs is not None else field._values
    return bool(np.any(arr))


class Tracer:
    """Span stack, per-span call counts and times, and named counters."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = []
        self._replaced = []

    # -- spans ----------------------------------------------------------

    def enter(self, name: str):
        self._stack.append([name, 0.0, _clock()])

    def exit(self):
        end = _clock()
        name, child_s, start = self._stack.pop()
        duration = end - start
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += duration - child_s
        if self._stack:
            self._stack[-1][1] += duration

    def _wrap(self, name: str, fn, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                tracer.enter(BOOKKEEPING)
                before(tracer, args)
                tracer.exit()
            tracer.enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if after is not None:
                after(tracer, out)
            return out

        wrapper.perfbench_span = name
        return wrapper

    def _wrap_transform(self, prop: property, cached: str) -> property:
        """A Field representation property that spans only real transforms."""
        tracer, fget = self, prop.fget

        def get(field):
            if getattr(field, cached) is not None:
                return fget(field)
            # one complex array in and one out, 16 B a point each way
            tracer.counts["grid.fft_bytes"] += 32 * field.grid.npoints
            tracer.enter("grid.fft")
            try:
                return fget(field)
            finally:
                tracer.exit()

        get.perfbench_span = "grid.fft"
        return property(get, doc=prop.__doc__)

    # -- installing and removing wrappers --------------------------------

    def _replace(self, owner, attr: str, new):
        self._replaced.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        """Wrap every traced name in every loaded kglab module."""
        mods = [m for name, m in sorted(sys.modules.items())
                if name == "kglab" or name.startswith("kglab.")]
        by_name = {m.__name__: m for m in mods}
        for span, (modname, names) in FUNCTION_SPANS.items():
            mod = by_name[modname]
            if names is None:
                names = [n for n in mod.__all__ if inspect.isfunction(getattr(mod, n))]
            for fname in names:
                original = getattr(mod, fname)
                wrapper = self._wrap(span, original, *_HOOKS.get(span, ()))
                for m in mods:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._replace(m, attr, wrapper)
        for span, targets in METHOD_SPANS.items():
            for modname, clsname, meth in targets:
                cls = getattr(by_name[modname], clsname)
                self._replace(cls, meth, self._wrap(span, cls.__dict__[meth],
                                                    *_HOOKS.get(span, ())))
        field_cls = by_name["kglab.grid"].Field
        for prop, cached in (("values", "_values"), ("coeffs", "_coeffs")):
            self._replace(field_cls, prop,
                          self._wrap_transform(field_cls.__dict__[prop], cached))

    def uninstall(self):
        """Put back every original object, newest replacement first."""
        while self._replaced:
            owner, attr, original = self._replaced.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------

    def self_time_inside_root(self) -> float:
        """Sum of self times of the root span and everything under it.

        Only config parsing runs outside the root span, before it.
        """
        return sum(s for name, s in self.self_s.items() if name != "config.parse")

    def counts_only(self) -> dict:
        """Every deterministic number the trace holds: calls and counters."""
        return {"calls": dict(sorted(self.calls.items())),
                "counts": dict(sorted(self.counts.items()))}

    def layer_metrics(self) -> dict:
        """Per-layer metrics by their benchmark names (trace.overhead_s aside)."""
        def read(table):
            return lambda name: table.get(name, 0)

        c, s, counts = read(self.calls), read(self.self_s), read(self.counts)
        products = c("spectral.dealiased_product")
        scan_s = self.total_s.get("resonance.scan", 0.0)
        return {
            "grid.fft_calls": c("grid.fft"),
            "grid.fft_s": s("grid.fft"),
            "grid.fft_bytes": counts("grid.fft_bytes"),
            "spectral.dealiased_product_calls": products,
            "spectral.dealiased_product_s": s("spectral.dealiased_product"),
            "spectral.useful_product_ratio":
                counts("spectral.useful_products") / products if products else 0.0,
            "spectral.multiplier_calls": c("spectral.multiplier"),
            "spectral.multiplier_s": s("spectral.multiplier"),
            "dynamics.rhs_calls": c("dynamics.rhs"),
            "dynamics.rhs_s": s("dynamics.rhs"),
            "dynamics.step_calls": c("dynamics.step"),
            "dynamics.step_s": s("dynamics.step"),
            "dynamics.run_to_time_s": s("dynamics.run_to_time"),
            "dynamics.scattering_limit_s": s("dynamics.scattering_limit"),
            "norms.calls": c("norms"),
            "norms.s": s("norms"),
            "resonance.scan_calls": c("resonance.scan"),
            "resonance.scan_s": s("resonance.scan"),
            "resonance.scan_pairs": counts("resonance.scan_pairs"),
            "resonance.grad_pairs": counts("resonance.grad_pairs"),
            "resonance.scan_pairs_per_s":
                counts("resonance.scan_pairs") / scan_s if scan_s else 0.0,
            "resonance.bilinear_apply_calls": c("resonance.bilinear_apply"),
            "resonance.bilinear_apply_s": s("resonance.bilinear_apply"),
            "resonance.trilinear_apply_s": s("resonance.trilinear_apply"),
            "resonance.symbol_eval_calls": c("resonance.symbol_eval"),
            "resonance.symbol_points": counts("resonance.symbol_points"),
            "resonance.symbol_eval_s": s("resonance.symbol_eval"),
            "paradiff.weyl_apply_calls": c("paradiff.weyl_apply"),
            "paradiff.weyl_apply_s": s("paradiff.weyl_apply"),
            "paradiff.error_op_s": s("paradiff.error_op"),
            "paradiff.remainder_s": s("paradiff.remainder"),
            "cutoffs.psi_calls": c("cutoffs.psi"),
            "cutoffs.psi_s": s("cutoffs.psi"),
            "oracles.s": s("oracles"),
            "data.s": s("data"),
            "config.parse_s": s("config.parse"),
            "reports.write_s": s("reports.write"),
        }


def _count_live_product(tracer, args):
    f, g = args[0], args[1]
    if _is_live(f) and _is_live(g):
        tracer.counts["spectral.useful_products"] += 1


def _count_scan_pairs(tracer, out):
    tracer.counts["resonance.scan_pairs"] += int(out["n_pairs"])
    tracer.counts["resonance.grad_pairs"] += int(out["n_grad_pairs"])


def _count_symbol_points(tracer, args):
    # args = (symbol, z1, ...); z1 has shape (..., d)
    tracer.counts["resonance.symbol_points"] += math.prod(np.shape(args[1])[:-1])


# span name -> (before hook, after hook)
_HOOKS = {
    "spectral.dealiased_product": (_count_live_product, None),
    "resonance.scan": (None, _count_scan_pairs),
    "resonance.symbol_eval": (_count_symbol_points, None),
}
