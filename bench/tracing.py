"""Spans around the public functions of each sobhyp module, from outside.

``install`` replaces each traced function or method with a wrapper at every
place it is bound: the defining module, every other ``sobhyp`` module that
imported it with ``from .x import y``, the package namespace, and aliases on
a class (``Poly.__rmul__`` is ``Poly.__mul__``, ``DiffOp.__call__`` is
``DiffOp.apply``).  Each call records one span -- name, start, end, parent
span -- in memory; ``write_spans`` dumps them at the end of the pass and
``summarize`` derives call counts and self time from them.  Self time is a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

# Layer metric name -> functions it covers, as (module, attribute).
FUNCTIONS = {
    "families.make_member": [("sobhyp.families", "make_member")],
    "families.terminating_series": [("sobhyp.families", "terminating_series")],
    "diffop.compose": [("sobhyp.diffop", "compose")],
    "diffop.pencil_residual": [("sobhyp.diffop", "pencil_residual")],
    "diffop.ode3_residual": [("sobhyp.diffop", "ode3_residual")],
    "recurrence.phi": [("sobhyp.recurrence", "phi_L"), ("sobhyp.recurrence", "phi_P")],
    "recurrence.residual": [
        ("sobhyp.recurrence", "recurrence_residual_L"),
        ("sobhyp.recurrence", "recurrence_residual_P"),
    ],
    "recurrence.generate_P": [("sobhyp.recurrence", "generate_P_by_recurrence")],
    "recurrence.psi_consistency": [("sobhyp.recurrence", "psi_consistency")],
    "sobolev.moment": [("sobhyp.sobolev", "moment")],
    "sobolev.inner_exact": [("sobhyp.sobolev", "sobolev_inner_exact")],
    "sobolev.verify_orthogonality": [("sobhyp.sobolev", "verify_orthogonality")],
    "sobolev.gauss_rule": [("sobhyp.sobolev", "gauss_rule")],
    "sobolev.inner_quadrature": [("sobhyp.sobolev", "sobolev_inner_quadrature")],
    "analysis.roots": [("sobhyp.analysis", "roots")],
    "analysis.integral_rep_check": [("sobhyp.analysis", "integral_rep_check")],
    "analysis.limit_check": [("sobhyp.analysis", "limit_check")],
    "cli.main": [("sobhyp.cli", "main")],
}

# Layer metric name -> (module, class, method names sharing one wrapper).
METHODS = {
    "exactnum.poly_mul": ("sobhyp.exactnum", "Poly", ("__mul__", "__rmul__")),
    "exactnum.poly_add": ("sobhyp.exactnum", "Poly", ("__add__", "__radd__")),
    "exactnum.poly_eval": ("sobhyp.exactnum", "Poly", ("__call__",)),
    "exactnum.derivative": ("sobhyp.exactnum", "Poly", ("derivative",)),
    "diffop.apply": ("sobhyp.diffop", "DiffOp", ("apply", "__call__")),
}

# Cached functions whose lru_cache statistics give a hit ratio.
CACHED = {
    "families.make_member": ("sobhyp.families", "make_member"),
    "sobolev.moment": ("sobhyp.sobolev", "moment"),
    "sobolev.gauss_rule": ("sobhyp.sobolev", "gauss_rule"),
}


def poly_bits(poly) -> int:
    """Largest numerator or denominator bit length among the coefficients."""
    return max(
        (max(c.numerator.bit_length(), c.denominator.bit_length()) for c in poly.coeffs),
        default=0,
    )


class Tracer:
    """In-memory span store plus the counters measured at the same boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []  # (name index, start, end, parent span index or -1)
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(int)
        self._originals: dict[str, object] = {}
        self._members_seen: set[int] = set()

    def wrap(self, name: str, fn, after=None, on_error=None):
        index = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                spans[sid] = (index, start, perf_counter(), parent)
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- counters measured at the span boundaries --------------------------

    def _after_mul(self, args, result):
        self_, other = args
        if type(other) is type(self_):
            self.counts["exactnum.poly_mul.coeff_products"] += len(self_.coeffs) * len(other.coeffs)
            bits = poly_bits(result)
            if bits > self.counts["exactnum.poly_mul.max_bits"]:
                self.counts["exactnum.poly_mul.max_bits"] = bits

    def _after_eval(self, args, result):
        self.counts["exactnum.poly_eval.coeff_steps"] += len(args[0].coeffs)

    def _after_member(self, args, result):
        if id(result) not in self._members_seen:  # a cache hit returns the same object
            self._members_seen.add(id(result))
            bits = poly_bits(result)
            if bits > self.counts["families.make_member.max_bits"]:
                self.counts["families.make_member.max_bits"] = bits

    def _after_orthogonality(self, args, result):
        self.counts["sobolev.pairs_checked"] += result.pairs_checked

    def _after_roots(self, args, result):
        self.counts["analysis.roots.iterations"] += result.iterations

    def _roots_error(self, exc):
        partial = getattr(exc, "partial", None)
        if partial is not None:
            self.counts["analysis.roots.iterations"] += partial.iterations

    def install(self):
        """Wrap every traced function and method at every place it is bound."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "sobhyp" or n.startswith("sobhyp."))]
        hooks = {
            "exactnum.poly_mul": (self._after_mul, None),
            "exactnum.poly_eval": (self._after_eval, None),
            "families.make_member": (self._after_member, None),
            "sobolev.verify_orthogonality": (self._after_orthogonality, None),
            "analysis.roots": (self._after_roots, self._roots_error),
        }
        for name, targets in FUNCTIONS.items():
            after, on_error = hooks.get(name, (None, None))
            for module_name, attr in targets:
                original = getattr(sys.modules[module_name], attr, None)
                if original is None:  # removed by a later change: the metric reads 0
                    continue
                self._originals[f"{module_name}.{attr}"] = original
                wrapper = self.wrap(name, original, after, on_error)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)
        for name, (module_name, cls_name, attrs) in METHODS.items():
            after, on_error = hooks.get(name, (None, None))
            cls = getattr(sys.modules[module_name], cls_name)
            wrappers = {}  # one wrapper per function object, so aliases share it
            for attr in attrs:
                original = vars(cls).get(attr)
                if original is None:
                    continue
                if original not in wrappers:
                    wrappers[original] = self.wrap(name, original, after, on_error)
                setattr(cls, attr, wrappers[original])

    def hit_ratios(self) -> dict[str, float]:
        """Cache hits over lookups for each cached function that exposes them."""
        out = {}
        for name, (module_name, attr) in CACHED.items():
            info = getattr(self._originals.get(f"{module_name}.{attr}"), "cache_info", None)
            if info is None:
                out[name] = 0.0
                continue
            stats = info()
            lookups = stats.hits + stats.misses
            out[name] = stats.hits / lookups if lookups else 0.0
        return out

    def write_spans(self, path: str):
        with open(path, "w") as fh:
            fh.write("name,start_s,end_s,parent\n")
            for index, start, end, parent in self.spans:
                fh.write(f"{self.names[index]},{start:.9f},{end:.9f},{parent}\n")

    def summarize(self) -> dict[str, float]:
        """Per-name ``.calls`` and ``.self_s`` from the spans, plus the counters."""
        child_time = [0.0] * len(self.spans)
        for index, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for sid, (index, start, end, parent) in enumerate(self.spans):
            name = self.names[index]
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += (end - start) - child_time[sid]
        out.update(self.counts)
        for name, ratio in self.hit_ratios().items():
            out[f"{name}.hit_ratio"] = ratio
        return dict(out)
