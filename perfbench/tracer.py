"""Layer spans for the cohom package, recorded from outside the package.

`Tracer.install()` replaces each listed function of `cohom` with a
wrapper everywhere it is bound: in its own module, in every module that
copied it with `from .x import f`, in the package namespace, and on the
class for methods.  Nothing under `src/` changes.  A wrapper records a
span (name, start, end, parent) only while an op is open, so inputs built
between ops leave no spans.

Counters are taken in the wrappers and their own cost is excluded from
the enclosing span's self time.  Distinct-input ratios keep references
to the arguments and compare them by value after the op has ended.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# span name -> the (module, attribute) bindings it covers
SPANS = {
    "linalg.rref": [("linalg", "rref")],
    "linalg.subquotient": [("linalg", "subquotient")],
    "linalg.solve": [("linalg", "solve")],
    "linalg.invert": [("linalg", "invert")],
    "linalg.rank": [("linalg", "rank")],
    "linalg.kernel_basis": [("linalg", "kernel_basis")],
    "linalg.image_basis": [("linalg", "image_basis")],
    "linalg.apply": [("linalg", "LinearMap.apply")],
    "linalg.compose": [("linalg", "LinearMap.compose")],
    "linalg.span_add": [("linalg", "SpanBuilder.add")],
    "complexes.validate": [("complexes", "validate")],
    "complexes.cohomology": [("complexes", "cohomology")],
    "grid.total": [("grid", "total")],
    "grid.validate": [("grid", "DoubleComplex.validate")],
    "grid.totals_agree": [("grid", "totals_agree")],
    "grid.flatten": [("grid", "flatten_fix_r"), ("grid", "flatten_fix_p")],
    "cech.parse": [("cech", "hyper_from_json")],
    "cech.cech_complex": [("cech", "cech_complex")],
    "cech.double_complex": [("cech", "cech_sheaf_double_complex")],
    "cech.sheaf_validate": [("cech", "SheafOnCover.validate")],
    "cech.cech_hyper": [("cech", "cech_hyper")],
    "spectral.first_pages": [("spectral", "first_pages")],
    "spectral.second_pages": [("spectral", "second_pages")],
    "spectral.certify_convergence": [("spectral", "certify_convergence")],
    "forms.derham_cohomology": [("forms", "derham_cohomology")],
    "forms.multidegree_split": [("forms", "multidegree_split")],
    "forms.pole_reduce": [("forms", "pole_reduce")],
    "forms.log_representative": [("forms", "log_representative")],
    "forms.exterior_derivative": [("forms", "exterior_derivative")],
    "forms.wedge": [("forms", "wedge")],
    "forms.parse_form": [("forms", "parse_form")],
    "presets.build_p1": [("presets", "build_p1")],
    "cli.main": [("cli", "main")],
}

# ROADMAP stage vocabulary; the in-program trace is to reuse these names.
STAGES = {
    "linalg.rref": "eliminate",
    "linalg.subquotient": "subquotient",
    "spectral.first_pages": "pages",
    "spectral.second_pages": "pages",
    "spectral.certify_convergence": "certify",
    "complexes.validate": "validate",
    "grid.validate": "validate",
    "cech.sheaf_validate": "validate",
    "grid.total": "assemble",
    "grid.flatten": "assemble",
    "cech.cech_complex": "assemble",
    "cech.double_complex": "assemble",
    "cech.parse": "parse",
    "forms.parse_form": "parse",
}

# spans whose first argument is kept to count distinct inputs per op
DISTINCT = ("complexes.cohomology", "grid.total")


def _max_bits(rows) -> int:
    best = 0
    for row in rows:
        for x in row:
            best = max(best, x.numerator.bit_length(), x.denominator.bit_length())
    return best


def _count_rref(counts, args, result):
    rows = args[0]
    ncols = len(rows[0]) if rows else 0
    counts["linalg.rref.cells"] += len(rows) * ncols
    counts["linalg.rref.nnz"] += sum(1 for row in rows for x in row if x != 0)
    counts["linalg.rref.max_bits"] = max(counts["linalg.rref.max_bits"], _max_bits(result[1]))


def _count_apply(counts, args, result):
    m = args[0]
    counts["linalg.apply.cells"] += m.codomain.dim * m.domain.dim


COUNTERS = {"linalg.rref": _count_rref, "linalg.apply": _count_apply}

# counted but not spanned: (module, attribute) -> counter name, increment
COUNT_ONLY = {
    ("spectral", "_compute_pages"): ("spectral.pages.built", len),
    ("forms", "multidegree_complex"): ("forms.components", lambda result: 1),
}


class Tracer:
    """Spans and counters of the op that is currently open."""

    def __init__(self):
        self.active = False
        self._restore: list = []
        self._reset()

    def _reset(self):
        self.spans: list = []      # [name, start, end, parent index, excluded seconds]
        self.stack: list = []
        self.counts = defaultdict(int)
        self.args = defaultdict(list)

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        for name, bindings in SPANS.items():
            for module, attr in bindings:
                self._rebind(module, attr, self._span_wrapper(name, _resolve(module, attr)))
        for (module, attr), (counter, amount) in COUNT_ONLY.items():
            self._rebind(module, attr, self._count_wrapper(counter, amount, _resolve(module, attr)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _rebind(self, module: str, attr: str, wrapper) -> None:
        original = wrapper.__wrapped__
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(importlib.import_module(f"cohom.{module}"), cls_name)
            self._restore.append((cls, meth, original))
            setattr(cls, meth, wrapper)
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "cohom" and not mod_name.startswith("cohom."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def _span_wrapper(self, name, fn):
        counter = COUNTERS.get(name)
        keep_arg = name in DISTINCT
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            spans, stack = self.spans, self.stack
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf()
                stack.pop()
            if counter is not None or keep_arg:
                if keep_arg:
                    self.args[name].append(args[0])
                if counter is not None:
                    counter(self.counts, args, result)
                if span[3] >= 0:
                    spans[span[3]][4] += perf() - span[2]
            return result

        return wrapper

    def _count_wrapper(self, counter, amount, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self.active:
                self.counts[counter] += amount(result)
            return result

        return wrapper

    # -- one op ---------------------------------------------------------

    def begin(self) -> None:
        self._reset()
        self.active = True

    def end(self) -> dict:
        """Close the op; return its spans, calls, self times and counts."""
        self.active = False
        spans = [(s[0], s[1], s[2], s[3]) for s in self.spans]
        child_time = [0.0] * len(spans)
        for i, (_, start, end, parent) in enumerate(spans):
            if parent >= 0:
                child_time[parent] += end - start
        calls: dict = defaultdict(int)
        self_s: dict = defaultdict(float)
        for i, (name, start, end, _) in enumerate(spans):
            calls[name] += 1
            self_s[name] += end - start - child_time[i] - self.spans[i][4]
        counts = dict(self.counts)
        for name in DISTINCT:
            args = self.args[name]
            counts[f"{name}.inputs"] = len(args)
            counts[f"{name}.distinct"] = len(set(args))
        self._reset()
        return {"spans": spans, "calls": dict(calls), "self_s": dict(self_s), "counts": counts}


def _resolve(module: str, attr: str):
    obj = importlib.import_module(f"cohom.{module}")
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj
