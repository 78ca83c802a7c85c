"""Outside-in tracing of ``kstieltjes`` from the benchmark's own files.

``Tracer.install`` replaces the public functions of each module, the
``_poly`` kernels, the ``PiecewiseFunction`` methods and ``Gauge.__call__``
with wrappers that record a span (name, start, end, parent id) or a count.
Every alias of a wrapped function in any ``kstieltjes`` module is rebound
too (``convergence`` holds its own ``ks_dFg``, ``cli`` its own
``load_function``, the package its re-exports), so calls are seen however
they are reached.  ``uninstall`` puts every original back.

Self time of a span is its duration minus the time its direct child spans
cover; the per-layer metrics sum self times and counts by span name.
Counts that need the arguments (merged pieces, elementary-set parts,
evaluation points) are taken before the span starts, so they are not
charged to the layer.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

import numpy as np

#: (module, attribute) pairs wrapped as spans, reported as ``module.attr``.
FUNCTIONS = {
    "_poly": ["polyval", "polyder", "defint", "real_roots", "max_abs_scalar",
              "integral_of_abs_scalar", "sup_norm_on", "integral_of_norm",
              "norm_of", "matvec_conv"],
    "piecewise": ["polynomial", "constant", "zero_function", "step",
                  "scaled_identity", "lincomb", "jordan_decompose",
                  "break_truncate"],
    "intervals": ["minimal_decomposition", "elementary_union",
                  "elementary_intersect", "elementary_diff", "indicator"],
    "variation": ["var_compact", "var_interval", "var_elementary",
                  "contracting_variation"],
    "integrate": ["ks_dFg", "ks_Fdg", "integral_over_point",
                  "integral_over_interval", "integral_over_elementary",
                  "estimate_bound", "estimate_bound_elementary",
                  "saks_identity_report"],
    "gauges": ["oracle_integral", "_forced_fine_division", "rs_sum_dFg",
               "rs_sum_Fdg", "cousin_partition", "is_delta_fine"],
    "convergence": ["realize", "run_bounded_convergence", "verify_break_limit"],
    "funcspec_io": ["load_function", "save_function", "function_from_dict",
                    "function_to_dict"],
    "cli": ["main", "cmd_integrate", "cmd_variation", "cmd_decompose",
            "cmd_converge", "cmd_oracle", "parse_set_expression"],
}

#: (module, class, method) triples wrapped as spans.
METHODS = [
    ("piecewise", "PiecewiseFunction", ["__init__", "__call__", "eval_many",
                                        "limit_left", "limit_right", "jumps",
                                        "refine", "clip", "restrict",
                                        "sup_norm"]),
    ("intervals", "Interval", ["__post_init__", "contains", "issubset"]),
    ("intervals", "ElementarySet", ["__post_init__", "contains",
                                    "contains_many", "endpoints", "issubset",
                                    "__or__", "__and__", "__sub__"]),
]

#: Span names under which some wrapped callables are reported.
RENAME = {
    "piecewise.PiecewiseFunction.__init__": "piecewise.construct",
    "gauges._forced_fine_division": "gauges.division",
    "gauges.oracle_integral": "gauges.oracle",
    "gauges.rs_sum_dFg": "gauges.rs_sum",
    "gauges.rs_sum_Fdg": "gauges.rs_sum",
    "funcspec_io.load_function": "funcspec_io.load",
    "funcspec_io.save_function": "funcspec_io.save",
}


def _span_name(module: str, qualname: str) -> str:
    # metric names start with a letter, so the private module reports as "poly"
    module = module.lstrip("_")
    full = f"{module}.{qualname}"
    if full in RENAME:
        return RENAME[full]
    if qualname.startswith("PiecewiseFunction."):
        return f"piecewise.{qualname.split('.', 1)[1]}"
    if module == "intervals":
        return f"intervals.{qualname}"
    return full


class Tracer:
    """Span recorder.  Spans are kept in memory as
    ``[id, name, start, end, parent_id]`` lists."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _wrap(self, name: str, fn, counter=None, result_counter=None):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        calls = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[calls] += 1
            if counter is not None:
                counter(counts, args, kwargs)
            span = [len(spans), name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(span[0])
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if result_counter is not None:
                result_counter(counts, result)
            return result

        return wrapper

    def _count_only(self, fn, counter):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counter(counts, args, kwargs)
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, package) -> "Tracer":
        """Wrap everything listed above in the imported ``package``."""
        replaced = {}
        for short, attrs in FUNCTIONS.items():
            mod = importlib.import_module(f"{package.__name__}.{short}")
            for attr in attrs:
                fn = getattr(mod, attr)
                name = _span_name(short, attr)
                wrapped = self._wrap(name, fn, *_COUNTERS.get(name, (None, None)))
                replaced[id(fn)] = wrapped
        modules = [mod for name, mod in sys.modules.items()
                   if name == package.__name__ or name.startswith(package.__name__ + ".")]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if callable(value) and id(value) in replaced:
                    self._set(mod, attr, replaced[id(value)])
        for short, cls_name, methods in METHODS:
            cls = getattr(sys.modules[f"{package.__name__}.{short}"], cls_name)
            for meth in methods:
                fn = cls.__dict__[meth]
                name = _span_name(short, f"{cls_name}.{meth}")
                self._set(cls, meth, self._wrap(name, fn, *_COUNTERS.get(name, (None, None))))
        gauge_cls = sys.modules[f"{package.__name__}.gauges"].Gauge
        self._set(gauge_cls, "__call__",
                  self._count_only(gauge_cls.__call__, _count_gauge))
        return self

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- results -----------------------------------------------------------

    def totals(self) -> dict[str, float]:
        """Per span name: summed duration, children included."""
        out: dict[str, float] = defaultdict(float)
        for _, name, start, end, _ in self.spans:
            out[name] += end - start
        return dict(out)

    def self_times(self) -> dict[str, float]:
        """Per span name: summed duration minus direct-child durations."""
        child = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (_, name, start, end, _), inner in zip(self.spans, child):
            out[name] += (end - start) - inner
        return dict(out)


def _count_merged(counts, args, kwargs):
    F, g = args[0], args[1]
    counts["integrate.merged_pieces"] += np.union1d(F.grid, g.grid).size - 1


def _count_parts(counts, args, kwargs):
    counts["variation.parts"] += len(args[1].parts)


def _count_points(counts, args, kwargs):
    counts["piecewise.eval_many.points"] += np.size(args[1])


def _count_gauge(counts, args, kwargs):
    counts["gauges.gauge_evals"] += np.size(args[1])


def _count_division(counts, result):
    counts["gauges.oracle.points"] += result.points.size


def _count_roots(counts, result):
    if result:
        counts["poly.real_roots.hits"] += 1


_COUNTERS = {
    "integrate.ks_dFg": (_count_merged, None),
    "integrate.ks_Fdg": (_count_merged, None),
    "variation.var_elementary": (_count_parts, None),
    "piecewise.eval_many": (_count_points, None),
    "gauges.division": (None, _count_division),
    "poly.real_roots": (None, _count_roots),
}
