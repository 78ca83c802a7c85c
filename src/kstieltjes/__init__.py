"""Kurzweil-Stieltjes integration for piecewise-polynomial regulated
functions on compact intervals.

The library covers: interval and elementary-set algebra with exact
endpoint-openness semantics; a regulated-function representation
(piecewise polynomials with explicit node values) closed under linear
combination, indicator restriction and Jordan decomposition; Jordan
variation on compact, arbitrary and elementary-set regions; a closed-form
integration engine for both orientations together with the jump-correction
formulas for integrals over arbitrary intervals and elementary sets; a
gauge / fine-tagged-division toolkit with an independent
Riemann-Stieltjes refinement oracle; and a bounded-convergence experiment
harness.

Values live in R^n under the max norm, operators in the n-by-n matrices
under the induced max-row-sum norm — both exactly computable.
"""

from .intervals import (ElementarySet, Interval, elementary_diff,
                        elementary_intersect, elementary_union, indicator,
                        minimal_decomposition)
from .norms import norm_of, op_norm, sup_norm
from .piecewise import (JumpRecord, PiecewiseFunction, break_truncate,
                        constant, jordan_decompose, lincomb, polynomial,
                        restrict, scaled_identity, step, zero_function)
from .variation import (VariationResult, contracting_variation, var_compact,
                        var_elementary, var_interval)
from .integrate import (IntegralResult, SaksCorrections, estimate_bound,
                        estimate_bound_elementary, integral_over_elementary,
                        integral_over_interval, integral_over_point, ks_Fdg,
                        ks_dFg, saks_identity_report)
from .gauges import (Gauge, TaggedDivision, cousin_partition, is_delta_fine,
                     oracle_integral, rs_sum_Fdg, rs_sum_dFg)
from .convergence import (ConvergenceEntry, ConvergenceReport, SequenceFamily,
                          realize, run_bounded_convergence, verify_break_limit)
from .funcspec_io import (function_from_dict, function_to_dict, load_function,
                          save_function)
from .errors import (DimensionMismatchError, DomainError, FunctionSpecError,
                     GaugeTooSmallError, HypothesisViolationError,
                     OracleFailureError, SetExpressionError)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceEntry",
    "ConvergenceReport",
    "DimensionMismatchError",
    "DomainError",
    "ElementarySet",
    "FunctionSpecError",
    "Gauge",
    "GaugeTooSmallError",
    "HypothesisViolationError",
    "IntegralResult",
    "Interval",
    "JumpRecord",
    "OracleFailureError",
    "PiecewiseFunction",
    "SaksCorrections",
    "SequenceFamily",
    "SetExpressionError",
    "TaggedDivision",
    "VariationResult",
    "break_truncate",
    "constant",
    "contracting_variation",
    "cousin_partition",
    "elementary_diff",
    "elementary_intersect",
    "elementary_union",
    "estimate_bound",
    "estimate_bound_elementary",
    "function_from_dict",
    "function_to_dict",
    "indicator",
    "integral_over_elementary",
    "integral_over_interval",
    "integral_over_point",
    "is_delta_fine",
    "jordan_decompose",
    "ks_Fdg",
    "ks_dFg",
    "lincomb",
    "load_function",
    "minimal_decomposition",
    "norm_of",
    "op_norm",
    "oracle_integral",
    "polynomial",
    "realize",
    "restrict",
    "rs_sum_Fdg",
    "rs_sum_dFg",
    "run_bounded_convergence",
    "save_function",
    "scaled_identity",
    "step",
    "sup_norm",
    "var_compact",
    "var_elementary",
    "var_interval",
    "verify_break_limit",
    "zero_function",
    "saks_identity_report",
]
