"""Variation of piecewise-polynomial regulated functions.

On a compact interval the (Jordan) variation splits into an exactly
computable continuous contribution plus a jump contribution:

* continuous: the integral of the norm of the derivative of the continuous
  part over each piece.  Since the break part is constant on every open
  piece, that derivative is just the piece polynomial's derivative; the
  integral is evaluated by splitting at the isolated roots where an entry
  changes sign or the maximising row changes, then integrating the winning
  row sum in closed form.
* jumps: the sum of ``||jump_plus||`` over ``[c, d)`` plus ``||jump_minus||``
  over ``(c, d]``.

Variation over an arbitrary (open or half-open) interval removes exactly
the endpoint jump norms that the interval's openness excludes:

    var[c,d] = var[c,d) + ||jump_minus(d)||
             = var(c,d] + ||jump_plus(c)||
             = var(c,d) + ||jump_plus(c)|| + ||jump_minus(d)||

and the variation over an elementary set is the sum over the minimal
decomposition, which makes it finitely additive for continuous functions.
A direct supremum over generalized divisions of a disconnected set is
deliberately not offered: it would not be additive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _poly
from .errors import DomainError
from .intervals import ElementarySet, Interval
from .piecewise import PiecewiseFunction, _parts_table


@dataclass(frozen=True)
class VariationResult:
    """Total variation with its continuous/jump split."""

    total: float
    continuous_contribution: float
    jump_contribution: float

    @classmethod
    def zero(cls) -> "VariationResult":
        return cls(0.0, 0.0, 0.0)

    def __add__(self, other: "VariationResult") -> "VariationResult":
        return VariationResult(
            self.total + other.total,
            self.continuous_contribution + other.continuous_contribution,
            self.jump_contribution + other.jump_contribution)


def _continuous_parts(f: PiecewiseFunction, lo: np.ndarray, hi: np.ndarray) -> list[float]:
    """The derivative's norm integrated over each part ``[lo[k], hi[k]]``:
    one ``integral_of_norms`` for every non-constant piece meeting a part,
    added in grid order from 0.0."""
    pieces, part, u, v = f._spans(lo, hi)
    der = _poly.polyder(f._block[pieces], axis=1)
    live = der.any(axis=tuple(range(1, der.ndim)))
    sums = _poly.integral_of_norms(der[live], u[live], v[live]) if live.any() else u[live]
    return _poly.running_sum(sums, lengths=np.bincount(part[live], minlength=len(lo))).tolist()


def _jump_part(f: PiecewiseFunction, part: Interval) -> float:
    """Summed jump norms: ``jump_plus`` at the grid points of the part
    with its upper end left out, ``jump_minus`` at those with its lower
    end left out, each added in grid order from 0.0."""
    table = f._jump_table()
    plus = table.norm_plus[f._grid_slice(part.lo, part.hi, part.lo_closed, False)]
    minus = table.norm_minus[f._grid_slice(part.lo, part.hi, False, part.hi_closed)]
    return float(_poly.running_sum(plus) + _poly.running_sum(minus))


def var_compact(f: PiecewiseFunction, c: float, d: float) -> VariationResult:
    """Jordan variation of ``f`` over the compact interval ``[c, d]``.

    ``c == d`` is allowed and gives zero.
    """
    c, d = float(c), float(d)
    if not (f.a <= c <= d <= f.b):  # NaN fails too
        raise DomainError(f"[{c}, {d}] is not a subinterval of [{f.a}, {f.b}]")
    return var_interval(f, Interval.closed(c, d))


def var_interval(f: PiecewiseFunction, interval: Interval) -> VariationResult:
    """Variation over an arbitrary subinterval, honouring openness.

    Degenerate intervals give zero by convention.
    """
    return _variations(f, [interval])[0]


def var_elementary(f: PiecewiseFunction, region: ElementarySet) -> VariationResult:
    """Variation over an elementary set: the sum over the parts of its
    minimal decomposition (zero for the empty set)."""
    result = VariationResult.zero()
    for part in _variations(f, region.parts) if region.parts else ():
        result = result + part
    return result


def _variations(f: PiecewiseFunction, parts) -> list[VariationResult]:
    """``var_interval`` over each of the sorted disjoint ``parts``."""
    lo, hi = _parts_table(parts, f.a, f.b).T[:2]
    out = []
    for part, cont in zip(parts, _continuous_parts(f, lo, hi)):
        if part.is_degenerate:
            out.append(VariationResult.zero())
        else:
            jump = _jump_part(f, part)
            out.append(VariationResult(cont + jump, cont, jump))
    return out


def contracting_variation(f: PiecewiseFunction,
                          sets: Sequence[ElementarySet]) -> list[float]:
    """Variation of a continuous function along a contracting sequence of
    elementary sets.

    For elementary sets the supremum of the variation over elementary
    subsets is attained by the set itself, so the diagnostic value for each
    stage is simply ``var_elementary(f, sets[n])``.  When the intersection
    of the sequence is empty these values must decrease to zero; the
    function returns them for inspection and merely validates the
    hypotheses (continuity of ``f`` and the contraction property).
    """
    if f._jump_rows().size:
        raise ValueError("contracting_variation requires a continuous function")
    for earlier, later in zip(sets[:-1], sets[1:]):
        if not later.issubset(earlier):
            raise ValueError("sets must be contracting: each one a subset of the previous")
    return [var_elementary(f, region).total for region in sets]
