"""Exact references for the benchmark, computed with ``fractions``.

Every reference is built from the same float arrays the benchmark hands to
the library (grid, per-piece monomial coefficients, node values).  A float
converts to a ``Fraction`` exactly, so the references are the true values
for the functions as represented, with no rounding at all.  Nothing here
calls ``kstieltjes``: the formulas are the textbook ones for
Kurzweil-Stieltjes integrals against piecewise polynomials,

    int_I d[F] g = int_I F'(t) g(t) dt + sum_{t in I} (F(t+) - F(t-)) g(t),

with ``F(a-) = F(a)`` and ``F(b+) = F(b)``, and the Jordan variation split
into jump norms plus a sampled lower bound for the continuous part.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction

import numpy as np

_to_q = np.vectorize(Fraction, otypes=[object])


def q(a) -> np.ndarray:
    """Object array of exact fractions from a float array."""
    return _to_q(np.asarray(a, dtype=float))


def qpolyval(c: np.ndarray, t) -> np.ndarray:
    """Horner evaluation of ``sum c[j] t**j`` on object arrays."""
    out = c[-1]
    for j in range(c.shape[0] - 2, -1, -1):
        out = out * t + c[j]
    return out


def qpolyder(c: np.ndarray) -> np.ndarray:
    if c.shape[0] == 1:
        return c * 0
    return np.stack([c[j] * j for j in range(1, c.shape[0])])


def qantider(c: np.ndarray) -> np.ndarray:
    zero = c[0] * 0
    return np.stack([zero] + [c[j] / Fraction(j + 1) for j in range(c.shape[0])])


def qconv(ca: np.ndarray, cx: np.ndarray) -> np.ndarray:
    """Coefficients of ``A(t) x(t)`` for operator ``A`` and vector ``x``."""
    out = [None] * (ca.shape[0] + cx.shape[0] - 1)
    for i in range(ca.shape[0]):
        for j in range(cx.shape[0]):
            term = ca[i].dot(cx[j])
            out[i + j] = term if out[i + j] is None else out[i + j] + term
    return np.stack(out)


def qnorm(x: np.ndarray) -> Fraction:
    """Max norm of a vector, max-row-sum norm of a matrix."""
    a = np.abs(x)
    if a.ndim == 1:
        return max(a)
    return max(sum(row) for row in a)


class QFun:
    """Exact copy of a piecewise polynomial given by the benchmark's arrays."""

    def __init__(self, grid, coeffs, nodes):
        self.grid = list(q(grid))
        self.coeffs = [q(c) for c in coeffs]
        self.nodes = q(nodes)
        self.m = len(self.coeffs)
        self.zero = self.nodes[0] * 0

    def piece_left(self, t) -> int:
        """Piece ``k`` with ``grid[k] <= t < grid[k+1]``."""
        return min(bisect_right(self.grid, t) - 1, self.m - 1)

    def value(self, t) -> np.ndarray:
        k = bisect_left(self.grid, t)
        if k < len(self.grid) and self.grid[k] == t:
            return self.nodes[k]
        return qpolyval(self.coeffs[k - 1], t)

    def jump_minus(self, k: int) -> np.ndarray:
        if k == 0:
            return self.zero
        return self.nodes[k] - qpolyval(self.coeffs[k - 1], self.grid[k])

    def jump_plus(self, k: int) -> np.ndarray:
        if k == self.m:
            return self.zero
        return qpolyval(self.coeffs[k], self.grid[k]) - self.nodes[k]


def _prefix(values) -> list:
    out = [values[0] * 0]
    for v in values:
        out.append(out[-1] + v)
    return out


def _select(grid, c, d, lo_closed, hi_closed) -> tuple[int, int]:
    """Index range of grid points inside the interval with that openness."""
    lo = bisect_left(grid, c) if lo_closed else bisect_right(grid, c)
    hi = bisect_right(grid, d) if hi_closed else bisect_left(grid, d)
    return lo, max(lo, hi)


class PairReference:
    """Exact ``int d[F] g`` over any subinterval and ``int F d[g]`` over
    the whole domain, for one (operator, vector) pair."""

    def __init__(self, F: QFun, g: QFun):
        self.F, self.g = F, g
        self.grid = sorted(set(F.grid) | set(g.grid))
        self.anti = []      # antiderivative of F' g per merged piece
        pieces = []
        fdg = None
        for u, v in zip(self.grid[:-1], self.grid[1:]):
            mid = (u + v) / 2
            cF = F.coeffs[F.piece_left(mid)]
            cg = g.coeffs[g.piece_left(mid)]
            A = qantider(qconv(qpolyder(cF), cg))
            self.anti.append(A)
            pieces.append(qpolyval(A, v) - qpolyval(A, u))
            B = qantider(qconv(cF, qpolyder(cg)))
            part = qpolyval(B, v) - qpolyval(B, u)
            fdg = part if fdg is None else fdg + part
        self.cont_prefix = _prefix(pieces)
        self.jump_terms = _prefix([(F.jump_minus(k) + F.jump_plus(k)).dot(g.value(t))
                                   for k, t in enumerate(F.grid)])
        g_jumps = sum(F.value(t).dot(g.jump_minus(k) + g.jump_plus(k))
                      for k, t in enumerate(g.grid))
        self.fdg_total = fdg + g_jumps

    def _cont(self, c, d):
        if c == d:
            return self.cont_prefix[0]
        i = min(bisect_right(self.grid, c) - 1, len(self.anti) - 1)
        j = max(bisect_left(self.grid, d) - 1, 0)
        A, B = self.anti[i], self.anti[j]
        if i == j:
            return qpolyval(A, d) - qpolyval(A, c)
        head = qpolyval(A, self.grid[i + 1]) - qpolyval(A, c)
        tail = qpolyval(B, d) - qpolyval(B, self.grid[j])
        return head + (self.cont_prefix[j] - self.cont_prefix[i + 1]) + tail

    def dFg(self, c, d, lo_closed=True, hi_closed=True) -> np.ndarray:
        c, d = Fraction(c), Fraction(d)
        lo, hi = _select(self.F.grid, c, d, lo_closed, hi_closed)
        return self._cont(c, d) + (self.jump_terms[hi] - self.jump_terms[lo])


class VariationReference:
    """Exact jump part of the variation over any subinterval, plus bounds
    on the continuous part: a lower bound from sampled increments inside
    each piece and the upper bound ``width * sum_j j |c_j| max(|u|,|v|)**(j-1)``."""

    SAMPLES = 8

    def __init__(self, f: QFun, grid, coeffs):
        self.f = f
        self.plus = _prefix([qnorm(f.jump_plus(k)) for k in range(f.m + 1)])
        self.minus = _prefix([qnorm(f.jump_minus(k)) for k in range(f.m + 1)])
        self.grid = np.asarray(grid, dtype=float)
        self.coeffs = [np.asarray(c, dtype=float) for c in coeffs]
        lows = [self._lower(k, self.grid[k], self.grid[k + 1]) for k in range(f.m)]
        self.low_prefix = np.concatenate([[0.0], np.cumsum(lows)])
        ups = [self._upper(k, self.grid[k], self.grid[k + 1]) for k in range(f.m)]
        self.up_prefix = np.concatenate([[0.0], np.cumsum(ups)])

    @staticmethod
    def _fnorm(x: np.ndarray) -> np.ndarray:
        """Norm over the value axes, which lead; the sample axis is last."""
        a = np.abs(x)
        if a.ndim == 3:
            a = a.sum(axis=1)
        return a.max(axis=0)

    def _lower(self, k, u, v) -> float:
        c = self.coeffs[k]
        ts = np.linspace(u, v, self.SAMPLES + 1)
        vals = np.zeros(c.shape[1:] + ts.shape)
        for j in range(c.shape[0] - 1, -1, -1):
            vals = vals * ts + c[j][..., None]
        return float(self._fnorm(np.diff(vals, axis=-1)).sum())

    def _upper(self, k, u, v) -> float:
        c = self.coeffs[k]
        r = max(abs(u), abs(v))
        bound = sum(j * np.abs(c[j]) * r ** (j - 1) for j in range(1, c.shape[0]))
        if np.ndim(bound) == 0:
            return 0.0
        return float(self._fnorm(np.asarray(bound)[..., None])[0]) * (v - u)

    def jumps(self, c, d, lo_closed, hi_closed) -> Fraction:
        """Summed ``||jump_plus||`` over ``[c,d)`` or ``(c,d)`` and
        ``||jump_minus||`` over ``(c,d]`` or ``(c,d)``."""
        c, d = Fraction(c), Fraction(d)
        if c == d:
            return Fraction(0)
        lo_p, hi_p = _select(self.f.grid, c, d, lo_closed, False)
        lo_m, hi_m = _select(self.f.grid, c, d, False, hi_closed)
        return (self.plus[hi_p] - self.plus[lo_p]) + (self.minus[hi_m] - self.minus[lo_m])

    def continuous_bounds(self, c: float, d: float) -> tuple[float, float]:
        if c == d:
            return 0.0, 0.0
        i = min(int(np.searchsorted(self.grid, c, side="right")) - 1, self.f.m - 1)
        j = max(int(np.searchsorted(self.grid, d, side="left")) - 1, 0)
        if i == j:
            return self._lower(i, c, d), self._upper(i, c, d)
        low = (self._lower(i, c, self.grid[i + 1]) + self._lower(j, self.grid[j], d)
               + self.low_prefix[j] - self.low_prefix[i + 1])
        up = (self._upper(i, c, self.grid[i + 1]) + self._upper(j, self.grid[j], d)
              + self.up_prefix[j] - self.up_prefix[i + 1])
        return low, up


def close(value, reference, rel: float) -> bool:
    """``|value - reference| <= rel * max(1, |reference|)`` componentwise,
    with the reference exact and the comparison done in exact arithmetic."""
    v = np.atleast_1d(np.asarray(value, dtype=float))
    r = np.atleast_1d(np.asarray(reference, dtype=object))
    if v.shape != r.shape or not np.all(np.isfinite(v)):
        return False
    scale = max([Fraction(1)] + [abs(Fraction(x)) for x in r.ravel()])
    tol = Fraction(rel) * scale
    return all(abs(Fraction(float(x)) - Fraction(y)) <= tol
               for x, y in zip(v.ravel(), r.ravel()))
