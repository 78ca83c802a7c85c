"""Polynomial helpers with array-valued coefficients.

Coefficient layout throughout the library: ``c[j]`` multiplies ``t**j``,
so the leading axis of a coefficient array is the degree axis.  Trailing
axes carry the value shape: ``()`` for scalars, ``(n,)`` for vectors and
``(n, n)`` for operators.

Everything here is closed form: definite integrals go through the
antiderivative.  The norm of a polynomial's value (the max norm of a
vector, the max-row-sum norm of an operator) is piecewise polynomial, and
one kernel, ``_norm_pieces``, splits an interval at polynomial roots into
segments on each of which it is a single scalar polynomial.
``integral_of_norm`` and ``sup_norm_on`` are two reductions over those
segments: the sum of ``defint`` and the largest ``max_abs_scalar``.  The
only inexactness is floating-point rounding plus root placement, which the
callers' tolerances absorb.
"""

from __future__ import annotations

import numpy as np

from .norms import norm_of

#: Relative tolerance used to merge nearby root candidates.
_ROOT_MERGE = 1e-13


def polyval(c: np.ndarray, t) -> np.ndarray:
    """Evaluate the polynomial ``sum c[j] t**j`` at ``t``.

    ``t`` may be a scalar or a 1-d array; the result has shape
    ``c.shape[1:] + t.shape``.  Sparse high-degree coefficient arrays
    (single monomials, as produced by the power family) take a fast path
    that avoids Horner over the zero coefficients.

    The branch taken depends only on ``c``, so scalar and vectorised
    evaluation of the same piece are bitwise consistent.
    """
    c = np.asarray(c, dtype=float)
    tarr = np.asarray(t, dtype=float)
    scalar = tarr.ndim == 0
    ts = tarr.reshape(1) if scalar else tarr
    vshape = c.shape[1:]
    nz = np.flatnonzero(c.reshape(c.shape[0], -1).any(axis=1))
    if nz.size == 0:
        out = np.zeros(vshape + ts.shape)
    elif nz.size <= 2:
        out = np.zeros(vshape + ts.shape)
        for j in nz:
            out += c[j][..., np.newaxis] * ts**j
    else:
        top = int(nz[-1])
        out = np.zeros(vshape + ts.shape)
        out += c[top][..., np.newaxis]
        for j in range(top - 1, -1, -1):
            out *= ts
            out += c[j][..., np.newaxis]
    return out[..., 0] if scalar else out


def polyder(c: np.ndarray) -> np.ndarray:
    """Coefficients of the derivative polynomial."""
    c = np.asarray(c, dtype=float)
    if c.shape[0] <= 1:
        return np.zeros((1,) + c.shape[1:])
    mult = np.arange(1, c.shape[0], dtype=float)
    return c[1:] * mult.reshape((-1,) + (1,) * (c.ndim - 1))


def defint(c: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Definite integral of the polynomial over ``[lo, hi]``.

    Computed as ``sum c[j] (hi**(j+1) - lo**(j+1)) / (j+1)`` over the
    nonzero coefficients, in increasing degree order.
    """
    c = np.asarray(c, dtype=float)
    nz = np.flatnonzero(c.reshape(c.shape[0], -1).any(axis=1))
    out = np.zeros(c.shape[1:])
    if nz.size == 0 or lo == hi:
        return out
    powers = nz + 1.0
    weights = (hi**powers - lo**powers) / powers
    for j, w in zip(nz, weights):
        out = out + c[j] * w
    return out


def is_zero_poly(c: np.ndarray) -> bool:
    return not np.any(np.asarray(c))


def real_roots(c: np.ndarray, lo: float, hi: float) -> list[float]:
    """Real roots of a scalar polynomial strictly inside ``(lo, hi)``.

    Roots are found from the companion matrix, polished with a few Newton
    steps and deduplicated.  The zero polynomial reports no roots (callers
    must special-case it; for segment splitting that is what is wanted).
    """
    c = np.asarray(c, dtype=float).reshape(-1)
    nz = np.flatnonzero(c)
    if nz.size == 0 or nz[-1] == 0:
        return []
    c = c[:nz[-1] + 1]
    # Factor out t**k so monomial-heavy polynomials stay cheap and
    # well conditioned.
    k0 = int(nz[0])
    found = []
    if k0 > 0 and lo < 0.0 < hi:
        found.append(0.0)
    rem = c[k0:]
    if rem.shape[0] == 2:
        cands = [-rem[0] / rem[1]]
    elif rem.shape[0] > 2:
        scale = np.max(np.abs(rem))
        roots = np.polynomial.polynomial.polyroots(rem / scale)
        cands = [float(r.real) for r in np.atleast_1d(roots)
                 if abs(r.imag) <= 1e-8 * (1.0 + abs(r.real))]
    else:
        cands = []
    if cands:
        der = polyder(rem)
        span = hi - lo
        for x in cands:
            px = float(polyval(rem, x))
            for _ in range(6):
                dpx = float(polyval(der, x))
                if dpx == 0.0:
                    break
                step = px / dpx
                if abs(step) > span:
                    break
                nx = x - step
                if abs(step) < 1e-15 * (1.0 + abs(nx)):
                    x = nx
                    break
                # At a multiple root p and p' are both rounding noise and
                # their ratio can throw x off the root: undo such a step.
                npx = float(polyval(rem, nx))
                if abs(npx) > abs(px):
                    break
                x, px = nx, npx
            if lo < x < hi:
                found.append(x)
    found.sort()
    merged: list[float] = []
    for x in found:
        if not merged or x - merged[-1] > _ROOT_MERGE * (1.0 + abs(x)):
            merged.append(x)
    return merged


def _segments(lo: float, hi: float, cuts: list[float]):
    pts = [lo] + [x for x in sorted(set(cuts)) if lo < x < hi] + [hi]
    for u, v in zip(pts[:-1], pts[1:]):
        if v > u:
            yield u, v


def _norm_pieces(c: np.ndarray, lo: float, hi: float):
    """Yield ``(u, v, q)`` covering ``[lo, hi]`` in order, where the scalar
    polynomial ``q`` equals ``||p(t)||`` on ``[u, v]``.

    Scalars and vectors are treated as one-column operators: the max norm
    of a column is its max-row-sum norm, so one path serves all shapes.
    The interval is first cut where an entry changes sign, so that every
    row sum of ``|c|`` is a polynomial there, and then where the largest
    row sum changes hands; ``q`` is the winning row sum.
    """
    c = np.asarray(c, dtype=float)
    ops = c.reshape((c.shape[0],) + (c.shape[1:2] or (1,)) + (-1,))
    cuts = [x for entry in ops.reshape(c.shape[0], -1).T
            for x in real_roots(entry, lo, hi)]
    for u, v in _segments(lo, hi, cuts):
        signs = np.where(polyval(ops, 0.5 * (u + v)) >= 0.0, 1.0, -1.0)
        rows = np.sum(ops * signs, axis=2).T
        inner = [x for i in range(len(rows)) for j in range(i + 1, len(rows))
                 for x in real_roots(rows[i] - rows[j], u, v)]
        for uu, vv in _segments(u, v, inner):
            mid = 0.5 * (uu + vv)
            yield uu, vv, rows[int(np.argmax([float(polyval(r, mid)) for r in rows]))]


def max_abs_scalar(c: np.ndarray, lo: float, hi: float) -> float:
    """Maximum of ``|p(t)|`` on ``[lo, hi]`` for a scalar polynomial."""
    cands = [lo, hi] + real_roots(polyder(c), lo, hi)
    return max(abs(float(polyval(c, x))) for x in cands)


def integral_of_abs_scalar(c: np.ndarray, lo: float, hi: float) -> float:
    """``integral of |p(t)| dt`` for a scalar polynomial."""
    return integral_of_norm(c, lo, hi)


def sup_norm_on(c: np.ndarray, lo: float, hi: float) -> float:
    """Supremum of the norm of an array-valued polynomial on ``[lo, hi]``.

    Vector values use the max norm, operator values the induced
    max-row-sum norm: the largest ``max_abs_scalar`` of the norm pieces.
    """
    if lo == hi or len(c) == 1:  # a point, or a constant
        return float(norm_of(polyval(c, lo)))
    return max((max_abs_scalar(q, u, v) for u, v, q in _norm_pieces(c, lo, hi)),
               default=0.0)


def integral_of_norm(c: np.ndarray, lo: float, hi: float) -> float:
    """Exact ``integral of ||p(t)|| dt`` over ``[lo, hi]``: the sum of
    ``defint`` over the norm pieces."""
    if hi <= lo or is_zero_poly(c):
        return 0.0
    total = 0.0
    for u, v, q in _norm_pieces(c, lo, hi):
        total += float(defint(q, u, v))
    return total


def matvec_conv(ca: np.ndarray, cx: np.ndarray) -> np.ndarray:
    """Coefficients of ``t -> A(t) x(t)`` for operator ``A`` and vector ``x``.

    ``ca`` has shape ``(ka, n, n)``, ``cx`` shape ``(kx, n)``; the result
    has shape ``(ka + kx - 1, n)``.  Zero coefficients of ``A`` are
    skipped so monomial factors stay cheap.
    """
    ca = np.asarray(ca, dtype=float)
    cx = np.asarray(cx, dtype=float)
    ka, kx = ca.shape[0], cx.shape[0]
    out = np.zeros((ka + kx - 1, cx.shape[1]))
    for i in range(ka):
        if not np.any(ca[i]):
            continue
        out[i:i + kx] += np.einsum('ij,dj->di', ca[i], cx)
    return out
