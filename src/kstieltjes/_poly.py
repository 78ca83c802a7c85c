"""Polynomial helpers with array-valued coefficients.

Coefficient layout throughout the library: ``c[j]`` multiplies ``t**j``,
so the leading axis of a coefficient array is the degree axis.  Trailing
axes carry the value shape: ``()`` for scalars, ``(n,)`` for vectors and
``(n, n)`` for operators.

Everything here is closed form: definite integrals go through the
antiderivative, and the piecewise-linear-algebra of ``max``/``abs`` over
norms is handled by splitting the interval at polynomial roots so that on
every sub-segment the integrand is a single signed polynomial.  The only
inexactness is floating-point rounding plus root placement, which the
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
            for _ in range(6):
                px = float(polyval(rem, x))
                dpx = float(polyval(der, x))
                if dpx == 0.0:
                    break
                step = px / dpx
                if abs(step) > span:
                    break
                x -= step
                if abs(step) < 1e-15 * (1.0 + abs(x)):
                    break
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


def _max_scalar(c: np.ndarray, lo: float, hi: float) -> float:
    """Maximum of a scalar polynomial (no absolute value) on ``[lo, hi]``."""
    cands = [lo, hi] + real_roots(polyder(c), lo, hi)
    return max(float(polyval(c, x)) for x in cands)


def max_abs_scalar(c: np.ndarray, lo: float, hi: float) -> float:
    """Maximum of ``|p(t)|`` on ``[lo, hi]`` for a scalar polynomial."""
    cands = [lo, hi] + real_roots(polyder(c), lo, hi)
    return max(abs(float(polyval(c, x))) for x in cands)


def integral_of_abs_scalar(c: np.ndarray, lo: float, hi: float) -> float:
    total = 0.0
    for u, v in _segments(lo, hi, real_roots(c, lo, hi)):
        mid = 0.5 * (u + v)
        sign = 1.0 if float(polyval(c, mid)) >= 0.0 else -1.0
        total += sign * float(defint(c, u, v))
    return total


def _row_polys(c: np.ndarray, u: float, v: float) -> list[np.ndarray]:
    """Row-sum polynomials of ``|c|`` valid on the sign-constant segment
    ``[u, v]`` (operator coefficients, shape ``(k, n, n)``)."""
    mid = 0.5 * (u + v)
    vals = polyval(c, mid)
    signs = np.where(vals >= 0.0, 1.0, -1.0)
    return [np.sum(c * signs[np.newaxis, :, :], axis=2)[:, i]
            for i in range(c.shape[1])]


def sup_norm_on(c: np.ndarray, lo: float, hi: float) -> float:
    """Supremum of the norm of an array-valued polynomial on ``[lo, hi]``.

    Vector values use the max norm, operator values the induced
    max-row-sum norm.  ``sup_t max_i = max_i sup_t`` lets the vector case
    reduce to per-component extrema; the operator case first splits the
    interval where any entry changes sign so the row sums are polynomials.
    """
    c = np.asarray(c, dtype=float)
    if lo == hi:
        return float(norm_of(polyval(c, lo)))
    if c.ndim == 2:  # vector
        return max(max_abs_scalar(c[:, i], lo, hi) for i in range(c.shape[1]))
    if c.ndim == 3:  # operator
        cuts: list[float] = []
        for i in range(c.shape[1]):
            for j in range(c.shape[2]):
                cuts.extend(real_roots(c[:, i, j], lo, hi))
        best = 0.0
        for u, v in _segments(lo, hi, cuts):
            for row in _row_polys(c, u, v):
                best = max(best, _max_scalar(row, u, v))
        return best
    return max_abs_scalar(c, lo, hi)


def integral_of_norm(c: np.ndarray, lo: float, hi: float) -> float:
    """Exact ``integral of ||p(t)|| dt`` over ``[lo, hi]``.

    The interval is split wherever the maximising component (or row) can
    change or the winning polynomial changes sign; on each sub-segment the
    integrand is a single signed polynomial, integrated via ``defint``.
    """
    c = np.asarray(c, dtype=float)
    if hi <= lo or is_zero_poly(c):
        return 0.0
    if c.ndim == 1:
        return integral_of_abs_scalar(c, lo, hi)
    if c.ndim == 2:
        n = c.shape[1]
        cuts: list[float] = []
        for i in range(n):
            cuts.extend(real_roots(c[:, i], lo, hi))
            for j in range(i + 1, n):
                cuts.extend(real_roots(c[:, i] - c[:, j], lo, hi))
                cuts.extend(real_roots(c[:, i] + c[:, j], lo, hi))
        total = 0.0
        for u, v in _segments(lo, hi, cuts):
            mid = 0.5 * (u + v)
            vals = polyval(c, mid)
            i = int(np.argmax(np.abs(vals)))
            sign = 1.0 if vals[i] >= 0.0 else -1.0
            total += sign * float(defint(c[:, i], u, v))
        return total
    # operator: sign-resolve the entries first, then pick the winning row
    cuts = []
    for i in range(c.shape[1]):
        for j in range(c.shape[2]):
            cuts.extend(real_roots(c[:, i, j], lo, hi))
    total = 0.0
    for u, v in _segments(lo, hi, cuts):
        rows = _row_polys(c, u, v)
        inner: list[float] = []
        for i in range(len(rows)):
            for j in range(i + 1, len(rows)):
                inner.extend(real_roots(rows[i] - rows[j], u, v))
        for uu, vv in _segments(u, v, inner):
            mid = 0.5 * (uu + vv)
            i = int(np.argmax([float(polyval(r, mid)) for r in rows]))
            total += float(defint(rows[i], uu, vv))
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
