"""Integration by parts, an oracle-free check of both engine orientations.

For an operator ``F`` and a vector ``g`` on ``[a, b]``, with the library's
one-sided jumps (``jump_minus = f(t) - f(t-)``, ``jump_plus = f(t+) - f(t)``,
both zero beyond the ends):

    int F d[g] + int d[F] g
        = F(b) g(b) - F(a) g(a) + sum_t (D-F(t) D-g(t) - D+F(t) D+g(t)),

the sum running over the union of both grids.  The right side uses only
node values and the jump tables, so the identity ties the engine's shared
kernel to quantities computed elsewhere, at any number of pieces.

Over an interval ``I`` with ends ``c <= d`` the same identity reads

    int_I F d[g] + int_I d[F] g
        = F(d*) g(d*) - F(c*) g(c*) + sum_{t in I} (D-F D-g - D+F D+g)(t),

with ``d* = d+`` if ``d`` is in ``I`` and ``d-`` otherwise, ``c* = c-``
if ``c`` is in ``I`` and ``c+`` otherwise (``f(a-) = f(a)`` and
``f(b+) = f(b)``).  Over an elementary set it holds summed over the
parts, and the kernel takes all parts in one call.

The tolerance is an a priori rounding bound fixed before any residual was
measured.  With ``u`` the unit roundoff of float64 and
``gamma(k) = k u / (1 - k u)``, each side is a sum of ``N = n + J + 2``
terms (``n`` merged pieces, ``J`` jump points, two end terms) and each term
is formed with at most ``k = 4 K + 8`` roundings, ``K`` the longest
product polynomial.  With ``R = max(1, |a|, |b|)`` and
``A_f = max(max node norm, max over pieces of sum_j (j + 1) ||c_j|| R**j)``,
every term is at most ``T = 4 K R A_F A_g`` in norm, so each side is off
by at most ``gamma(k + N) N T`` and the residual by twice that.  Over
``P`` parts each part adds at most two merged pieces, three jump terms,
two end terms on the right side, and its sum, so ``N`` grows by ``8 P``.
"""

import numpy as np
import pytest

import corpus
from kstieltjes import (ElementarySet, Interval, PiecewiseFunction, break_truncate,
                        jordan_decompose, ks_Fdg, ks_dFg, verify_break_limit)
from kstieltjes.integrate import _engine
from kstieltjes.norms import norm_of, row_norms

U = np.finfo(float).eps / 2


def _gamma(k):
    return k * U / (1.0 - k * U)


def _size(f, r):
    """``A_f`` of the module docstring."""
    block = f._block
    norms = row_norms(block.reshape((-1,) + f.vshape)).reshape(block.shape[:2])
    weights = np.arange(1, block.shape[1] + 1) * r ** np.arange(block.shape[1])
    return max(float(np.max(norms @ weights)), float(np.max(row_norms(f.nodes))))


def _tolerance(F, g, parts=0):
    a, b = F.a, F.b
    r = max(1.0, abs(a), abs(b))
    points = np.union1d(F.grid, g.grid)
    k = 4 * (F._block.shape[1] + g._block.shape[1]) + 8
    terms = (points.size - 1) + points.size + 2 + 8 * parts
    return 2 * _gamma(k + terms) * terms * 4 * k * r * _size(F, r) * _size(g, r)


def _by_parts_rhs(F, g):
    """The end terms and the jump sum, from both functions' jump tables on
    the union of their grids."""
    Fj, gj = F.refine(g.grid)._jump_table(), g.refine(F.grid)._jump_table()
    jumps = (np.einsum("kij,kj->i", Fj.minus, gj.minus)
             - np.einsum("kij,kj->i", Fj.plus, gj.plus))
    return F.nodes[-1] @ g.nodes[-1] - F.nodes[0] @ g.nodes[0] + jumps


def _on_grid(rng, f):
    """A vector of ``f``'s dimension on ``f``'s grid that jumps at every
    grid point, so both functions jump together."""
    vshape = (f.dim,)
    coeffs = [rng.uniform(-1.0, 1.0, (int(rng.integers(1, 5)),) + vshape) for _ in f.grid[1:]]
    return PiecewiseFunction(f.grid, coeffs, rng.uniform(-1.0, 1.0, f.grid.shape + vshape))


def _pairs(rng, m):
    """Corpus pairs with up to ``m`` pieces each, dims 1-3: jumps in both,
    a continuous integrator, a break-function integrator, and integrands
    jumping at every point of the integrator's grid."""
    for dim in (1, 2, 3):
        for domain in ((0.0, 1.0), (-3.5, -1.25)):
            g = corpus.random_piecewise(rng, "vector", dim, domain, max_pieces=m,
                                        max_jumps=m // 3 + 1)
            F = corpus.random_piecewise(rng, "operator", dim, domain, max_pieces=m,
                                        max_jumps=m // 3 + 1)
            fb = corpus.random_break_function(rng, "operator", dim, domain, n_jumps=m // 2 + 1)
            yield F, g
            yield F, _on_grid(rng, F)
            # bitwise-continuous junctions are slow to draw and scarce far from 0
            yield corpus.random_continuous(rng, "operator", dim, domain,
                                           max_pieces=min(m, 8)), g
            yield fb, g
            yield fb, _on_grid(rng, fb)


@pytest.mark.parametrize("m", [5, 10, 30, 100, 300, 1000])
def test_integration_by_parts(rng, m):
    for F, g in _pairs(rng, m):
        lhs = ks_Fdg(F, g).value + ks_dFg(F, g).value
        residual = norm_of(lhs - _by_parts_rhs(F, g))
        assert residual <= _tolerance(F, g), (m, residual, _tolerance(F, g))


def test_identity_has_teeth(rng):
    """A wrong sign in the jump sum is caught far above the tolerance."""
    F = corpus.random_break_function(rng, "operator", 2, n_jumps=6)
    g = _on_grid(rng, F)
    lhs = ks_Fdg(F, g).value + ks_dFg(F, g).value
    flipped = 2 * (F.nodes[-1] @ g.nodes[-1] - F.nodes[0] @ g.nodes[0]) - _by_parts_rhs(F, g)
    assert norm_of(lhs - flipped) > 1e6 * _tolerance(F, g)


def _side(f, t, right):
    """``f(t+)`` or ``f(t-)``, the end value beyond the domain."""
    if right:
        return f(t) if t == f.b else f.limit_right(t)
    return f(t) if t == f.a else f.limit_left(t)


def _by_parts_rhs_over(F, g, region, flip=False):
    """The right side over every part of ``region``; ``flip`` takes each
    upper end from the wrong side."""
    total = np.zeros(g.vshape)
    for part in region.parts:
        upper, lower = part.hi_closed != flip, not part.lo_closed
        total = total + (_side(F, part.hi, upper) @ _side(g, part.hi, upper)
                         - _side(F, part.lo, lower) @ _side(g, part.lo, lower))
    Fr, gr = F.refine(g.grid), g.refine(F.grid)
    Fj, gj = Fr._jump_table(), gr._jump_table()
    inside = region.contains_many(Fr.grid)
    return total + (np.einsum("kij,kj->i", Fj.minus[inside], gj.minus[inside])
                    - np.einsum("kij,kj->i", Fj.plus[inside], gj.plus[inside]))


def _lhs_over(F, g, region):
    """Both orientations, each one kernel call over all parts."""
    return (_engine(F, [g], "Fdg", region.parts)[0].value
            + _engine(F, [g], "dFg", region.parts)[0].value)


@pytest.mark.parametrize("m", [5, 30, 100])
def test_integration_by_parts_over_sets(rng, m):
    for F, g in _pairs(rng, m):
        for parts in (1, int(rng.integers(2, 20)), 60):
            points = np.concatenate([F.grid, g.grid, rng.uniform(F.a, F.b, 4 * parts), [F.a, F.b]])
            region = corpus.random_region(rng, points, parts)
            residual = norm_of(_lhs_over(F, g, region) - _by_parts_rhs_over(F, g, region))
            tol = _tolerance(F, g, len(region))
            assert residual <= tol, (m, len(region), residual, tol)


def test_identity_over_sets_has_teeth(rng):
    """The upper ends taken from the wrong side are caught far above the
    tolerance when both functions jump there."""
    F = corpus.random_break_function(rng, "operator", 2, n_jumps=8)
    g = _on_grid(rng, F)
    ends = F.grid[1:-1]
    region = ElementarySet.of(Interval(float(ends[0]), float(ends[2]), True, True),
                              Interval(float(ends[3]), float(ends[5]), False, False))
    lhs = _lhs_over(F, g, region)
    assert norm_of(lhs - _by_parts_rhs_over(F, g, region)) <= _tolerance(F, g, 2)
    flipped = _by_parts_rhs_over(F, g, region, flip=True)
    assert norm_of(lhs - flipped) > 1e6 * _tolerance(F, g, 2)


# -- the Jordan split and the break-limit lemma at scale ----------------------
#
# ``F = F_c + F_b`` makes ``int d[F] g`` linear in the split.  Each of the
# three engine values is off by at most half of ``_tolerance`` for its own
# integrator.  ``F_c``'s stored values are ``F``'s minus ``F_b``'s, one
# rounding each, which moves ``int d[F_c] g`` by at most ``u N T``, below
# that half again; so the residual is at most the sum of the three
# ``_tolerance``s.  ``verify_break_limit`` adds the same jump terms as the
# engine's ``int d[F_b] g``, each once, so the two agree within
# ``_tolerance(F_b, g)``.  Both bounds were written down before measuring.


@pytest.mark.parametrize("m", [5, 50, 1000])
def test_jordan_split_is_linear(rng, m):
    for F, g in _pairs(rng, m):
        Fc, Fb = jordan_decompose(F)
        residual = norm_of(ks_dFg(F, g).value - ks_dFg(Fc, g).value - ks_dFg(Fb, g).value)
        assert residual <= _tolerance(F, g) + _tolerance(Fc, g) + _tolerance(Fb, g)
        engine, direct = verify_break_limit(F, g)
        assert norm_of(engine - direct) <= _tolerance(Fb, g)


def test_jordan_split_check_has_teeth(rng):
    """Dropping one jump of ``F_b`` breaks the identity by far more than
    the bound."""
    F, g = next(_pairs(rng, 50))
    Fc, Fb = jordan_decompose(F)
    kept = [rec.t for rec in Fb.jumps()][1:]
    residual = norm_of(ks_dFg(F, g).value - ks_dFg(Fc, g).value
                       - ks_dFg(break_truncate(Fb, kept), g).value)
    assert residual > 1e6 * (_tolerance(F, g) + _tolerance(Fc, g) + _tolerance(Fb, g))
