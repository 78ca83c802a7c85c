"""The ``_poly`` norm routines: one root-split kernel against the per-shape
reference loops, exact dyadic cases, sampling bounds and root polishing."""

import numpy as np
import pytest

import corpus
from kstieltjes import _poly
from kstieltjes.norms import norm_of

DOMAINS = ((0.0, 1.0), (-3.5, -1.25), (1e3, 1e3 + 2.0))


# -- reference loops: one branch per value shape ----------------------------

def _segments(lo, hi, cuts):
    pts = [lo] + [x for x in sorted(set(cuts)) if lo < x < hi] + [hi]
    for u, v in zip(pts[:-1], pts[1:]):
        if v > u:
            yield u, v


def _defint(c, lo, hi):
    """``defint`` of one polynomial, as a 1-row stack."""
    return float(_poly.defint(c[np.newaxis], np.array([lo]), np.array([hi]))[0])


def _max_scalar(c, lo, hi):
    cands = [lo, hi] + _poly.real_roots(_poly.polyder(c), lo, hi)
    return max(float(_poly.polyval(c, x)) for x in cands)


def _abs_integral(c, lo, hi):
    total = 0.0
    for u, v in _segments(lo, hi, _poly.real_roots(c, lo, hi)):
        sign = 1.0 if float(_poly.polyval(c, 0.5 * (u + v))) >= 0.0 else -1.0
        total += sign * _defint(c, u, v)
    return total


def _row_polys(c, u, v):
    signs = np.where(_poly.polyval(c, 0.5 * (u + v)) >= 0.0, 1.0, -1.0)
    return [np.sum(c * signs[np.newaxis, :, :], axis=2)[:, i]
            for i in range(c.shape[1])]


def _entry_cuts(c, lo, hi):
    return [x for i in range(c.shape[1]) for j in range(c.shape[2])
            for x in _poly.real_roots(c[:, i, j], lo, hi)]


def _sup_reference(c, lo, hi):
    c = np.asarray(c, dtype=float)
    if lo == hi:
        return float(norm_of(_poly.polyval(c, lo)))
    if c.ndim == 2:
        return max(_poly.max_abs_scalar(c[:, i], lo, hi) for i in range(c.shape[1]))
    if c.ndim == 3:
        best = 0.0
        for u, v in _segments(lo, hi, _entry_cuts(c, lo, hi)):
            for row in _row_polys(c, u, v):
                best = max(best, _max_scalar(row, u, v))
        return best
    return _poly.max_abs_scalar(c, lo, hi)


def _integral_reference(c, lo, hi):
    c = np.asarray(c, dtype=float)
    if hi <= lo or not np.any(c):
        return 0.0
    if c.ndim == 1:
        return _abs_integral(c, lo, hi)
    if c.ndim == 2:
        n = c.shape[1]
        cuts = []
        for i in range(n):
            cuts.extend(_poly.real_roots(c[:, i], lo, hi))
            for j in range(i + 1, n):
                cuts.extend(_poly.real_roots(c[:, i] - c[:, j], lo, hi))
                cuts.extend(_poly.real_roots(c[:, i] + c[:, j], lo, hi))
        total = 0.0
        for u, v in _segments(lo, hi, cuts):
            vals = _poly.polyval(c, 0.5 * (u + v))
            i = int(np.argmax(np.abs(vals)))
            sign = 1.0 if vals[i] >= 0.0 else -1.0
            total += sign * _defint(c[:, i], u, v)
        return total
    total = 0.0
    for u, v in _segments(lo, hi, _entry_cuts(c, lo, hi)):
        rows = _row_polys(c, u, v)
        inner = [x for i in range(len(rows)) for j in range(i + 1, len(rows))
                 for x in _poly.real_roots(rows[i] - rows[j], u, v)]
        for uu, vv in _segments(u, v, inner):
            mid = 0.5 * (uu + vv)
            i = int(np.argmax([float(_poly.polyval(r, mid)) for r in rows]))
            total += _defint(rows[i], uu, vv)
    return total


def _cases(rng):
    """Random coefficients of every shape, dims 1-3, on each domain, over
    the whole domain and over a random subinterval."""
    for vshape in [()] + [shape for dim in (1, 2, 3)
                          for shape in ((dim,), (dim, dim))]:
        for a, b in DOMAINS:
            for _ in range(12):
                c = corpus.random_coeffs(rng, vshape)
                lo, hi = sorted(rng.uniform(a, b, 2))
                yield c, a, b
                yield c, float(lo), float(hi)


def _bits(x):
    return np.float64(x).tobytes()


class TestNormKernelReference:
    """``integral_of_norm`` and ``sup_norm_on`` equal the per-shape
    reference loops byte for byte."""

    def test_integral_of_norm(self, rng):
        for c, lo, hi in _cases(rng):
            assert _bits(_poly.integral_of_norm(c, lo, hi)) == _bits(_integral_reference(c, lo, hi))
            if c.ndim == 1:
                assert _bits(_poly.integral_of_abs_scalar(c, lo, hi)) == _bits(_abs_integral(c, lo, hi))

    def test_sup_norm_on(self, rng):
        for c, lo, hi in _cases(rng):
            assert _bits(_poly.sup_norm_on(c, lo, hi)) == _bits(_sup_reference(c, lo, hi))
        c = corpus.random_coeffs(rng, (2, 2))
        assert _poly.sup_norm_on(c, 0.5, 0.5) == norm_of(_poly.polyval(c, 0.5))

    def test_sampled_bounds(self, rng):
        """The supremum dominates the norm at sampled points and bounds the
        integral; the slack is rounding relative to the coefficients'
        size at the domain's scale."""
        for c, lo, hi in _cases(rng):
            sup = _poly.sup_norm_on(c, lo, hi)
            scale = np.sum(np.abs(c).reshape(c.shape[0], -1), axis=1) @ (
                max(abs(lo), abs(hi), 1.0) ** np.arange(c.shape[0]))
            slack = 1e-12 * scale
            ts = np.linspace(lo, hi, 33)
            assert all(norm_of(_poly.polyval(c, t)) <= sup + slack for t in ts)
            integral = _poly.integral_of_norm(c, lo, hi)
            assert 0.0 <= integral <= (hi - lo) * (sup + slack)


class TestExactNorms:
    """Dyadic cases whose roots, crossings and integrals are exact."""

    def test_scalar(self):
        c = np.array([-0.25, 1.0])
        assert _poly.integral_of_norm(c, 0.0, 1.0) == 5 / 16
        assert _poly.integral_of_abs_scalar(c, 0.0, 1.0) == 5 / 16
        assert _poly.sup_norm_on(c, 0.0, 1.0) == 0.75

    def test_vector(self):
        c = np.array([[0.0, 1.0], [1.0, -1.0]])  # (t, 1 - t)
        assert _poly.integral_of_norm(c, 0.0, 1.0) == 0.75
        assert _poly.sup_norm_on(c, 0.0, 1.0) == 1.0
        assert _poly.sup_norm_on(c, 0.25, 0.75) == 0.75

    def test_operator(self):
        # rows (t, -t) and (1/2, 0): row sums 2t and 1/2 cross at 1/4
        c = np.array([[[0.0, 0.0], [0.5, 0.0]], [[1.0, -1.0], [0.0, 0.0]]])
        assert _poly.integral_of_norm(c, 0.0, 1.0) == 17 / 16
        assert _poly.sup_norm_on(c, 0.0, 1.0) == 2.0
        assert _poly.sup_norm_on(c, 0.0, 0.25) == 0.5

    @pytest.mark.parametrize("vshape", [(), (2,), (2, 2)])
    def test_zero(self, vshape):
        c = np.zeros((3,) + vshape)
        assert _poly.integral_of_norm(c, -1.0, 1.0) == 0.0
        assert _poly.sup_norm_on(c, -1.0, 1.0) == 0.0


def _near(found, roots, tol):
    """Every reported root lies within ``tol`` of a true root, and every
    true root has one reported near it.  A rounded multiple root may come
    back as a close pair."""
    return (all(min(abs(x - r) for r in roots) <= tol for x in found)
            and all(min((abs(x - r) for x in found), default=np.inf) <= tol
                    for r in roots))


class TestRealRoots:
    """Roots are polished with Newton steps; at a multiple root p and p'
    are rounding noise, and a step off the root must be undone."""

    @pytest.mark.parametrize("root, lo, hi", [(1.0, 0.0, 2.0), (0.5, 0.0, 1.0),
                                              (1 / 3, 0.0, 1.0),
                                              (-2.25, -3.5, -1.25),
                                              (1e3 + 1.0, 1e3, 1e3 + 2.0)])
    def test_double_root(self, root, lo, hi):
        c = np.array([root * root, -2.0 * root, 1.0])  # (t - root)**2
        assert _near(_poly.real_roots(c, lo, hi), [root], 1e-7 * (1.0 + abs(root)))

    def test_exact_double_root(self):
        assert _poly.real_roots([1.0, -2.0, 1.0], 0.0, 2.0) == [0.9999999999999999]
        assert _poly.real_roots([0.25, -1.0, 1.0], 0.0, 1.0) == [0.49999999999999994]

    @pytest.mark.parametrize("roots, lo, hi", [((0.25, 0.5, 0.75), 0.0, 1.0),
                                               ((-3.0, -2.0), -3.5, -1.25),
                                               ((1e3 + 0.5, 1e3 + 1.5), 1e3, 1e3 + 2.0)])
    def test_simple_roots(self, roots, lo, hi):
        c = np.polynomial.polynomial.polyfromroots(roots)
        found = _poly.real_roots(c, lo, hi)
        assert len(found) == len(roots)
        assert _near(found, roots, 1e-12 * (1.0 + max(map(abs, roots))))

    def test_double_and_simple_root(self):
        c = np.polynomial.polynomial.polyfromroots((0.5, 0.5, 0.125))
        found = _poly.real_roots(c, 0.0, 1.0)
        assert found[0] == 0.125
        assert _near(found, [0.125, 0.5], 1e-7)


def _kernel_sup(c, lo, hi):
    """``sup_norm_on`` through the root-split kernel, as every non-constant
    polynomial went before single entries took their own path."""
    us, vs, qs, _ = _poly._norm_pieces(np.asarray(c, dtype=float)[np.newaxis],
                                       np.array([lo]), np.array([hi]))
    return max((_poly.max_abs_scalar(q, u, v) for u, v, q in zip(us, vs, qs)), default=0.0)


class TestSupNormSingleEntry:
    """A scalar, a dim-1 vector or a 1-by-1 operator is its own norm piece
    up to sign: ``max_abs_scalar`` of the entry equals the kernel's answer
    byte for byte."""

    def test_matches_the_kernel(self, rng):
        for i in range(2000):
            vshape = [(), (1,), (1, 1)][i % 3]
            a, b = (DOMAINS + ((-1.0, 1.0),))[(i // 3) % 4]
            c = corpus.random_coeffs(rng, vshape)
            if len(c) == 1:
                c = np.concatenate([c, rng.uniform(-1.0, 1.0, size=(1,) + vshape)])
            lo, hi = (a, b) if i % 2 else sorted(rng.uniform(a, b, 2))
            assert _bits(_poly.sup_norm_on(c, lo, hi)) == _bits(_kernel_sup(c, lo, hi))

    def test_skips_the_kernel(self, monkeypatch):
        def kernel(*args):
            raise AssertionError("single entries do not need the kernel")

        monkeypatch.setattr(_poly, "_norm_pieces", kernel)
        for c in ([0.5, -1.0, 1.0], [[0.5], [-1.0], [1.0]], [[[0.5]], [[-1.0]], [[1.0]]]):
            assert _poly.sup_norm_on(np.array(c), 0.0, 1.0) == 0.5


def _stack_row(rng, vshape, width):
    """One row of a mixed stack: a constant, a dense linear, a sparse
    monomial or binomial, a dense row of higher degree or a zero row, with
    entries -0.0 now and then."""
    c = np.zeros((width,) + vshape)
    kind = int(rng.integers(5))
    if kind == 0:
        c[0] = rng.uniform(-2.0, 2.0, vshape)
    elif kind == 1 and width > 1:
        c[:2] = rng.uniform(-2.0, 2.0, (2,) + vshape)
    elif kind == 2:
        for j in rng.choice(width, size=min(width, int(rng.integers(1, 3))), replace=False):
            c[j] = rng.uniform(-2.0, 2.0, vshape)
    elif kind == 3:
        c[:int(rng.integers(1, width + 1))] = rng.uniform(-2.0, 2.0, (1,) + vshape)
    if rng.random() < 0.3:
        c = np.where(rng.random(c.shape) < 0.3, -0.0, c)
    return c


class TestPolyvalStack:
    """A stack of mixed degree patterns evaluates its Horner-safe rows as
    one group; every row still gets the bits of a ``polyval`` of its own,
    -0.0 coefficients and negative ``t`` included."""

    def test_matches_one_row_at_a_time(self, rng):
        for vshape in ((), (1,), (3,), (2, 2)):
            for _ in range(150):
                n, width = int(rng.integers(1, 12)), int(rng.integers(1, 8))
                block = np.stack([_stack_row(rng, vshape, width) for _ in range(n)])
                pattern = _poly.degree_patterns(block)
                ts = rng.uniform(-3.0, 0.5, size=(n, 4))
                ts[:, 0] = -0.0
                stacked = _poly.polyval(block, ts, pattern)
                for i in range(n):
                    row = _poly.polyval(block[i], ts[i], pattern[i])
                    assert stacked[i].tobytes() == row.tobytes()


class TestHornerTwoTerms:
    """``horner``'s one- and two-term path writes the top term first and
    takes no ``t**0`` or ``t**1``; it still has the bits of the sum
    ``0.0 + c[low] t**low (+ c[top] t**top)`` with every power taken, byte
    for byte, -0.0 entries, signed zeros and underflow included."""

    def test_matches_the_sum_of_powers(self, rng):
        k = 7
        tiny = 1e-200  # its powers, and its products with tiny entries, underflow
        ts = np.array([-0.0, 0.0, -1.75, -3e-5, 2.5, tiny, -tiny, 1e-160])
        for count, low, top in ((1, 0, 0), (1, 1, 1), (1, k, k), (2, 0, 1), (2, 0, k),
                                (2, 1, k)):
            for vshape in ((), (3,), (2, 2)):
                for scale in (1.0, 1e-300):
                    for _ in range(10):
                        c = np.zeros((top + 1,) + vshape)
                        c[[low, top]] = scale * rng.uniform(-2.0, 2.0, (2,) + vshape)
                        c = np.where(rng.random(c.shape) < 0.3, -0.0, c)
                        cols = c[..., np.newaxis]
                        ref = 0.0 + cols[low] * ts**low
                        if count == 2:
                            ref = ref + cols[top] * ts**top
                        out = np.empty(vshape + ts.shape)
                        _poly.horner(cols, ts, [count, low, top], out)
                        assert out.tobytes() == ref.tobytes()


class TestStackedEigenvalues:
    """``_roots`` takes one ``eigvals`` of a stack of companion matrices
    per degree where the scalar finder took ``polyroots`` of each row; a
    numpy whose ``polyroots`` computes otherwise must fail here first."""

    def test_matches_polyroots(self, rng):
        for d in range(2, 9):
            rows = rng.uniform(-2.0, 2.0, size=(400, d + 1))
            rows[::5, 0] = 0.0  # zero low coefficients
            rows[1::5, :2] = 0.0
            rows[2::5] = np.polynomial.polynomial.polyfromroots([0.375] * 2 + [-0.5] * (d - 2))
            unit = rows / np.abs(rows).max(axis=1, keepdims=True)
            companion = np.zeros((len(rows), d, d))
            companion[:, np.arange(1, d), np.arange(d - 1)] = 1.0
            companion[:, :, -1] = 0.0 - unit[:, :-1] / unit[:, -1:]
            stacked = np.sort(np.linalg.eigvals(companion), axis=-1)
            for row, got in zip(unit, stacked):
                want = np.polynomial.polynomial.polyroots(row).astype(complex)
                assert got.astype(complex).tobytes() == want.tobytes()

    def test_stack_matches_one_row_at_a_time(self, rng):
        """Every row of a mixed stack gets the roots ``real_roots`` finds
        for it alone, -0.0 entries, monomials and linears included."""
        c = np.stack([_stack_row(rng, (), 9) for _ in range(300)])
        lo = rng.uniform(-3.0, 0.0, len(c))
        hi = lo + rng.uniform(0.5, 4.0, len(c))
        x, row = _poly._roots(c, lo, hi)
        for i in range(len(c)):
            assert x[row == i].tolist() == _poly.real_roots(c[i], lo[i], hi[i])
