"""Random and dyadic-exact corpora shared across the test modules.

Two flavours:

* ``random_*`` builders draw IEEE doubles freely; tests against them use
  tolerances, since float addition is not associative.
* ``dyadic_*`` builders keep every grid point, coefficient and jump on a
  coarse dyadic lattice (multiples of 1/16, bounded magnitude, degree at
  most 2).  Every intermediate quantity then fits in a double exactly, so
  equality assertions can be bitwise.
"""

from __future__ import annotations

import numpy as np

import kstieltjes._poly as P
from kstieltjes import ElementarySet, Interval, PiecewiseFunction


def vshape_of(kind: str, dim: int) -> tuple[int, ...]:
    return (dim,) if kind == "vector" else (dim, dim)


def random_coeffs(rng, vshape):
    """Dense, sparse-monomial (one or two nonzero degrees) or zero
    coefficients, some entries negative zero."""
    style = rng.integers(3)
    if style == 0:
        c = rng.uniform(-1.0, 1.0, size=(int(rng.integers(1, 7)),) + vshape)
    elif style == 1:
        c = np.zeros((int(rng.integers(2, 14)),) + vshape)
        c[-1] = rng.uniform(-1.0, 1.0, size=vshape)
        if rng.random() < 0.5:
            c[int(rng.integers(0, c.shape[0] - 1))] = rng.uniform(-1.0, 1.0, size=vshape)
    else:
        c = np.zeros((int(rng.integers(1, 4)),) + vshape)
    return np.where(rng.random(c.shape) < 0.1, -0.0, c)


def _assemble(grid, coeffs, jump_at, jump_draw):
    """Default-continuous nodes plus drawn jumps at selected grid indices."""
    vshape = coeffs[0].shape[1:]
    nodes = np.empty((len(grid),) + vshape)
    for k, t in enumerate(grid):
        c = coeffs[k] if k < len(coeffs) else coeffs[-1]
        nodes[k] = P.polyval(c, t)
    for k in jump_at:
        nodes[k] = nodes[k] + jump_draw()
    return PiecewiseFunction(grid, coeffs, nodes)


def random_piecewise(rng, kind="vector", dim=1, domain=(0.0, 1.0),
                     max_pieces=5, max_degree=3, max_jumps=4) -> PiecewiseFunction:
    a, b = domain
    interior = np.sort(rng.uniform(a, b, size=int(rng.integers(0, max_pieces))))
    grid = np.unique(np.concatenate([[a], interior, [b]]))
    vshape = vshape_of(kind, dim)
    coeffs = [rng.uniform(-1.0, 1.0, size=(int(rng.integers(0, max_degree + 1)) + 1,) + vshape)
              for _ in range(len(grid) - 1)]
    n_jumps = min(int(rng.integers(0, max_jumps + 1)), len(grid))
    jump_at = rng.choice(len(grid), size=n_jumps, replace=False)
    return _assemble(grid, coeffs, jump_at,
                     lambda: rng.uniform(-1.0, 1.0, size=vshape))


def dyadic_piecewise(rng, kind="vector", dim=1, max_pieces=4,
                     max_degree=2, max_jumps=3) -> PiecewiseFunction:
    """Exact-arithmetic corpus on [0, 1]: sixteenths everywhere."""
    n_interior = int(rng.integers(0, max_pieces))
    interior = rng.choice(np.arange(1, 16), size=n_interior, replace=False) / 16.0
    grid = np.unique(np.concatenate([[0.0], np.sort(interior), [1.0]]))
    vshape = vshape_of(kind, dim)

    def draw(shape):
        return rng.integers(-24, 25, size=shape) / 16.0

    coeffs = [draw((int(rng.integers(0, max_degree + 1)) + 1,) + vshape)
              for _ in range(len(grid) - 1)]
    n_jumps = min(int(rng.integers(0, max_jumps + 1)), len(grid))
    jump_at = rng.choice(len(grid), size=n_jumps, replace=False)

    def jump_draw():
        j = rng.integers(1, 17, size=vshape) * rng.choice([-1.0, 1.0], size=vshape)
        return j / 16.0

    return _assemble(grid, coeffs, jump_at, jump_draw)


def _break_from_jumps(grid, jm, jp) -> PiecewiseFunction:
    vshape = jm.shape[1:]
    m = len(grid) - 1
    nodes = np.zeros((m + 1,) + vshape)
    pieces = np.zeros((m,) + vshape)
    running = np.zeros(vshape)
    for k in range(m + 1):
        running = running + jm[k]
        nodes[k] = running
        if k < m:
            running = running + jp[k]
            pieces[k] = running
    return PiecewiseFunction(grid, [pieces[j][np.newaxis] for j in range(m)], nodes)


def random_break_function(rng, kind="vector", dim=1, domain=(0.0, 1.0),
                          n_jumps=4) -> PiecewiseFunction:
    a, b = domain
    points = np.sort(rng.uniform(a, b, size=n_jumps))
    grid = np.unique(np.concatenate([[a], points, [b]]))
    vshape = vshape_of(kind, dim)
    jm = np.zeros((len(grid),) + vshape)
    jp = np.zeros((len(grid),) + vshape)
    for k in range(len(grid)):
        if grid[k] in points:
            if grid[k] != a:
                jm[k] = rng.uniform(-1.0, 1.0, size=vshape)
            if grid[k] != b:
                jp[k] = rng.uniform(-1.0, 1.0, size=vshape)
    return _break_from_jumps(grid, jm, jp)


def dyadic_break_function(rng, kind="vector", dim=1, n_jumps=3) -> PiecewiseFunction:
    points = np.sort(rng.choice(np.arange(1, 16), size=n_jumps, replace=False)) / 16.0
    grid = np.unique(np.concatenate([[0.0], points, [1.0]]))
    vshape = vshape_of(kind, dim)
    jm = np.zeros((len(grid),) + vshape)
    jp = np.zeros((len(grid),) + vshape)

    def draw():
        return rng.integers(1, 17, size=vshape) * rng.choice([-1.0, 1.0], size=vshape) / 16.0

    for k in range(len(grid)):
        if grid[k] in points:
            jm[k] = draw()
            jp[k] = draw()
    return _break_from_jumps(grid, jm, jp)


def _match_constant(c, t, target, max_steps=64):
    """Adjust the constant coefficient so polyval(c, t) equals ``target``
    bitwise, nudging by ulps; None when float granularity defeats it."""
    c = np.array(c)
    c[0] = c[0] + (target - P.polyval(c, t))
    for _ in range(max_steps):
        diff = P.polyval(c, t) - target
        if not np.any(diff):
            return c
        stepped = np.where(diff > 0, np.nextafter(c[0], -np.inf),
                           np.where(diff < 0, np.nextafter(c[0], np.inf), c[0]))
        if np.array_equal(stepped, c[0]):
            return None
        c[0] = stepped
    return None


def random_continuous(rng, kind="vector", dim=1, domain=(0.0, 1.0),
                      max_pieces=4, max_degree=3) -> PiecewiseFunction:
    """Random function that is continuous with *bitwise* matching one-sided
    limits at every grid point (so ``jumps()`` is empty exactly)."""
    a, b = domain
    interior = np.sort(rng.uniform(a, b, size=int(rng.integers(0, max_pieces))))
    grid = np.unique(np.concatenate([[a], interior, [b]]))
    vshape = vshape_of(kind, dim)
    coeffs = []
    for j in range(len(grid) - 1):
        for _ in range(32):
            c = rng.uniform(-1.0, 1.0, size=(int(rng.integers(0, max_degree + 1)) + 1,) + vshape)
            if j == 0:
                break
            c = _match_constant(c, grid[j], P.polyval(coeffs[j - 1], grid[j]))
            if c is not None:
                break
        else:
            raise RuntimeError("could not build a bitwise-continuous junction")
        coeffs.append(c)
    nodes = np.empty((len(grid),) + vshape)
    for k in range(len(grid)):
        c = coeffs[k] if k < len(coeffs) else coeffs[-1]
        nodes[k] = P.polyval(c, grid[k])
    return PiecewiseFunction(grid, coeffs, nodes)


def random_elementary(rng, a=0.0, b=1.0, max_parts=3) -> ElementarySet:
    """Random elementary subset of [a, b] with mixed endpoint openness and
    occasional degenerate parts."""
    n_parts = int(rng.integers(1, max_parts + 1))
    points = np.sort(rng.uniform(a, b, size=2 * n_parts))
    parts = []
    for i in range(n_parts):
        lo, hi = float(points[2 * i]), float(points[2 * i + 1])
        if rng.random() < 0.1:
            parts.append(Interval.at(lo))
        else:
            parts.append(Interval(lo, hi,
                                  bool(rng.random() < 0.5),
                                  bool(rng.random() < 0.5)))
    return ElementarySet.of(*parts)


def random_region(rng, points, parts) -> ElementarySet:
    """Up to ``parts`` parts cut at sorted draws from ``points``: neighbours
    abut, often at two open ends, and some parts are dropped or shrunk to a
    point (the minimal decomposition merges what touches)."""
    cuts = np.unique(rng.choice(points, 4 * parts + 4)).tolist()
    out = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        r = rng.random()
        if r < 0.25:
            continue
        if r < 0.4:
            out.append(Interval.at(lo if rng.random() < 0.5 else hi))
        else:
            out.append(Interval(lo, hi, bool(rng.random() < 0.3), bool(rng.random() < 0.3)))
    return ElementarySet(ElementarySet.of(*out).parts[:parts])
