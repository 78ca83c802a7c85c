"""The benchmark's three workloads: crossval, bulk and churn.

Each workload is a closed loop driven by one caller.  ``setup`` builds or
writes the workload's inputs (timed as set-up); ``cycle(i)`` returns the
i-th batch of ops.  A run executes whole cycles, so every run of a
workload executes the same mix of op kinds and sizes; the seed draws the
values.  An op's ``run`` is the timed call into the library and returns a
small output; its ``check`` runs after the cycle, outside the timed
region, and returns ``None`` or the reason the output missed its reference.
An op's ``kind`` is its operation and size without the drawn values: ops of
one kind do the same work on different inputs.

The timed cycles hold no op that is known to fail.  ``defect_probes()``
returns the ops that exercise a defect documented in the roadmap, each
tagged with its ``known_defect``; a run executes them once, untimed, after
the timed cycles, checks them against the true value and reports whether
each defect still shows.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import shutil
from fractions import Fraction
from pathlib import Path

import numpy as np

import exact

LATTICE = 4096          # grid points and query endpoints are multiples of 1/LATTICE
FAR_DOMAIN = "far-domain cancellation: global monomial coefficients on [a, a+1], a >= 1e3"
NON_FINITE = "non-finite spec accepted: NaN coefficients load and the CLI exits 0, not 2"


class Op:
    __slots__ = ("name", "run", "check", "kind", "known_defect")

    def __init__(self, name, run, check, kind=None, known_defect=None):
        self.name, self.run, self.check = name, run, check
        self.kind = name if kind is None else kind
        self.known_defect = known_defect


def vshape(kind: str, dim: int) -> tuple[int, ...]:
    return (dim,) if kind == "vector" else (dim, dim)


def polyval(c: np.ndarray, t) -> np.ndarray:
    """Horner evaluation, shape ``c.shape[1:] + t.shape``.  Exact on the
    dyadic inputs below, so its results agree bitwise with any other
    evaluation order."""
    t = np.asarray(t, dtype=float)
    out = np.zeros(c.shape[1:] + t.shape)
    for j in range(c.shape[0] - 1, -1, -1):
        out = out * t + c[j].reshape(c.shape[1:] + (1,) * t.ndim)
    return out


def evaluate(grid, coeffs, nodes, ts) -> np.ndarray:
    """Value at each of ``ts`` (node value on the grid), shaped like
    ``PiecewiseFunction.eval_many``: ``vshape + (len(ts),)``."""
    grid, ts = np.asarray(grid), np.asarray(ts, dtype=float)
    idx = np.searchsorted(grid, ts)
    on_grid = grid[np.minimum(idx, grid.size - 1)] == ts
    c = np.stack(coeffs)[np.maximum(idx - 1, 0)]          # (n, K, *vshape)
    t = ts.reshape((-1,) + (1,) * (c.ndim - 2))
    out = c[:, -1]
    for j in range(c.shape[1] - 2, -1, -1):
        out = out * t + c[:, j]
    out[on_grid] = np.asarray(nodes)[idx[on_grid]]
    return np.moveaxis(out, 0, -1)


def lattice_points(rng, n: int, lo: int = 0, hi: int = LATTICE, a: float = 0.0) -> np.ndarray:
    """``n`` distinct sorted points ``a + k / LATTICE`` with ``lo <= k <= hi``."""
    return a + np.sort(rng.choice(np.arange(lo, hi + 1), size=n, replace=False)) / LATTICE


def dyadic_arrays(rng, kind: str, dim: int, m: int, jump_share: float = 0.1,
                  max_degree: int = 3):
    """Grid, coefficients and nodes of a dyadic piecewise polynomial on
    [0, 1]: degree <= ``max_degree``, continuous except at about
    ``jump_share`` of the nodes, every value exact in binary64."""
    shape = vshape(kind, dim)
    grid = np.concatenate([[0.0], lattice_points(rng, m - 1, 1, LATTICE - 1), [1.0]])
    coeffs = rng.integers(-24, 25, size=(m, max_degree + 1) + shape) / 16.0
    degrees = rng.integers(0, max_degree + 1, size=m)
    for k, deg in enumerate(degrees):
        coeffs[k, deg + 1:] = 0.0
    jumping = rng.random(m + 1) < jump_share

    def jumps():
        mag = rng.integers(1, 17, size=(m + 1,) + shape) / 16.0
        sign = rng.choice([-1.0, 1.0], size=(m + 1,) + shape)
        return np.where(jumping.reshape((-1,) + (1,) * len(shape)), mag * sign, 0.0)

    jm, jp = jumps(), jumps()
    # r_k: piece k without its constant term; continuity then fixes every
    # constant term through a running sum, exact on this lattice
    c = coeffs.copy()
    c[:, 0] = 0.0
    t_lo = grid[:-1].reshape((-1,) + (1,) * len(shape))
    t_hi = grid[1:].reshape((-1,) + (1,) * len(shape))
    r_lo, r_hi = np.zeros((m,) + shape), np.zeros((m,) + shape)
    for j in range(max_degree, 0, -1):
        r_lo = (r_lo + c[:, j]) * t_lo
        r_hi = (r_hi + c[:, j]) * t_hi
    steps = np.concatenate([coeffs[:1, 0] + r_lo[:1] + jm[:1], (jp[:-1] + r_hi - r_lo) + jm[1:]])
    nodes = np.cumsum(steps, axis=0)
    coeffs[:, 0] = nodes[:-1] + jp[:-1] - r_lo
    return grid, list(coeffs), nodes


def shift_arrays(grid, coeffs, nodes, a: int):
    """The same function moved to [a, a+1], written in global monomial
    coefficients (rounded once from their exact values)."""
    out = []
    for c in coeffs:
        qc = exact.q(c)
        glob = []
        for i in range(c.shape[0]):
            total = qc[i] * 0
            for j in range(i, c.shape[0]):
                binom = Fraction(int(np.prod(range(j - i + 1, j + 1))),
                                 int(np.prod(range(1, i + 1))))
                total = total + qc[j] * binom * Fraction(-a) ** (j - i)
            glob.append(np.array(total, dtype=float))
        out.append(np.stack(glob))
    return grid + a, out, nodes


def build(ks, arrays):
    grid, coeffs, nodes = arrays
    return ks.PiecewiseFunction(grid, coeffs, nodes)


def random_interval(rng, ks, a: float = 0.0):
    """Half of [a, a+1] at a random lattice position, with random openness.
    The length is fixed so that every cycle costs the same."""
    c = a + int(rng.integers(0, LATTICE // 2 + 1)) / LATTICE
    return ks.Interval(c, c + 0.5, bool(rng.random() < 0.5), bool(rng.random() < 0.5))


def random_elementary(rng, ks, parts: int):
    """``parts`` disjoint intervals with random openness, a tenth degenerate."""
    pts = lattice_points(rng, 2 * parts)
    out = []
    for i in range(parts):
        lo, hi = float(pts[2 * i]), float(pts[2 * i + 1])
        if rng.random() < 0.1:
            out.append(ks.Interval.at(lo))
        else:
            out.append(ks.Interval(lo, hi, bool(rng.random() < 0.5), bool(rng.random() < 0.5)))
    return out


def _fail(ok: bool, what: str):
    return None if ok else what


def _fmt(x) -> str:
    return np.array2string(np.asarray(x, dtype=float), precision=17, separator=",")


# -- crossval --------------------------------------------------------------


class Crossval:
    """Engine against the Riemann-Stieltjes oracle on small random pairs.

    The pairs follow acceptance criterion 1's distribution (dims 1-3, <= 5
    pieces, degree <= 3, <= 4 jumps, uniform coefficients in [-1, 1]) and
    are drawn once from criterion 1's own seed.  The oracle's cost per pair
    spans two orders of magnitude and is set by each pair's level count, so
    freshly drawn pairs would make every run's latency quantiles depend on
    the seed.  Instead the run seed draws, for every op, a symmetry of the
    distribution that leaves the oracle's work unchanged: an independent
    sign for F and for g and a permutation P of the components
    (F -> s P F P^T, g -> s' P g).  Every run then has the same cost mix on
    different inputs.  Orientation alternates by pair.
    """

    CORPUS_SEED = 20260809
    PAIRS = 50
    TRACE_CYCLES = 1

    def __init__(self, ks, seed: int):
        self.ks, self.seed = ks, seed

    @staticmethod
    def _criterion1_arrays(rng, kind, dim):
        shape = vshape(kind, dim)
        interior = np.sort(rng.uniform(0.0, 1.0, size=int(rng.integers(0, 5))))
        grid = np.unique(np.concatenate([[0.0], interior, [1.0]]))
        coeffs = [rng.uniform(-1.0, 1.0, size=(int(rng.integers(0, 4)) + 1,) + shape)
                  for _ in range(len(grid) - 1)]
        nodes = np.empty((len(grid),) + shape)
        for k, t in enumerate(grid):
            nodes[k] = polyval(coeffs[min(k, len(coeffs) - 1)], t)
        n_jumps = min(int(rng.integers(0, 5)), len(grid))
        for k in rng.choice(len(grid), size=n_jumps, replace=False):
            nodes[k] = nodes[k] + rng.uniform(-1.0, 1.0, size=shape)
        return grid, coeffs, nodes

    def setup(self):
        rng = np.random.default_rng(self.CORPUS_SEED)
        self.corpus = []
        for _ in range(self.PAIRS):
            dim = int(rng.integers(1, 4))
            F = self._criterion1_arrays(rng, "operator", dim)
            g = self._criterion1_arrays(rng, "vector", dim)
            self.corpus.append((dim, F, g))

    def cycle(self, index: int) -> list[Op]:
        rng = np.random.default_rng([self.seed, 0, index])
        ops = []
        for i in rng.permutation(self.PAIRS):
            dim, (gF, cF, nF), (gg, cg, ng) = self.corpus[i]
            perm = rng.permutation(dim)
            sF, sg = rng.choice([-1.0, 1.0], size=2)
            F = (gF, [sF * c[:, perm][:, :, perm] for c in cF], sF * nF[:, perm][:, :, perm])
            g = (gg, [sg * c[:, perm] for c in cg], sg * ng[:, perm])
            orientation = "dFg" if i % 2 == 0 else "Fdg"
            ops.append(Op(f"crossval.{orientation}[pair={i},dim={dim}]",
                          self._runner(F, g, orientation), self._check))
        return ops

    def _runner(self, F, g, orientation):
        ks = self.ks
        engine = ks.ks_dFg if orientation == "dFg" else ks.ks_Fdg

        def run():
            f_op, g_vec = build(ks, F), build(ks, g)
            return engine(f_op, g_vec).value, ks.oracle_integral(f_op, g_vec, orientation, tol=1e-8)

        return run

    @staticmethod
    def _check(out):
        engine, oracle = out
        gap = float(np.max(np.abs(engine - oracle)))
        return _fail(gap < 1e-8, f"engine {_fmt(engine)} vs oracle {_fmt(oracle)}: gap {gap:.3e}")

    def defect_probes(self) -> list[Op]:
        return []


# -- bulk ------------------------------------------------------------------


class Bulk:
    """Build once, query many: large dyadic pairs, exact references.

    One (operator F, vector g) pair for each m in {10, 100, 1000} pieces and
    dim in {1, 3}, each on its own grid.  The defect probes add a dim-1,
    100-piece pair moved to [a, a+1] with a in [1e3, 1e4], and the
    roadmap's far-domain case g = (t - 1e4)**3 against t I.
    """

    SIZES = [(10, 1), (10, 3), (100, 1), (100, 3), (1000, 1), (1000, 3)]
    SHIFTED_M = 100
    PARTS = 50
    TRACE_CYCLES = 1

    def __init__(self, ks, seed: int):
        self.ks, self.seed = ks, seed
        self._refs = {}

    def setup(self):
        ks = self.ks
        rng = np.random.default_rng([self.seed, 1])
        self.arrays, self.pairs = [], []
        for m, dim in self.SIZES:
            F = dyadic_arrays(rng, "operator", dim, m)
            g = dyadic_arrays(rng, "vector", dim, m)
            self.arrays.append((F, g))
            self.pairs.append((build(ks, F), build(ks, g)))

    def _pair_ref(self, key, arrays):
        if key not in self._refs:
            F, g = arrays
            self._refs[key] = exact.PairReference(exact.QFun(*F), exact.QFun(*g))
        return self._refs[key]

    def _var_ref(self, key, arrays):
        if key not in self._refs:
            self._refs[key] = exact.VariationReference(exact.QFun(*arrays), arrays[0], arrays[1])
        return self._refs[key]

    def cycle(self, index: int) -> list[Op]:
        ks = self.ks
        rng = np.random.default_rng([self.seed, 2, index])
        ops = []
        for p, (m, dim) in enumerate(self.SIZES):
            F, g = self.pairs[p]
            arrays = self.arrays[p]
            tag = f"m={m},dim={dim}"
            pref = lambda p=p, arrays=arrays: self._pair_ref(("pair", p), arrays)
            vref_F = lambda p=p, arrays=arrays: self._var_ref(("F", p), arrays[0])
            vref_g = lambda p=p, arrays=arrays: self._var_ref(("g", p), arrays[1])
            interval = random_interval(rng, ks)
            parts = random_elementary(rng, ks, self.PARTS)
            region = ks.ElementarySet.of(*parts)
            span = random_interval(rng, ks)
            c, d = span.lo, span.hi
            ops += [
                Op(f"bulk.ks_dFg[{tag}]", lambda F=F, g=g: ks.ks_dFg(F, g).value,
                   _integral_check(lambda pref=pref: pref().dFg(0, 1))),
                Op(f"bulk.ks_Fdg[{tag}]", lambda F=F, g=g: ks.ks_Fdg(F, g).value,
                   _integral_check(lambda pref=pref: pref().fdg_total)),
                Op(f"bulk.integral_over_interval[{tag},{interval}]",
                   lambda F=F, g=g, i=interval: ks.integral_over_interval(F, g, i),
                   _integral_check(lambda pref=pref, i=interval: _interval_ref(pref(), i)),
                   f"bulk.integral_over_interval[{tag}]"),
                Op(f"bulk.integral_over_elementary[{tag},parts={self.PARTS}]",
                   lambda F=F, g=g, r=region: ks.integral_over_elementary(F, g, r).value,
                   _integral_check(lambda pref=pref, ps=parts:
                                   sum(_interval_ref(pref(), i) for i in ps))),
                Op(f"bulk.var_elementary[F,{tag},parts={self.PARTS}]",
                   lambda F=F, r=region: ks.var_elementary(F, r),
                   _variation_check(vref_F, parts)),
                Op(f"bulk.var_compact[F,{tag},[{c},{d}]]",
                   lambda F=F, c=c, d=d: ks.var_compact(F, c, d),
                   _variation_check(vref_F, [ks.Interval.closed(c, d)]),
                   f"bulk.var_compact[F,{tag}]"),
                Op(f"bulk.var_compact[g,{tag},[{c},{d}]]",
                   lambda g=g, c=c, d=d: ks.var_compact(g, c, d),
                   _variation_check(vref_g, [ks.Interval.closed(c, d)]),
                   f"bulk.var_compact[g,{tag}]"),
                Op(f"bulk.estimate_bound[{tag},{interval}]",
                   lambda F=F, g=g, i=interval: ks.estimate_bound(F, g, i),
                   _bound_check(lambda pref=pref, i=interval: _interval_ref(pref(), i)),
                   f"bulk.estimate_bound[{tag}]"),
            ]
        return ops

    def defect_probes(self) -> list[Op]:
        ks = self.ks
        rng = np.random.default_rng([self.seed, 5])
        a = int(rng.integers(1000, 10001))
        arrays = tuple(shift_arrays(*dyadic_arrays(rng, role, 1, self.SHIFTED_M), a)
                       for role in ("operator", "vector"))
        F, g = (build(ks, x) for x in arrays)
        sref = lambda: self._pair_ref("shifted", arrays)
        interval = random_interval(rng, ks, a=a)
        tag = f"m={self.SHIFTED_M},dim=1,a={a}"
        far = 1e4
        tI = ks.scaled_identity((far, far + 1), [0.0, 1.0], dim=1)
        cube = ks.polynomial((far, far + 1), [-far**3, 3 * far**2, -3 * far, 1.0])
        return [
            Op(f"bulk.ks_dFg[{tag}]", lambda: ks.ks_dFg(F, g).value,
               _integral_check(lambda: sref().dFg(a, a + 1)), known_defect=FAR_DOMAIN),
            Op(f"bulk.ks_Fdg[{tag}]", lambda: ks.ks_Fdg(F, g).value,
               _integral_check(lambda: sref().fdg_total), known_defect=FAR_DOMAIN),
            Op(f"bulk.integral_over_interval[{tag},{interval}]",
               lambda: ks.integral_over_interval(F, g, interval),
               _integral_check(lambda: _interval_ref(sref(), interval)), known_defect=FAR_DOMAIN),
            Op("bulk.ks_dFg[g=(t-1e4)^3,F=tI]", lambda: ks.ks_dFg(tI, cube).value,
               _integral_check(lambda: np.array([Fraction(1, 4)], dtype=object)),
               known_defect=FAR_DOMAIN),
        ]


def _interval_ref(ref, interval):
    return ref.dFg(interval.lo, interval.hi, interval.lo_closed, interval.hi_closed)


def _integral_check(reference):
    def check(value):
        ref = reference()
        return _fail(exact.close(value, ref, 1e-9),
                     f"{_fmt(value)} vs exact {_fmt(np.array(ref, dtype=float))}")
    return check


def _bound_check(reference):
    def check(bound):
        ref = exact.qnorm(np.atleast_1d(reference()))
        ok = np.isfinite(bound) and Fraction(float(bound)) * (1 + Fraction(1, 10**10)) \
            + Fraction(1, 10**12) >= ref
        return _fail(ok, f"bound {bound!r} below |exact integral| {float(ref)!r}")
    return check


def _variation_check(reference, parts):
    """Jump part equal to the exact jump norms the openness keeps (the
    interval identities of acceptance criterion 3), continuous part between
    a sampled lower bound and a derivative-norm upper bound, total the sum."""
    def check(result):
        ref = reference()
        jumps = sum(ref.jumps(p.lo, p.hi, p.lo_closed, p.hi_closed) for p in parts)
        bounds = [ref.continuous_bounds(p.lo, p.hi) for p in parts]
        low, up = sum(b[0] for b in bounds), sum(b[1] for b in bounds)
        cont, jump = result.continuous_contribution, result.jump_contribution
        if not exact.close(jump, [jumps], 1e-10):
            return f"jump part {jump!r} vs exact {float(jumps)!r}"
        if not low - 1e-10 * max(1.0, low) <= cont <= up + 1e-10 * max(1.0, up):
            return f"continuous part {cont!r} outside [{low!r}, {up!r}]"
        total = cont + jump
        return _fail(abs(result.total - total) <= 1e-12 * max(1.0, abs(total)),
                     f"total {result.total!r} is not {total!r}")
    return check


# -- churn -----------------------------------------------------------------


class Churn:
    """Build many, query once: fresh functions from arrays through the
    public constructors, one structural operation, one cheap query; plus
    bounded-convergence runs of the three built-in families, and one
    in-process ``kstieltjes.cli.main`` call per cycle on small spec files.

    The CLI calls rotate through the five subcommands and two error paths
    with documented exit codes (bad set expression: 2, domain mismatch: 3);
    each report is checked against direct library calls.  The third error
    path, a non-finite spec that must exit 2, is a defect probe.  They cover the handler and the spec IO.  What a shell user pays
    on top, interpreter start and ``import kstieltjes``, is the start of
    every workload's ``setup_s``.
    """

    # m = 100 twice: the heaviest ops (lincomb, jordan_decompose at m = 100,
    # truncation runs) then make up a fifth of each cycle, so op_p90_ms falls
    # inside that block instead of at its lower edge, where it jumps with
    # the share of each op kind
    SIZES = [10, 32, 100, 100]
    SAMPLES = 64
    SPEC_PAIRS = 4
    CLI_KINDS = 8
    ORACLE_SEED = 20260809
    TRACE_CYCLES = CLI_KINDS

    def __init__(self, ks, seed: int, workdir: Path):
        self.ks, self.seed, self.workdir = ks, seed, workdir

    def setup(self):
        ks = self.ks
        self.tI = ks.scaled_identity((0.0, 1.0), [0.0, 1.0], dim=1)
        self.cli = importlib.import_module(ks.__name__ + ".cli")
        rng = np.random.default_rng([self.seed, 4])
        fixed = np.random.default_rng(self.ORACLE_SEED)
        if self.workdir.exists():
            shutil.rmtree(self.workdir)
        self.workdir.mkdir(parents=True)
        self.specs = []
        for i in range(self.SPEC_PAIRS):
            dim, m = 1 + i % 2, 1 + i
            paths = [str(self.workdir / f"{name}{i}.json") for name in "Fgf"]
            for kind, path in zip(("operator", "vector", "vector"), paths):
                ks.save_function(build(ks, dyadic_arrays(rng, kind, dim, m, jump_share=0.3)), path)
            # the oracle's integrand is drawn once, like crossval's pairs, and
            # the seed only picks its sign, so the oracle's work is the same
            # for every seed
            grid, coeffs, nodes = dyadic_arrays(fixed, "vector", 1, m, jump_share=0.3)
            sign = rng.choice([-1.0, 1.0])
            paths.append(str(self.workdir / f"oracle_g{i}.json"))
            ks.save_function(build(ks, (grid, [sign * c for c in coeffs], sign * nodes)),
                             paths[-1])
            self.specs.append(paths)
        ks.save_function(self.tI, self.workdir / "tI.json")
        ks.save_function(ks.constant((0.0, 2.0), [1.0]), self.workdir / "wide.json")
        doc = ks.function_to_dict(ks.constant((0.0, 1.0), [1.0]))
        doc["pieces"][0]["coeffs"] = [[float("nan")]]
        (self.workdir / "nan.json").write_text(json.dumps(doc))

    def cycle(self, index: int) -> list[Op]:
        rng = np.random.default_rng([self.seed, 3, index])
        ops = []
        for m in self.SIZES:
            ops += [self._lincomb(rng, m), self._restrict(rng, m), self._clip(rng, m),
                    self._refine(rng, m), self._jordan(rng, m), self._truncate(rng, m)]
        ops += [self._power(rng), self._spike(rng), self._truncation(rng),
                self._cli_op(rng, index)]
        return ops

    def _cli_op(self, rng, index):
        ks = self.ks
        spec = (index // self.CLI_KINDS) % self.SPEC_PAIRS
        F, g, f, oracle_g = self.specs[spec]
        tI = str(self.workdir / "tI.json")
        parts = random_elementary(rng, ks, 3)
        expr = ",".join(str(p) for p in parts)
        region = ks.ElementarySet.of(*parts)
        ns = sorted(rng.choice(np.arange(1, 33), size=4, replace=False).tolist())
        out_c, out_b = str(self.workdir / "dec_c.json"), str(self.workdir / "dec_b.json")
        load = ks.load_function
        name, argv, code, check = [
            ("integrate.dFg", ["integrate", F, g, "--set", expr], 0,
             _report_check("value", lambda: ks.integral_over_elementary(
                 load(F), load(g), region).value)),
            ("integrate.Fdg", ["integrate", F, g, "--set", expr, "--orientation", "Fdg"], 0,
             _report_check("value", lambda: ks.ks_Fdg(load(F).restrict(region), load(g)).value)),
            ("variation", ["variation", f, "--set", expr], 0,
             _report_check("total", lambda: ks.var_elementary(load(f), region).total)),
            ("decompose", ["decompose", f, "--out-continuous", out_c, "--out-break", out_b], 0,
             _decompose_check(ks, f, out_c, out_b)),
            ("converge.power", ["converge", tI, "--family", "power",
                                "--ns", ",".join(map(str, ns)), "--threshold", "0.5"], 0,
             _converge_check(ns)),
            ("oracle", ["oracle", tI, oracle_g], 0,
             _report_check("value", lambda: ks.oracle_integral(load(tI), load(oracle_g)))),
            ("error.bad_set", ["variation", f, "--set", "[0,0.5"], 2, None),
            ("error.domain_mismatch", ["integrate", F, str(self.workdir / "wide.json")], 3,
             None),
        ][index % self.CLI_KINDS]
        return self._cli(f"{name}[spec={spec}]", argv, code, check)

    def defect_probes(self) -> list[Op]:
        return [self._cli("error.non_finite", ["variation", str(self.workdir / "nan.json")], 2,
                          None, NON_FINITE)]

    def _cli(self, name, argv, code, check, known_defect=None):
        def run():
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                status = self.cli.main(argv)
            return status, stdout.getvalue()

        def verify(out):
            status, text = out
            if status != code:
                return f"exit code {status}, documented {code}"
            return check(text) if check is not None else None

        return Op(f"churn.cli.{name}", run, verify, known_defect=known_defect)

    def _samples(self, rng, grid, lo=0.0, hi=1.0):
        ts = np.concatenate([lattice_points(rng, self.SAMPLES), grid, [lo, hi]])
        return np.unique(ts[(ts >= lo) & (ts <= hi)])

    def _lincomb(self, rng, m):
        ks = self.ks
        f1 = dyadic_arrays(rng, "vector", 2, m)
        f2 = dyadic_arrays(rng, "vector", 2, m)
        c1, c2 = rng.integers(-8, 9, size=2) / 8.0
        ts = self._samples(rng, np.union1d(f1[0], f2[0]))

        def run():
            return ks.lincomb(c1, build(ks, f1), c2, build(ks, f2)).eval_many(ts)

        want = lambda: c1 * evaluate(*f1, ts) + c2 * evaluate(*f2, ts)
        return Op(f"churn.lincomb[m={m}]", run, _values_check(want))

    def _restrict(self, rng, m):
        ks = self.ks
        f = dyadic_arrays(rng, "vector", 2, m)
        parts = random_elementary(rng, ks, 5)

        def run():
            r = build(ks, f).restrict(ks.ElementarySet.of(*parts))
            return ks.ks_dFg(ks.scaled_identity((0.0, 1.0), [0.0, 1.0], dim=2), r).value

        def want():
            # int_0^1 restricted f dt: every piece clipped to every part
            grid, C = f[0], np.stack(f[1])
            powers = np.arange(1, C.shape[1] + 1)
            total = 0.0
            for p in parts:
                lo = np.clip(grid[:-1], p.lo, p.hi)[:, None]
                hi = np.clip(grid[1:], p.lo, p.hi)[:, None]
                total = total + np.einsum("mk,mkd->d", (hi**powers - lo**powers) / powers, C)
            return total

        return Op(f"churn.restrict[m={m},parts=5]", run, _integral_check(want))

    def _clip(self, rng, m):
        ks = self.ks
        f = dyadic_arrays(rng, "vector", 2, m)
        # half the domain, so that every clip keeps about as many pieces
        c = int(rng.integers(0, LATTICE // 2 + 1)) / LATTICE
        d = c + 0.5
        ts = self._samples(rng, f[0], c, d)

        def run():
            r = build(ks, f).clip(c, d)
            return (r.a, r.b), r.eval_many(ts)

        def check(out):
            (a, b), values = out
            if (a, b) != (c, d):
                return f"clipped domain [{a}, {b}] is not [{c}, {d}]"
            return _values_check(lambda: evaluate(*f, ts))(values)

        return Op(f"churn.clip[m={m}]", run, check)

    def _refine(self, rng, m):
        ks = self.ks
        f = dyadic_arrays(rng, "operator", 2, m)
        points = lattice_points(rng, 20)
        ts = self._samples(rng, np.union1d(f[0], points))

        def run():
            r = build(ks, f).refine(points)
            return r.grid, r.eval_many(ts)

        def check(out):
            grid, values = out
            if not np.array_equal(grid, np.union1d(f[0], points)):
                return "refined grid is not the union of grid and points"
            return _values_check(lambda: evaluate(*f, ts))(values)

        return Op(f"churn.refine[m={m},points=20]", run, check)

    def _jordan(self, rng, m):
        ks = self.ks
        f = dyadic_arrays(rng, "vector", 2, m, jump_share=0.3)
        ts = self._samples(rng, f[0])

        def run():
            fc, fb = ks.jordan_decompose(build(ks, f))
            return fc.eval_many(ts), fb.eval_many(ts), fb(0.0)

        def check(out):
            vc, vb, b0 = out
            if np.any(b0 != 0.0):
                return f"break part is {b0} at a, not 0"
            return _values_check(lambda: evaluate(*f, ts))(vc + vb)

        return Op(f"churn.jordan_decompose[m={m}]", run, check)

    def _break_arrays(self, rng, m, dim=2):
        """A break function with a jump at every interior node."""
        grid = np.concatenate([[0.0], lattice_points(rng, m - 1, 1, LATTICE - 1), [1.0]])
        jm = rng.integers(-16, 17, size=(m + 1, dim)) / 16.0
        jp = rng.integers(-16, 17, size=(m + 1, dim)) / 16.0
        jm[0] = 0.0
        jp[-1] = 0.0
        nodes = np.cumsum(jm + np.vstack([np.zeros((1, dim)), jp[:-1]]), axis=0)
        pieces = nodes[:-1] + jp[:-1]
        return grid, [p[None] for p in pieces], nodes, jm, jp

    def _truncate(self, rng, m):
        ks = self.ks
        grid, coeffs, nodes, jm, jp = self._break_arrays(rng, m)
        jumping = np.flatnonzero(np.any(jm != 0, axis=1) | np.any(jp != 0, axis=1))
        kept = np.sort(rng.choice(jumping, size=len(jumping) // 2, replace=False))
        ts = self._samples(rng, grid)

        def run():
            fb = ks.PiecewiseFunction(grid, coeffs, nodes)
            return ks.break_truncate(fb, grid[kept]).eval_many(ts)

        def want():
            keep = np.zeros((len(grid), 1))
            keep[kept] = 1.0
            before = np.concatenate([np.zeros((1, jm.shape[1])),
                                     np.cumsum((jm + jp) * keep, axis=0)])
            idx = np.searchsorted(grid, ts)
            at = (grid[np.minimum(idx, len(grid) - 1)] == ts)[:, None]
            out = before[idx] + np.where(at, (jm * keep)[np.minimum(idx, len(grid) - 1)], 0.0)
            return np.moveaxis(out, 0, -1)

        return Op(f"churn.break_truncate[m={m}]", run, _values_check(want))

    def _power(self, rng):
        ks = self.ks
        ns = sorted(set(rng.choice(np.arange(1, 64), size=5, replace=False).tolist()) | {64})

        def run():
            report = ks.run_bounded_convergence(self.tI, ks.SequenceFamily.power(), ns, 0.1)
            return report.errors

        want = [Fraction(1, n + 1) for n in ns]
        return Op(f"churn.converge.power[ns={ns}]", run, _errors_check(want),
                  "churn.converge.power")

    def _spike(self, rng):
        ks = self.ks
        center = float(lattice_points(rng, 1, 0, LATTICE - 1)[0])
        height = float(rng.integers(1, 33)) / 8.0
        ns = sorted(rng.choice(np.arange(1, 65), size=6, replace=False).tolist())

        def run():
            family = ks.SequenceFamily.spike((0.0, 1.0), center, height)
            return ks.run_bounded_convergence(self.tI, family, ns, 0.1).errors

        want = [Fraction(height) * (min(Fraction(center) + Fraction(1, n), 1) - Fraction(center))
                for n in ns]
        return Op(f"churn.converge.spike[c={center},K={height}]", run, _errors_check(want),
                  "churn.converge.spike")

    def _truncation(self, rng):
        ks = self.ks
        grid, coeffs, nodes, jm, jp = self._break_arrays(rng, 7, dim=1)
        n_jumps = int(np.sum(np.any(jm != 0, axis=1) | np.any(jp != 0, axis=1)))
        ns = list(range(1, n_jumps + 1))

        def run():
            fb = ks.PiecewiseFunction(grid, coeffs, nodes)
            return ks.run_bounded_convergence(self.tI, ks.SequenceFamily.truncation(fb),
                                              ns, 1e-12).errors

        # int_0^1 of the break function is sum over jumps of (jm + jp)(1 - s)
        full = (jm + jp)[:, 0]
        order = [k for k in range(len(grid)) if jm[k, 0] != 0 or jp[k, 0] != 0]
        want = [abs(sum(Fraction(full[k]) * (1 - Fraction(grid[k])) for k in order[n:]))
                for n in ns]
        return Op(f"churn.converge.truncation[jumps={n_jumps}]", run, _errors_check(want),
                  "churn.converge.truncation")


def _values_check(want):
    def check(values):
        ref = want()
        if values.shape != ref.shape:
            return f"values have shape {values.shape}, the inputs give {ref.shape}"
        return _fail(np.allclose(values, ref, rtol=1e-12, atol=1e-12),
                     f"values differ from the inputs' by up to {np.max(np.abs(values - ref))}")
    return check


def _errors_check(want):
    def check(errors):
        ok = len(errors) == len(want) and all(
            abs(Fraction(e) - w) <= Fraction(1, 10**12) * max(1, w) for e, w in zip(errors, want))
        return _fail(ok, f"errors {errors} vs exact {[float(w) for w in want]}")
    return check


def _report_value(stdout: str, key: str) -> np.ndarray:
    for line in stdout.splitlines():
        if line.startswith(key + "="):
            return np.atleast_1d(np.array(json.loads(line.split("=", 1)[1]), dtype=float))
    raise KeyError(key)


def _report_check(key, direct):
    def check(stdout):
        got = _report_value(stdout, key)
        want = np.atleast_1d(np.asarray(direct(), dtype=float))
        return _fail(got.shape == want.shape and np.array_equal(got, want),
                     f"{key}={_fmt(got)}, library gives {_fmt(want)}")
    return check


def _decompose_check(ks, f, out_c, out_b):
    def check(stdout):
        fc, fb = ks.jordan_decompose(ks.load_function(f))
        same = (ks.function_to_dict(ks.load_function(out_c)) == ks.function_to_dict(fc)
                and ks.function_to_dict(ks.load_function(out_b)) == ks.function_to_dict(fb))
        jumps = f"break_jumps={len(fb.jumps())}" in stdout.splitlines()
        return _fail(same and jumps, "decomposed files differ from jordan_decompose")
    return check


def _converge_check(ns):
    def check(stdout):
        errors = [float(line.rsplit("error=", 1)[1]) for line in stdout.splitlines()
                  if line.startswith("n=")]
        return _errors_check([Fraction(1, n + 1) for n in ns])(errors)
    return check


WORKLOADS = {"crossval": Crossval, "bulk": Bulk, "churn": Churn}
