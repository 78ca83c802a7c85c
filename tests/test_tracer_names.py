"""The benchmark tracer wraps library functions by name; a rename or a
deletion in ``kstieltjes`` must fail here, not only in the benchmark."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import kstieltjes as ks

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("short", sorted(tracer.FUNCTIONS))
def test_functions_resolve(short):
    module = importlib.import_module(f"{ks.__name__}.{short}")
    missing = [attr for attr in tracer.FUNCTIONS[short]
               if not callable(getattr(module, attr, None))]
    assert not missing, f"{short}: {missing}"


@pytest.mark.parametrize("short, cls_name, methods", tracer.METHODS,
                         ids=[f"{s}.{c}" for s, c, _ in tracer.METHODS])
def test_methods_resolve(short, cls_name, methods):
    cls = getattr(importlib.import_module(f"{ks.__name__}.{short}"), cls_name)
    missing = [meth for meth in methods if meth not in cls.__dict__]
    assert not missing, f"{short}.{cls_name}: {missing}"


def test_oracle_levels_go_through_the_traced_builder(monkeypatch):
    """``gauges.oracle.levels``, ``gauges.oracle.points`` and
    ``gauges.division.self_s`` come from the tracer's wrapper on
    ``gauges._forced_fine_division``: the oracle must look the builder up
    as a module global, call it at most once per level and use the
    division."""
    from kstieltjes import gauges

    build, levels, divisions = gauges._forced_fine_division, [], []

    def counting(plan, level, max_points):
        levels.append(level)
        divisions.append(build(plan, level, max_points))
        return divisions[-1]

    monkeypatch.setattr(gauges, "_forced_fine_division", counting)
    F = ks.scaled_identity((0.0, 1.0), [0.0, 0.0, 1.0], dim=1)
    g = ks.polynomial((0.0, 1.0), [0.0, 1.0])
    traced = tracer.Tracer().install(ks)
    try:
        value = ks.oracle_integral(F, g, "dFg", 1e-8, start_level=2)
    finally:
        traced.uninstall()
    # each level is built at most once, none below start_level (which may
    # go unbuilt), and the three highest built are the winning level K and
    # the two below it, whose sums the rule compared
    top = max(levels)
    assert len(set(levels)) == len(levels) and min(levels) >= 2
    assert sorted(levels)[-3:] == [top - 2, top - 1, top]
    assert all(type(d) is gauges.TaggedDivision for d in divisions)
    assert value.tobytes() == ks.rs_sum_dFg(F, g, divisions[levels.index(top)]).tobytes()
    assert traced.counts["gauges.division.calls"] == len(levels)
    assert traced.counts["gauges.oracle.points"] == sum(d.points.size for d in divisions)
    assert "gauges.division" in traced.self_times()


@pytest.mark.parametrize("orientation", ["dFg", "Fdg"])
def test_oracle_sums_and_fineness_go_through_module_globals(monkeypatch, orientation):
    """``gauges.rs_sum.self_s`` and ``gauges.gauge_evals`` are taken from
    the tracer's wrappers on ``rs_sum_dFg``/``rs_sum_Fdg``, ``is_delta_fine``
    and ``Gauge.__call__``: the oracle must look the sum of its orientation
    and the fineness check up as module globals and call each once per
    built level, the check on the level's tags."""
    from kstieltjes import gauges

    calls = {"levels": 0, "rs_sum_dFg": 0, "rs_sum_Fdg": 0, "is_delta_fine": 0}
    tags = []

    def counted(name):
        fn = getattr(gauges, name)

        def wrapper(*args):
            calls[name] += 1
            if name == "is_delta_fine":
                tags.append(args[0].tags.size)
            return fn(*args)

        return wrapper

    build = gauges._forced_fine_division

    def counting(plan, level, max_points):
        calls["levels"] += 1
        return build(plan, level, max_points)

    for name in ("rs_sum_dFg", "rs_sum_Fdg", "is_delta_fine"):
        monkeypatch.setattr(gauges, name, counted(name))
    monkeypatch.setattr(gauges, "_forced_fine_division", counting)
    F = ks.PiecewiseFunction([0.0, 0.25, 1.0], [[[[1.0]], [[2.0]]], [[[0.5]], [[-1.0]], [[3.0]]]],
                             [[[0.0]], [[2.0]], [[1.0]]])
    g = ks.polynomial((0.0, 1.0), [0.0, 1.0, 1.0])
    traced = tracer.Tracer().install(ks)
    try:
        ks.oracle_integral(F, g, orientation, 1e-8, start_level=2)
    finally:
        traced.uninstall()
    other = "rs_sum_Fdg" if orientation == "dFg" else "rs_sum_dFg"
    assert calls["levels"] >= 3
    assert calls[f"rs_sum_{orientation}"] == calls["is_delta_fine"] == calls["levels"]
    assert calls[other] == 0
    assert traced.counts["gauges.rs_sum.calls"] == calls["levels"]
    assert traced.counts["gauges.is_delta_fine.calls"] == calls["levels"]
    assert traced.counts["gauges.gauge_evals"] == sum(tags)
    assert {"gauges.rs_sum", "gauges.is_delta_fine"} <= set(traced.self_times())


@pytest.mark.parametrize("consumer", ["jordan_decompose", "ks_dFg", "break_truncate",
                                      "integral_over_point", "var_compact"])
def test_jump_table_is_built_inside_the_jumps_span(consumer):
    """``piecewise.jumps.self_s`` times the jump table, which is built on
    first use and cached: a consumer that meets a fresh function must reach
    the table through ``jumps()``, so the table's one batched ``polyval``
    call, which evaluates every piece whatever its degree pattern, is a
    child of a ``piecewise.jumps`` span."""
    # a sparse, a dense (Horner) and a two-term piece: three pattern groups
    F = ks.PiecewiseFunction([0.0, 0.25, 0.5, 1.0],
                             [[[[0.0]], [[0.0]], [[0.0]], [[2.0]]],
                              [[[1.0]], [[2.0]], [[-1.0]], [[0.5]]],
                              [[[1.0]], [[2.0]]]],
                             [[[0.0]], [[3.0]], [[-1.0]], [[4.0]]])
    g = ks.polynomial((0.0, 1.0), [1.0, -1.0])
    # a fresh break function, its table not built
    fb = ks.jordan_decompose(ks.PiecewiseFunction(F.grid, F.coeffs, F.nodes))[1]
    run = {"jordan_decompose": lambda: ks.jordan_decompose(F),
           "ks_dFg": lambda: ks.ks_dFg(F, g),
           "break_truncate": lambda: ks.break_truncate(fb, [0.25]),
           "integral_over_point": lambda: ks.integral_over_point(F, g, 0.25),
           "var_compact": lambda: ks.var_compact(F, 0.0, 1.0)}[consumer]
    traced = tracer.Tracer().install(ks)
    try:
        run()
    finally:
        traced.uninstall()
    names = {span[0]: span[1] for span in traced.spans}
    under_jumps = [span for span in traced.spans
                   if span[1] == "poly.polyval" and names.get(span[4]) == "piecewise.jumps"]
    assert traced.counts["piecewise.jumps.calls"] >= 1
    assert len(under_jumps) == 1
