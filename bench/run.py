"""kstieltjes benchmark.

    python3 bench/run.py --workload {crossval,bulk,churn} --seed N \
        --seconds S --trace {0,1}

Run from the repository root; the library is imported from ``src/``.  The
first stdout line is an environment header, then one line per failed op,
then one line per known-defect probe, then a summary with sample counts;
the last line is the result object
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` measures the end-to-end metrics: whole cycles of ops until
at least ``S`` seconds of op time and at least 100 ops; after each cycle
every output is checked against its reference.  On a shared 2-CPU host the
same code ran up to 1.8 times slower, in stretches of ten seconds to over a
minute, under load from outside the process.  So each op counts at the
fastest latency that its kind (one operation at one size, see
``workloads.Op``) reached in the run, which follows the program's speed
rather than the host's: ``ops_per_s``, ``op_p50_ms`` and ``op_p90_ms`` are
the throughput and latency quantiles of the run's ops timed that way.  The
summary line also gives them from each op's own latency.  Set-up time is
the median over ``SETUP_PROBES`` fresh interpreters, started between cycles
and each timed from spawn until the workload's inputs are built.

After the timed part, the ops that exercise a known roadmap defect run
once, untimed and outside ``attempted``: each prints whether its defect
still shows.

``--trace 1`` runs a fixed number of cycles three times: a warm-up, a plain
pass and a pass with the outside-in tracer installed.  It reports per-layer
self times and counts (identical for a given seed) plus the tracing
overhead.  The summary line then carries the self time and count of every
span name, for example the CLI handler of each subcommand (``cli.cmd_*``).
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()   # when the interpreter reached this file

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

MIN_OPS = 100           # op_p90_ms needs ten samples beyond it
SETUP_PROBES = 9
TRACE_PROBES = 3        # interpreter start and import times for the traced run
HELD_OUT_SEED = 4242    # later claims must also hold on this seed

END_TO_END = [
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("pass_ratio", "fraction"),
]

PER_LAYER = [
    ("gauges.oracle.calls", "count"), ("gauges.oracle.levels", "count"),
    ("gauges.oracle.points", "count"), ("gauges.gauge_evals", "count"),
    ("gauges.division.self_s", "s"), ("gauges.rs_sum.self_s", "s"),
    ("poly.real_roots.calls", "count"), ("poly.real_roots.self_s", "s"),
    ("poly.real_roots.hit_ratio", "fraction"),
    ("poly.integral_of_norm.calls", "count"), ("poly.integral_of_norm.self_s", "s"),
    ("variation.var_compact.self_s", "s"), ("variation.var_interval.self_s", "s"),
    ("piecewise.jumps.calls", "count"), ("piecewise.jumps.self_s", "s"),
    ("variation.var_elementary.self_s", "s"), ("variation.parts", "count"),
    ("integrate.integral_over_elementary.self_s", "s"),
    ("integrate.ks_dFg.self_s", "s"), ("integrate.ks_Fdg.self_s", "s"),
    ("integrate.merged_pieces", "count"), ("integrate.estimate_bound.self_s", "s"),
    ("poly.defint.self_s", "s"), ("poly.matvec_conv.self_s", "s"),
    ("piecewise.construct.calls", "count"), ("piecewise.construct.self_s", "s"),
    ("piecewise.refine.self_s", "s"), ("piecewise.clip.self_s", "s"),
    ("piecewise.restrict.self_s", "s"), ("piecewise.lincomb.self_s", "s"),
    ("piecewise.jordan_decompose.self_s", "s"), ("piecewise.break_truncate.self_s", "s"),
    ("intervals.self_s", "s"),
    ("piecewise.eval_many.points", "count"), ("piecewise.eval_many.self_s", "s"),
    ("poly.polyval.calls", "count"), ("poly.polyval.self_s", "s"),
    ("piecewise.sup_norm.self_s", "s"), ("poly.sup_norm_on.self_s", "s"),
    ("convergence.run_bounded_convergence.self_s", "s"), ("convergence.realize.calls", "count"),
    ("cli.interpreter_ms", "ms"), ("cli.import_ms", "ms"), ("cli.main_ms", "ms"),
    ("funcspec_io.load.self_s", "s"), ("funcspec_io.save.self_s", "s"),
    ("trace.plain_s", "s"), ("trace.overhead_s", "s"),
]


def import_library():
    """Import ``kstieltjes`` from this checkout's ``src`` and nowhere else."""
    if not (SRC / "kstieltjes" / "__init__.py").is_file():
        sys.exit(f"bench: no kstieltjes sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import kstieltjes
    if Path(kstieltjes.__file__).resolve().parent != SRC / "kstieltjes":
        sys.exit(f"bench: imported kstieltjes from {kstieltjes.__file__}, not {SRC}")
    return kstieltjes


def make_workload(ks, name: str, seed: int):
    import workloads
    cls = workloads.WORKLOADS[name]
    if cls is workloads.Churn:
        return cls(ks, seed, ROOT / ".bench_build" / f"churn-{os.getpid()}")
    return cls(ks, seed)


def cleanup(workload):
    workdir = getattr(workload, "workdir", None)
    if workdir is not None and workdir.exists():
        shutil.rmtree(workdir)


# -- environment ---------------------------------------------------------


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "kstieltjes").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def header(args) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):  # the config layout differs across numpy releases
        blas = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                          "BLIS_NUM_THREADS")},
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# -- measurement -----------------------------------------------------------


def setup_probe(workload: str, seed: int) -> dict:
    """Spawn a fresh interpreter that imports the library and builds the
    workload's inputs.  Returns seconds from spawn until the inputs exist,
    and the milliseconds from spawn until the interpreter ran this file and
    spent in ``import kstieltjes``."""
    spawned = time.perf_counter()
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--setup-probe",
                           "--workload", workload, "--seed", str(seed)],
                          cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    stamps = json.loads(proc.stdout.splitlines()[-1])
    return {"setup_s": stamps["ready"] - spawned,
            "interpreter_ms": (stamps["reached"] - spawned) * 1e3,
            "import_ms": stamps["import_s"] * 1e3}


def run_ops(ops, tamper=None):
    """Run ops in order; returns (op, seconds, output, exception) records."""
    records = []
    clock = time.perf_counter
    for op in ops:
        t0 = clock()
        try:
            out, exc = op.run(), None
        except Exception as e:  # an op that raises counts as failed
            out, exc = None, e
        dt = clock() - t0
        if tamper is not None and exc is None:
            out = tamper(op, out)
        records.append((op, dt, out, exc))
    return records


def verdict(op, out, exc) -> str | None:
    """``None`` or the reason the op missed its reference."""
    if exc is not None:
        return f"raised {type(exc).__name__}: {exc}"
    try:
        return op.check(out)
    except Exception as e:  # a malformed output fails its op
        return f"check raised {type(e).__name__}: {e}"


def check(records) -> list[tuple[str, str]]:
    """(op name, reason) for every op that missed."""
    return [(op.name, reason) for op, _, out, exc in records
            if (reason := verdict(op, out, exc)) is not None]


def defect_report(workload) -> list[dict]:
    """Run the known-defect probes once, untimed; one line each."""
    return [{"known_defect": op.known_defect, "op": op.name,
             "reproduced": (reason := verdict(op, out, exc)) is not None, "reason": reason}
            for op, _, out, exc in run_ops(workload.defect_probes())]


def measure(workload, seconds: float, min_ops: int, probe):
    """Whole cycles until ``seconds`` of op time and ``min_ops`` ops; returns
    the op latencies by op kind.  Each cycle is checked and dropped before
    the next one, so the process does not grow with the run.  ``probe`` runs ``SETUP_PROBES`` times between
    cycles, spread over the run, so that set-up time samples the same
    stretches of machine load as the ops."""
    samples, failures, probes, index, busy = {}, [], [], 0, 0.0
    while busy < seconds or sum(map(len, samples.values())) < min_ops:
        if len(probes) < SETUP_PROBES and busy >= len(probes) * seconds / SETUP_PROBES:
            probes.append(probe())
        batch = run_ops(workload.cycle(index))
        for op, dt, _, _ in batch:
            samples.setdefault(op.kind, []).append(dt)
        busy += sum(r[1] for r in batch)
        failures += check(batch)
        index += 1
    probes += [probe() for _ in range(SETUP_PROBES - len(probes))]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return samples, failures, probes, index, rss_mb


def latency_stats(counts, seconds) -> dict:
    """Throughput and latency quantiles of ``counts[i]`` ops that each take
    ``seconds[i]``."""
    import numpy as np
    counts, seconds = np.asarray(counts), np.asarray(seconds)
    p50, p90 = np.percentile(np.repeat(seconds, counts) * 1e3, [50, 90])
    return {"ops_per_s": counts.sum() / (counts * seconds).sum(),
            "op_p50_ms": p50, "op_p90_ms": p90}


def end_to_end(samples: dict, rss_mb, setup_samples, failures) -> dict:
    """The end-to-end metrics; every op counts at the fastest latency of
    its kind in the run."""
    counts = [len(v) for v in samples.values()]
    values = {
        **latency_stats(counts, [min(v) for v in samples.values()]),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": rss_mb,
        "pass_ratio": 1.0 - len(failures) / sum(counts),
    }
    return {name: {"value": float(values[name]), "unit": unit} for name, unit in END_TO_END}


def traced(ks, workload, probes):
    """Per-layer metrics over ``TRACE_CYCLES`` fixed cycles."""
    from tracer import Tracer
    ops = [op for i in range(workload.TRACE_CYCLES) for op in workload.cycle(i)]
    run_ops(ops)        # warm-up, so that the plain and traced passes start alike
    plain = sum(r[1] for r in run_ops(ops))
    tracer = Tracer().install(ks)
    try:
        records = run_ops(ops)
    finally:
        tracer.uninstall()
    self_s, counts, totals = tracer.self_times(), dict(tracer.counts), tracer.totals()
    values = layer_values(self_s, counts)
    values["cli.interpreter_ms"] = statistics.median(p["interpreter_ms"] for p in probes)
    values["cli.import_ms"] = statistics.median(p["import_ms"] for p in probes)
    calls = counts.get("cli.main.calls", 0)
    values["cli.main_ms"] = 1e3 * totals.get("cli.main", 0.0) / calls if calls else 0.0
    values["trace.plain_s"] = plain
    values["trace.overhead_s"] = sum(r[1] for r in records) - plain
    return records, {name: {"value": float(values[name]), "unit": unit}
                     for name, unit in PER_LAYER}, self_s, counts


def layer_values(self_s: dict, counts: dict) -> dict:
    def ratio(num, den):
        return num / den if den else 0.0

    derived = {
        "gauges.oracle.levels": counts.get("gauges.division.calls", 0),
        "poly.real_roots.hit_ratio": ratio(counts.get("poly.real_roots.hits", 0),
                                            counts.get("poly.real_roots.calls", 0)),
        "integrate.merged_pieces": ratio(
            counts.get("integrate.merged_pieces", 0),
            counts.get("integrate.ks_dFg.calls", 0) + counts.get("integrate.ks_Fdg.calls", 0)),
        "intervals.self_s": sum(v for k, v in self_s.items() if k.startswith("intervals.")),
    }
    out = {}
    for name, _ in PER_LAYER:
        if name in derived:
            out[name] = float(derived[name])
        elif name.endswith(".self_s"):
            out[name] = float(self_s.get(name[:-len(".self_s")], 0.0))
        else:
            out[name] = float(counts.get(name, 0.0))
    return out


def execute(ks, args) -> dict:
    """One benchmark run: header, failures, summary and the result object."""
    workload = make_workload(ks, args.workload, args.seed)
    try:
        workload.setup()
        if args.trace:
            probes = [setup_probe(args.workload, args.seed) for _ in range(TRACE_PROBES)]
            records, metrics, self_s, counts = traced(ks, workload, probes)
            failures = check(records)
            attempted = len(records)
            summary = {"ops": attempted, "cycles": workload.TRACE_CYCLES,
                       "self_s": dict(sorted(self_s.items())),
                       "counts": dict(sorted(counts.items()))}
        else:
            samples, failures, probes, cycles, rss_mb = measure(
                workload, args.seconds, MIN_OPS, lambda: setup_probe(args.workload, args.seed))
            durations = [dt for v in samples.values() for dt in v]
            attempted = len(durations)
            metrics = end_to_end(samples, rss_mb, [p["setup_s"] for p in probes], failures)
            summary = {"ops": attempted, "cycles": cycles, "op_seconds": sum(durations),
                       "op_kinds": len(samples),
                       "samples_per_kind": min(map(len, samples.values())),
                       "setup_samples": len(probes), "failed_ratio": len(failures) / attempted,
                       "own_latency": {k: float(v) for k, v in
                                       latency_stats([1] * attempted, durations).items()}}
        defects = defect_report(workload)
    finally:
        cleanup(workload)
    summary["known_defects_reproduced"] = sum(d["reproduced"] for d in defects)
    return {
        "failures": [{"failed_op": name, "reason": reason} for name, reason in failures],
        "defects": defects,
        "summary": summary,
        "result": {"correct": not failures, "attempted": attempted, "failed": len(failures),
                   "metrics": metrics},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("crossval", "bulk", "churn"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        started = time.perf_counter()
        ks = import_library()
        imported = time.perf_counter()
        workload = make_workload(ks, args.workload, args.seed)
        try:
            workload.setup()
            print(json.dumps({"reached": STARTED, "import_s": imported - started,
                              "ready": time.perf_counter()}))
        finally:
            cleanup(workload)
        return 0

    ks = import_library()
    print(json.dumps({"header": header(args)}), flush=True)
    outcome = execute(ks, args)
    for line in outcome["failures"] + outcome["defects"]:
        print(json.dumps(line))
    print(json.dumps({"summary": outcome["summary"]}))
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
