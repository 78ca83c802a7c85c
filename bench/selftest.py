"""Self-test of the benchmark at tiny sizes.

    python3 bench/selftest.py

Checks, for every workload:

1. every metric of ``BENCHMARK.json`` is printed by name with its unit,
   end-to-end metrics with ``--trace 0`` and per-layer ones with
   ``--trace 1``, no timed op fails and every known-defect probe is
   reported;
2. a deliberately corrupted output is counted as failed, for every op;
3. per-layer counts repeat exactly for the same seed.

Exits non-zero on the first failed check.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

import run
import workloads


KNOWN_DEFECT_PROBES = {"crossval": 0, "bulk": 4, "churn": 1}


def make_tiny():
    workloads.Crossval.PAIRS = 4
    workloads.Bulk.SIZES = [(10, 1), (10, 3)]
    workloads.Bulk.SHIFTED_M = 10
    workloads.Bulk.PARTS = 5
    workloads.Churn.SIZES = [10]
    run.MIN_OPS = 1
    run.SETUP_PROBES = 1
    run.TRACE_PROBES = 1


def corrupt(out):
    """A wrong version of any op output the workloads produce."""
    if isinstance(out, tuple):
        return (corrupt(out[0]),) + out[1:]
    if isinstance(out, list):
        return [corrupt(x) for x in out]
    if isinstance(out, (int, np.integer)):
        return out + 1
    if isinstance(out, float):
        return -1.0 - abs(out)
    if isinstance(out, np.ndarray):
        return out + 1e-3 * (1.0 + np.abs(out))
    if dataclasses.is_dataclass(out):
        return dataclasses.replace(out, jump_contribution=out.jump_contribution + 1e-3)
    raise TypeError(f"no corruption for {type(out).__name__}")


def expect(ok: bool, what: str):
    if not ok:
        sys.exit(f"selftest FAILED: {what}")
    print(f"ok: {what}")


def main() -> int:
    make_tiny()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    ks = run.import_library()
    for name in ("crossval", "bulk", "churn"):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            args = argparse.Namespace(workload=name, seed=7, seconds=0.0, trace=trace)
            outcome = run.execute(ks, args)
            metrics = outcome["result"]["metrics"]
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in metrics.items()}
            expect(got == want,
                   f"{name} --trace {trace} prints every {section} metric with its unit")
            expect(all(isinstance(v["value"], float) for v in metrics.values()),
                   f"{name} --trace {trace} values are numbers")
            expect(outcome["result"]["correct"] and outcome["result"]["failed"] == 0,
                   f"{name} --trace {trace} has no failed op")
            expect(len(outcome["defects"]) == KNOWN_DEFECT_PROBES[name]
                   and all(isinstance(d["reproduced"], bool) for d in outcome["defects"]),
                   f"{name} --trace {trace} reports its {KNOWN_DEFECT_PROBES[name]} defect probes")

        workload = run.make_workload(ks, name, 7)
        try:
            workload.setup()
            ops = [op for i in range(workload.TRACE_CYCLES) for op in workload.cycle(i)]
            failures = run.check(run.run_ops(ops, tamper=lambda op, out: corrupt(out)))
        finally:
            run.cleanup(workload)
        expect(len(failures) == len(ops),
               f"{name}: all {len(ops)} corrupted outputs count as failed")

        counts = []
        for _ in range(2):
            workload = run.make_workload(ks, name, 11)
            try:
                workload.setup()
                _, metrics, _, raw = run.traced(ks, workload, [{"interpreter_ms": 0.0,
                                                                "import_ms": 0.0}])
            finally:
                run.cleanup(workload)
            counts.append(({k: v["value"] for k, v in metrics.items()
                            if v["unit"] == "count"}, raw))
        expect(counts[0] == counts[1], f"{name}: counts repeat exactly for the same seed")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
