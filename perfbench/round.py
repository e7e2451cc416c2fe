"""One round of one workload, in a fresh interpreter.

    python3 perfbench/round.py --workload finite-groups --seed 1 [--trace 1]

`run.py` starts this once per round with the run conditions set in the
environment.  It imports the workload's modules, makes the inputs from
the seed, starts the clock at the first library call, stops it once every
output is checked, and prints one JSON line: wall time, peak RSS,
operations attempted and failed, the first wrong outputs and errors, and
with --trace 1 the per-layer metrics (spans go to --spans-out).
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import sys
from time import perf_counter

import workloads
from tracer import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=workloads.SIZES, default="full")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args(argv)

    for name in workloads.MODULES[args.workload]:
        importlib.import_module(name)
    import hecke_forge
    src = os.path.join(ROOT, "src") + os.sep
    if not os.path.abspath(hecke_forge.__file__).startswith(src):
        print(f"hecke_forge imported from {hecke_forge.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2

    inputs = workloads.make_inputs(args.workload, args.seed, args.size)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    ops = workloads.Ops()
    t0 = perf_counter()
    if tracer:
        tracer.start()
    try:
        workloads.run(args.workload, inputs, ops)
    except Exception as exc:  # a check could not read an output
        ops.expect(f"round stopped: {type(exc).__name__}: {exc}")
    wall_s = perf_counter() - t0

    out = {
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "wrong": ops.wrong[:20],
        "wrong_count": len(ops.wrong),
        "errors": ops.errors[:20],
    }
    if tracer:
        out["layers"] = tracer.metrics(wall_s)
        if args.spans_out:
            with open(args.spans_out, "w") as fh:
                json.dump({"workload": args.workload, "seed": args.seed,
                           "round_wall_s": wall_s,
                           "missing_targets": tracer.missing,
                           "spans": tracer.spans()}, fh)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
