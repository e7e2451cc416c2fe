"""hecke-forge benchmark: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload finite-groups --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the library is imported from its `src/`.
Each round of a workload is a fresh interpreter (`round.py`) with
single-threaded BLAS, a fixed hash seed and HECKE_FORGE_MAX_GROUP_ORDER
unset.  Rounds repeat until --seconds have been spent on them, always
finishing the round under way.

--trace 0 reports the end-to-end metrics:
  wall_s       median round time, first library call to checked result
  setup_s      median time for a fresh interpreter to start and import
               the workload's modules, over SETUP_SAMPLES tries
  peak_rss_mb  median peak resident set of a round's process
--trace 1 runs each round twice, untraced and traced, and reports the
per-layer metrics of the traced rounds, plus the tracing overhead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Results and spans are also
written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 15
DEADLINE_S = 170          # one workload, set-up included, ends before this


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("HECKE_FORGE_MAX_GROUP_ORDER", None)
    # bytecode is cached, as for an installed package, but only inside
    # the checkout: the prefix holds every .pyc the children read or write
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update({
        "PYTHONPYCACHEPREFIX": os.path.join(OUT, "pycache"),
        "PYTHONPATH": os.path.join(ROOT, "src"),
        "PYTHONHASHSEED": "0",
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    })
    return env


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(ROOT, ".git", name)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _run_child(cmd, env, deadline, what) -> subprocess.CompletedProcess:
    left = deadline - perf_counter()
    if left <= 0:
        raise BenchError(f"out of time before {what}")
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=left)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{what} did not finish within the deadline")
    if proc.returncode != 0:
        raise BenchError(f"{what} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return proc


def measure_setup(workload, env, deadline) -> float:
    code = "import " + ", ".join(workloads.MODULES[workload])
    cmd = [sys.executable, "-c", code]
    _run_child(cmd, env, deadline, "warm-up import")  # writes bytecode once
    times = []
    for _ in range(SETUP_SAMPLES):
        t0 = perf_counter()
        _run_child(cmd, env, deadline, "set-up import")
        times.append(perf_counter() - t0)
    return statistics.median(times)


def run_round(workload, seed, size, traced, env, deadline, spans_out=None):
    cmd = [sys.executable, os.path.join(HERE, "round.py"),
           "--workload", workload, "--seed", str(seed), "--size", size,
           "--trace", "1" if traced else "0"]
    if spans_out:
        cmd += ["--spans-out", spans_out]
    proc = _run_child(cmd, env, deadline, f"{workload} round")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise BenchError(f"{workload} round printed no result:\n"
                         f"{proc.stdout[-2000:]}")


def bench(workload, seed, seconds, traced, size) -> dict:
    deadline = perf_counter() + DEADLINE_S
    env = child_env()
    setup_s = measure_setup(workload, env, deadline)
    plain, marked = [], []
    spans_out = os.path.join(OUT, f"spans-{workload}-seed{seed}.json")
    t0 = perf_counter()
    while not plain or perf_counter() - t0 < seconds:
        plain.append(run_round(workload, seed, size, False, env, deadline))
        if traced:
            marked.append(run_round(workload, seed, size, True, env,
                                    deadline, spans_out))
    rounds = plain + marked
    wall = statistics.median(r["wall_s"] for r in plain)
    metrics = {}
    if traced:
        units = tracer.metric_units()
        traced_wall = statistics.median(r["wall_s"] for r in marked)
        for name, unit in units.items():
            if name.startswith("trace."):
                continue
            metrics[name] = {"value": statistics.median(
                r["layers"][name] for r in marked), "unit": unit}
        metrics["trace.overhead_s"] = {"value": traced_wall - wall,
                                       "unit": "s"}
        metrics["trace.overhead_pct"] = {
            "value": 100 * (traced_wall - wall) / wall, "unit": "%"}
        metrics["trace.spans"] = {"value": marked[0]["layers"]["trace.spans"],
                                  "unit": "count"}
    else:
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(
                r["peak_rss_mb"] for r in plain), "unit": "MB"},
        }
    wrong = [m for r in rounds for m in r["wrong"]]
    return {
        "correct": all(r["wrong_count"] == 0 for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
        "detail": {
            "workload": workload, "seed": seed, "size": size,
            "rounds": len(plain), "traced_rounds": len(marked),
            "round_wall_s": [r["wall_s"] for r in plain],
            "traced_round_wall_s": [r["wall_s"] for r in marked],
            "setup_s": setup_s, "wrong": wrong[:20],
            "errors": [m for r in rounds for m in r["errors"]][:20],
        },
    }


def environment() -> dict:
    return {"git_sha": git_sha(), "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0))}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=workloads.SIZES, default="full",
                    help="smoke: a reduced input set, for the tests")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "hecke_forge",
                                       "__init__.py")):
        print(f"no hecke_forge sources under {ROOT}/src; run from the root "
              "of a hecke-forge checkout", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    env_info = environment()
    print("environment: " + json.dumps(env_info, sort_keys=True))

    names = workloads.WORKLOADS if args.workload == "all" \
        else (args.workload,)
    results = {}
    try:
        for name in names:
            res = bench(name, args.seed, args.seconds, bool(args.trace),
                        args.size)
            results[name] = res
            detail = res["detail"]
            print(f"{name}: rounds={detail['rounds']} "
                  f"attempted={res['attempted']} failed={res['failed']} "
                  f"correct={res['correct']}")
            for metric, mv in res["metrics"].items():
                print(f"  {metric} = {mv['value']:.6g} {mv['unit']}")
            for msg in detail["wrong"] + detail["errors"]:
                print(f"  ! {msg}")
            path = os.path.join(
                OUT, f"result-{name}-seed{args.seed}-trace{args.trace}.json")
            with open(path, "w") as fh:
                json.dump({**res, "environment": env_info}, fh, indent=1)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    if len(results) == 1:
        metrics = results[names[0]]["metrics"]
    else:  # --workload all: metrics prefixed by workload
        metrics = {f"{name}.{metric}": mv for name, res in results.items()
                   for metric, mv in res["metrics"].items()}
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
