"""soccersum benchmark: one command per workload, checked outputs, named metrics.

    python3 perfbench/run.py --workload train --seed 7 --seconds 20 --trace 0

Closed loop: one client in this process runs operations back to back until
``--seconds`` have passed (and at least the workload's minimum number of
operations ran), using at most two worker processes.  Every operation's
output is checked; the last stdout line is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``:

* ``--trace 0``: the end-to-end metrics, measured with tracing off.
* ``--trace 1``: the per-layer metrics.  Operations alternate untraced and
  traced on the same input; layer metrics come from the traced ones, and
  ``trace.overhead_s`` is the traced minus the untraced median wall time.

The benchmark process and its children run pinned to the first usable core,
except that a workload with ``cores = 2`` (``e2e-small``) runs its command
and process pool on the first two.  Every end-to-end time (``setup_s``, ``wall_s``,
``cpu_s`` and the seconds in ``events_per_s``) is scaled to the speed of an
uncontended core by the core-speed samplers of ``corespeed.py``, which run
beside the workload on the same cores; the unscaled times are in
``result.json``.  Per-layer times are not scaled.

Details of every run (environment, each operation, LSTM shapes, warning
locations, spans) go to ``.bench_out/<workload>-s<seed>-t<trace>/``.
``--manifest`` prints the BENCHMARK.json these definitions describe.
"""
from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

DEFAULT_SEED = 7
HELD_OUT_SEED = 20261017
RUN_SECONDS = 20
NO_NEW_OP_AFTER_S = 100.0

# name, unit, better, bound (share of the parent's median it may worsen by)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("events_per_s", "events/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.2),
]


def manifest() -> dict:
    from layers import PER_LAYER
    from workloads import WORKLOADS
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": _better(n, u)}
                      for n, u in PER_LAYER.items()],
    }


def _better(name: str, unit: str) -> str:
    if unit in ("s", "us") or name.endswith(("over_budget", "numpy_warnings")):
        return "lower"
    return "higher"


def environment(usable: list) -> dict:
    import numpy
    import scipy
    from soccersum.neural import kernels
    probe = subprocess.run([sys.executable, "-c", "import numba"],
                           capture_output=True, timeout=60)
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(usable),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_imports": probe.returncode == 0,
        "numba_kernels_active": kernels.lstm_forward is not kernels.lstm_forward_numpy,
        "SOCCERSUM_NUMBA": os.environ.get("SOCCERSUM_NUMBA"),
    }


def _median(values):
    return statistics.median(values) if values else 0.0


def run(args, usable: list) -> int:
    from corespeed import CoreSpeed
    from workloads import WORKLOADS

    work = os.path.join(OUT, "%s-s%d-t%d" % (args.workload, args.seed, args.trace))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    wl = WORKLOADS[args.workload](work, args.seed, args.toy)
    wl.cpus = usable[:wl.cores]
    with CoreSpeed(work, wl.cpus) as speed:
        return measure(args, wl, work, speed, usable)


def measure(args, wl, work, speed, usable) -> int:
    from layers import PER_LAYER, op_metrics, per_call_metrics, shape_table
    from tracing import TRACER
    from workloads import Outcome

    t_start = time.perf_counter()
    trace = bool(args.trace)

    if trace:
        TRACER.op = "setup"
        TRACER.start()
    setup_times, setup_factors = [], []
    for rep in range(wl.setup_repeats):
        t0 = time.perf_counter()
        wl.setup(rep)
        t1 = time.perf_counter()
        setup_times.append(t1 - t0)
        setup_factors.append(speed.factor(t0, t1, wl.cpus[:1]))
    TRACER.active = False
    traced_spans = TRACER.spans
    TRACER.spans = []
    TRACER.warnings.clear()

    ops = []
    t_measure = time.perf_counter()
    while len(ops) < wl.min_ops or time.perf_counter() - t_measure < args.seconds:
        if time.perf_counter() - t_start > NO_NEW_OP_AFTER_S:
            break
        i = len(ops)
        key, traced = wl.plan(i, trace)
        t0 = time.perf_counter()
        try:
            out = wl.run_op(i, key, traced)
        except Exception:
            out = Outcome(float("nan"), float("nan"), 0,
                          ["op %d raised: %s" % (i, traceback.format_exc(limit=3))],
                          str(key), "")
        out.speed = speed.factor(t0, time.perf_counter(), wl.cpus)
        ops.append((i, traced, out))
        sys.stderr.write("op %d input %s%s: %.2f s, %.2f s scaled%s\n" % (
            i, key, " traced" if traced else "", out.wall, out.wall * out.speed,
            "" if not out.problems else " FAILED " + "; ".join(out.problems[:3])))

    problems = []
    if len(ops) < wl.min_ops:
        problems.append("only %d of the minimum %d operations ran" % (len(ops), wl.min_ops))
    problems += wl.finish()
    first = {}
    for i, _traced, out in ops:
        if not out.digest:
            continue
        if first.setdefault(out.key, out.digest) != out.digest:
            out.problems.append("outputs differ from an earlier run of input %s" % out.key)
    failed = sum(1 for _i, _t, out in ops if out.problems)
    good = [(traced, out) for _i, traced, out in ops if not out.problems]
    plain = [out for traced, out in good if not traced]
    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    walls = [o.wall * o.speed for o in plain]

    if trace:
        traced_ops = [out for traced, out in good if traced]
        per_op = [op_metrics(o.spans, o.warnings) for o in traced_ops]
        metrics = {name: _median([m[name] for m in per_op])
                   for name in PER_LAYER if per_op and name in per_op[0]}
        for o in traced_ops:
            traced_spans += o.spans
        metrics.update(per_call_metrics(traced_spans))
        metrics.update(wl.quality())
        metrics["trace.overhead_s"] = (_median([o.wall * o.speed for o in traced_ops])
                                       - _median(walls))
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": _median([t * f for t, f in zip(setup_times, setup_factors)]),
            "wall_s": _median(walls),
            "cpu_s": _median([o.cpu * o.speed for o in plain]),
            "events_per_s": _median([o.events / (o.wall * o.speed) for o in plain]),
            "peak_rss_mb": max(me, kids) / 1024.0,
        }
        units = {n: u for n, u, _b, _bound in END_TO_END}
    missing = [n for n in units if n not in metrics]
    if missing:
        problems.append("no value for %s" % ", ".join(missing))
    result = {
        "correct": failed == 0 and not problems,
        "attempted": len(ops),
        "failed": failed + (1 if problems else 0),
        "metrics": {n: {"value": metrics.get(n, 0.0), "unit": u} for n, u in units.items()},
    }

    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "toy": args.toy, "environment": environment(usable),
        "cpus": wl.cpus, "setup_s": setup_times, "setup_speed": setup_factors,
        "problems": problems,
        "ops": [{"op": i, "input": o.key, "traced": t, "wall_s": o.wall, "cpu_s": o.cpu,
                 "speed": o.speed, "events": o.events, "problems": o.problems}
                for i, t, o in ops],
        "scaled_wall_p50_s": _median(walls), "scaled_wall_max_s": max(walls) if walls else 0.0,
        "wall_p50_s": _median([o.wall for o in plain]),
        "samples": len(walls), "result": result,
    }
    if trace:
        detail["lstm_shapes"] = shape_table(traced_spans)
        detail["warnings"] = dict(sum((Counter(o.warnings) for _t, o in good), Counter()))
        with gzip.open(os.path.join(work, "spans.json.gz"), "wt") as fh:
            json.dump(traced_spans, fh)
    with open(os.path.join(work, "result.json"), "w") as fh:
        json.dump(detail, fh, indent=1, sort_keys=True)
    for name in os.listdir(work):
        if os.path.isdir(os.path.join(work, name)):
            shutil.rmtree(os.path.join(work, name))
    env = detail["environment"]
    sys.stderr.write("environment: %s\n" % json.dumps(env, sort_keys=True))
    if env["numba_kernels_active"]:
        sys.stderr.write("numba kernels active: do not compare with numpy-only runs\n")
    for p in problems + [p for _i, _t, o in ops for p in o.problems][:10]:
        sys.stderr.write("problem: %s\n" % p)
    print(json.dumps(result))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="train")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="tiny sizes for the smoke test; not comparable")
    parser.add_argument("--manifest", action="store_true",
                        help="print the BENCHMARK.json these definitions describe")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "soccersum", "__init__.py")):
        sys.stderr.write("perfbench: no soccersum sources under %s\n" % SRC)
        return 2
    sys.path.insert(0, SRC)
    usable = sorted(os.sched_getaffinity(0))
    # before numpy loads, so that its thread pools size themselves to one core
    os.sched_setaffinity(0, usable[:1])
    if args.manifest:
        print(json.dumps(manifest(), indent=2))
        return 0
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        sys.stderr.write("perfbench: unknown workload %r (have %s)\n"
                         % (args.workload, ", ".join(WORKLOADS)))
        return 2
    return run(args, usable)


if __name__ == "__main__":
    sys.exit(main())
