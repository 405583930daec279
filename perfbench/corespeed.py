"""Per-core speed reference, so that timings measure the program, not the host.

On a shared host each virtual core switches between a fast and a slow state
every few seconds, independently of the other core, as neighbours on the
same physical cores come and go.  On the 2-core Xeon VM the bounds were set
on the two states are 1.9x apart, and a four-second operation's wall time
varied with a coefficient of variation of 0.16 from the share of it spent in
the slow state.  Samplers measured on the other core, or between operations,
track that too poorly to correct it.

So one sampler process is pinned to each core a workload runs on.  Every
50 ms it runs a fixed reference unit (a 32x32 matrix-vector loop) and logs
the unit's CPU time, which does not count the time the operation sharing
the core holds it.  The mean unit time over an interval says how fast that
core ran; ``CoreSpeed.factor`` turns it into the factor that scales a
timing to the speed of an uncontended core (``REF_UNIT_S``).  Normalized
this way, the same operation's time varied with a coefficient of variation
of 0.03.  The samplers take about 3% of the core.

    python3 perfbench/corespeed.py OUT CPU    # one sampler (CoreSpeed starts it)
"""
from __future__ import annotations

import os
import subprocess
import sys
import time

# CPU time of one reference unit on an uncontended core of that VM (the
# fast state's mode; the slow state's is about 1.75 ms)
REF_UNIT_S = 0.92e-3
PERIOD_S = 0.05
MIN_SAMPLES = 5


class CoreSpeed:
    """One sampler per core in ``cpus``; ``close`` stops and reaps them."""

    def __init__(self, work: str, cpus: list):
        self.cpus = list(cpus)
        self.paths = [os.path.join(work, "speed-cpu%d.txt" % c) for c in self.cpus]
        self.procs = []
        try:
            for cpu, path in zip(self.cpus, self.paths):
                self.procs.append(subprocess.Popen(
                    [sys.executable, os.path.abspath(__file__), path, str(cpu)],
                    stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL))
            self._wait_for_samples()
        except BaseException:
            self.close()
            raise

    def _wait_for_samples(self, timeout_s: float = 60.0) -> None:
        deadline = time.perf_counter() + timeout_s
        while any(len(s) < MIN_SAMPLES for s in self._samples()):
            if any(p.poll() is not None for p in self.procs):
                raise RuntimeError("a core-speed sampler exited")
            if time.perf_counter() > deadline:
                raise RuntimeError("core-speed samplers logged nothing in %.0f s" % timeout_s)
            time.sleep(PERIOD_S)

    def _samples(self) -> list:
        """Per core: [(start, unit CPU seconds)] logged so far."""
        out = []
        for path in self.paths:
            rows = []
            if os.path.exists(path):
                with open(path) as fh:
                    for line in fh:
                        if line.endswith("\n"):  # the sampler may be mid-line
                            start, unit = line.split()
                            rows.append((float(start), float(unit)))
            out.append(rows)
        return out

    def factor(self, t0: float, t1: float, cpus: list) -> float:
        """REF_UNIT_S over the mean unit time logged on ``cpus`` between
        perf_counter times t0 and t1, averaged over those cores.  A short
        interval is widened until every core has MIN_SAMPLES units."""
        means = []
        for cpu, rows in zip(self.cpus, self._samples()):
            if cpu not in cpus:
                continue
            lo, hi = t0, t1
            while True:
                units = [u for t, u in rows if lo <= t <= hi]
                if len(units) >= MIN_SAMPLES or (lo <= rows[0][0] and hi >= rows[-1][0]):
                    break
                lo, hi = lo - PERIOD_S, hi + PERIOD_S
            means.append(sum(units) / len(units))
        return REF_UNIT_S / (sum(means) / len(means))

    def close(self) -> None:
        for p in self.procs:
            if p.poll() is None:
                p.kill()
        for p in self.procs:
            p.wait()
        self.procs = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


def _sample(path: str, cpu: int) -> None:
    """Log "start unit_cpu_seconds" every PERIOD_S until the parent exits."""
    os.sched_setaffinity(0, {cpu})
    import numpy as np
    rng = np.random.default_rng(0)
    a = rng.standard_normal((32, 32))
    x0 = rng.standard_normal(32)
    parent = os.getppid()
    with open(path, "w", buffering=1) as out:
        while os.getppid() == parent:
            start = time.perf_counter()
            c0 = time.process_time()
            v = x0
            for _ in range(600):
                v = np.tanh(a @ v)
            out.write("%.6f %.7f\n" % (start, time.process_time() - c0))
            time.sleep(PERIOD_S)


if __name__ == "__main__":
    _sample(sys.argv[1], int(sys.argv[2]))
