"""Host speed monitor: a clock that does not drift with the host.

On a shared host the CPU this benchmark gets runs at different speeds from
second to second: the same code takes 1.0x or 0.6x as long, and the virtual
CPU is at times not run at all.  So the benchmark times all work in CPU time,
which leaves out the periods the process is not run, and a helper process
times a fixed probe of Fraction arithmetic every ``PERIOD_S`` on the same CPU
as the work: the run is pinned to one CPU.  A timed interval of the workload
is then scaled by ``REFERENCE_S`` over the mean probe time from ``WINDOW_S``
before it to ``WINDOW_S`` after it: the result is the CPU time the same work
would take on a host where the probe takes ``REFERENCE_S``.  The probe is
plain standard-library code, so a change to heckelab cannot move it.

    with HostSpeed() as host:
        t0, c0 = stamp()
        work()
        t1, c1 = stamp()
    seconds = host.scaled(t0, t1, c1 - c0)

Run as a script, this file is the helper: it samples until its standard input
closes, then writes its samples as JSON to standard output.
"""

from __future__ import annotations

import json
import os
import resource
import select
import statistics
import subprocess
import sys
import time
from fractions import Fraction

PERIOD_S = 0.025  # time between probes
WINDOW_S = 0.03  # probes this long before and after an interval count for it
REFERENCE_S = 0.001  # a round figure; the probe takes 0.65-1.2 ms on a 2-CPU Xeon VM


def probe() -> float:
    """CPU seconds of a fixed piece of Fraction arithmetic, about 1.2 ms."""
    c0 = time.process_time()
    x = Fraction(3, 7)
    for _ in range(200):
        x = x * Fraction(5, 3) + 1
    return time.process_time() - c0


def stamp():
    """(monotonic wall time, CPU time of this process and of its reaped
    children).  Subtract two stamps to time a piece of work."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = time.process_time() + children.ru_utime + children.ru_stime
    return time.perf_counter(), cpu


class HostSpeed:
    """The helper process, from start to end of a run.  Enter before the first
    timed work and leave after the last; ``scaled`` works after leaving.
    Inside, this process and every process it starts run on one CPU."""

    def __init__(self):
        self.proc = None
        self.cpus = None
        self.samples = []  # (wall time at the probe's middle, probe CPU seconds)

    def __enter__(self):
        if hasattr(os, "sched_setaffinity"):
            self.cpus = os.sched_getaffinity(0)
            os.sched_setaffinity(0, {max(self.cpus)})
        self.proc = subprocess.Popen([sys.executable, os.path.abspath(__file__)],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self.proc.stdout.readline()  # the first probe has run
        return self

    def __exit__(self, *exc):
        proc = self.proc
        try:
            proc.stdin.close()
            self.samples = [tuple(s) for s in json.loads(proc.stdout.read())]
        finally:
            if proc.poll() is None:
                try:
                    proc.wait(timeout=5)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
            proc.stdout.close()
            if self.cpus:
                os.sched_setaffinity(0, self.cpus)
        return False

    def probe_s(self, t0: float, t1: float) -> float:
        """Mean probe time from ``WINDOW_S`` before t0 to ``WINDOW_S`` after
        t1, or the nearest probe when none falls there."""
        near = [c for t, c in self.samples if t0 - WINDOW_S <= t <= t1 + WINDOW_S]
        if not near:
            mid = (t0 + t1) / 2
            near = [min(self.samples, key=lambda s: abs(s[0] - mid))[1]]
        return statistics.fmean(near)

    def scaled(self, t0: float, t1: float, cpu_s: float) -> float:
        """CPU seconds spent between wall times t0 and t1, at reference speed."""
        return cpu_s * REFERENCE_S / self.probe_s(t0, t1)

    def summary(self) -> dict:
        probes = [c for _, c in self.samples]
        return {"probes": len(probes), "probe_median_s": statistics.median(probes),
                "probe_min_s": min(probes), "probe_max_s": max(probes),
                "reference_s": REFERENCE_S, "period_s": PERIOD_S, "window_s": WINDOW_S,
                "cpu": max(self.cpus) if self.cpus else None}


def main():
    samples = []
    while True:
        t0 = time.perf_counter()
        cpu = probe()
        samples.append(((t0 + time.perf_counter()) / 2, cpu))
        if len(samples) == 1:
            print("ready", flush=True)
        readable, _, _ = select.select([sys.stdin], [], [], PERIOD_S)
        if readable and not sys.stdin.buffer.read1(4096):
            break
    json.dump(samples, sys.stdout)


if __name__ == "__main__":
    main()
