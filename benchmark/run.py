"""heckelab benchmark: one command, three workloads, exact outputs.

    python3 benchmark/run.py --workload {cli-verify,coset-tables,query-stream} \\
        --seed N --seconds S --trace {0,1}

Run it from the repository root or anywhere else; it finds the package in
``src/`` next to this directory and never uses an installed copy.  It
prints a readable summary and, as its last line, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of an outside-in traced
run with ``--trace 1``.  A full record with the environment and every sample
goes to ``.bench_out/``.  The exit code is 0 only when every output passed
its exactness gate.  Every end-to-end time is CPU time scaled to a
reference host speed (hostspeed.py).  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time

from hostspeed import HostSpeed, stamp

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

# (name, unit) of every end-to-end metric, in report order
END_TO_END = (
    ("setup_s", "s"),
    ("iteration_s", "s"),
    ("queries_per_s", "1/s"),
    ("query_p50_ms", "ms"),
    ("query_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def environment(host) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "git_sha": git_sha(),
        "host_speed": host.summary(),
    }


def git_sha():
    """HEAD of the checkout, read from .git without running git; None when the
    checkout is not a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def summary(values) -> dict:
    """Median, quartiles and count of a sample."""
    values = sorted(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def tail(latencies, percentile):
    """Nearest-rank percentile and the number of samples beyond it; the
    maximum when the workload fixes no percentile."""
    values = sorted(latencies)
    if percentile is None:
        return values[-1], "max", 0
    rank = max(1, math.ceil(percentile / 100 * len(values)))
    return values[rank - 1], f"p{percentile}", len(values) - rank


def peak_rss_mb() -> float:
    """Peak resident set of this process or of any child it waited for."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024


def timed_setup(workload) -> list:
    """(wall start, wall end, CPU seconds) of each set-up."""
    times = []
    for _ in range(workload.setup_repeats):
        t0, c0 = stamp()
        workload.setup()
        t1, c1 = stamp()
        times.append((t0, t1, c1 - c0))
    return times


def measure(workload, seconds, min_iterations=1):
    """Iterations until ``seconds`` of wall time have passed and at least
    ``min_iterations`` ran: (wall start, wall end, CPU seconds) of each
    iteration, and every operation."""
    iterations, ops = [], []
    start = time.perf_counter()
    while len(iterations) < min_iterations or time.perf_counter() - start < seconds:
        workload.prepare()
        t0, c0 = stamp()
        ops.extend(workload.iteration())
        t1, c1 = stamp()
        iterations.append((t0, t1, c1 - c0))
    return iterations, ops


def run(workload, seconds, trace, out=print):
    """Set up, measure and check one workload instance; the result object."""
    from tracer import Tracer
    from workloads import OUT

    os.makedirs(OUT, exist_ok=True)
    workload_name, seed = workload.name, workload.seed
    out(f"heckelab benchmark: workload {workload_name}, seed {seed}, "
        f"{seconds} s, trace {trace}")

    traced_ops = []
    with HostSpeed() as host:
        if not trace:
            setups = timed_setup(workload)
            iterations, ops = measure(workload, seconds, workload.min_iterations)
        else:
            tracer = Tracer()
            # The set-up runs traced only so that the keys it fills count as
            # seen: misses then mean keys first asked for in the replay.
            with tracer:
                setups = timed_setup(workload)
            tracer.reset()
            # The untraced half gives the reference wall time of the same
            # work; the summary lines below describe it.
            iterations, ops = measure(workload, seconds / 2)
            with tracer:
                t0 = time.perf_counter()
                traced_ops = workload.replay(tracer, len(iterations))
                traced_wall = time.perf_counter() - t0
    env = environment(host)
    out("environment " + json.dumps(env, sort_keys=True))
    if trace:
        untraced_wall = sum(t1 - t0 for t0, t1, _ in iterations)
        overhead = traced_wall - untraced_wall
        spans_path = os.path.join(OUT, f"spans-{workload_name}-seed{seed}.tsv")
        tracer.write_spans(spans_path)
        if [op.digest for op in traced_ops] != [op.digest for op in ops]:
            out("traced outputs differ from the untraced outputs")
            for op in traced_ops:
                op.ok = False

    attempted = len(ops) + len(traced_ops)
    failed = sum(not op.ok for op in ops + traced_ops)
    setup_times = [host.scaled(*s) for s in setups]
    times = [host.scaled(*i) for i in iterations]
    latencies = [host.scaled(op.start, op.end, op.cpu_s) for op in ops]
    it = summary(times)
    lat = summary(latencies)
    tail_value, tail_name, beyond = tail(latencies, workload.tail_percentile)
    end_to_end = {
        "setup_s": statistics.median(setup_times),
        "iteration_s": it["median"],
        "queries_per_s": len(latencies) / sum(times),
        "query_p50_ms": lat["median"] * 1e3,
        "query_tail_ms": tail_value * 1e3,
        "peak_rss_mb": peak_rss_mb(),
    }
    raw = statistics.median(t1 - t0 for t0, t1, _ in iterations)
    out(f"setup_s        {end_to_end['setup_s']:.4f} s  (median of {len(setup_times)} set-ups"
        + (", traced)" if trace else ")"))
    out(f"iteration_s    {it['median']:.4f} s  (q1 {it['q1']:.4f}, q3 {it['q3']:.4f}, "
        f"n={it['n']} iterations; median wall time {raw:.4f} s)")
    out(f"queries_per_s  {end_to_end['queries_per_s']:.4f} 1/s  ({len(latencies)} operations)")
    out(f"query_p50_ms   {end_to_end['query_p50_ms']:.3f} ms  (q1 {lat['q1'] * 1e3:.3f}, "
        f"q3 {lat['q3'] * 1e3:.3f}, n={lat['n']})")
    out(f"query_tail_ms  {end_to_end['query_tail_ms']:.3f} ms  ({tail_name}, "
        f"{beyond} samples beyond it)")
    out(f"peak_rss_mb    {end_to_end['peak_rss_mb']:.1f} MB")
    out(f"failed_frac    {failed / attempted:.4f}  ({failed} of {attempted} operations)")

    if trace:
        metrics = tracer.metrics(overhead)
        out(f"traced wall {traced_wall:.3f} s, untraced {untraced_wall:.3f} s, "
            f"{len(tracer.spans)} spans kept ({tracer.dropped_spans} dropped) in {spans_path}")
        for line in split_lines(tracer, metrics, untraced_wall):
            out(line)
    else:
        metrics = {name: {"value": end_to_end[name], "unit": unit} for name, unit in END_TO_END}

    record = {
        "workload": workload_name, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": env, "host_samples": host.samples,
        "setups": setups, "iterations": iterations,
        "ops": [[op.start, op.end, op.cpu_s] for op in ops],
        "setup_s": setup_times, "iteration_s": times, "latencies_s": latencies,
        "iteration": it, "latency": lat, "tail": {"name": tail_name, "beyond": beyond},
        "attempted": attempted, "failed": failed, "metrics": metrics,
    }
    path = os.path.join(OUT, f"result-{workload_name}-seed{seed}-trace{trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def split_lines(tracer, metrics, untraced_wall):
    """The layer splits the traced run is expected to reproduce."""
    v = {name: m["value"] for name, m in metrics.items()}

    def share(a, b):
        return f"{a / b:.2f}" if b else "n/a"

    inside = nested_time(tracer.spans, "hecke.structure_constants", "kazhdan.verify_algebra_map")
    yield ("split: structure_constants.incl_s inside verify_algebra_map / "
           "verify_algebra_map.incl_s = " + share(inside, v["kazhdan.verify_algebra_map.incl_s"]))
    yield ("split: (degree.incl_s + orbit_table.incl_s) / traced wall = "
           + share(v["hecke.degree.incl_s"] + v["hecke.orbit_table.incl_s"],
                   untraced_wall + v["trace.overhead_s"]))
    yield f"split: structure_constants.misses = {v['hecke.structure_constants.misses']}"


def nested_time(spans, child, ancestor) -> float:
    """Total time of the ``child`` spans that ran inside an ``ancestor`` span."""
    parent_of = {sid: parent for sid, parent, _, _, _, _ in spans}
    name_of = {sid: name for sid, _, _, name, _, _ in spans}
    total = 0.0
    for _, parent, _, name, t0, t1 in spans:
        if name != child:
            continue
        while parent:
            if name_of.get(parent) == ancestor:
                total += t1 - t0
                break
            parent = parent_of.get(parent, 0)
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["cli-verify", "coset-tables", "query-stream"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "heckelab", "__init__.py")):
        print(f"error: no heckelab package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, BENCH_DIR]
    from workloads import WORKLOADS

    result = run(WORKLOADS[args.workload](args.seed), args.seconds, args.trace)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
