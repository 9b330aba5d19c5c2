"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload gpmetis-delaunay --seed 1 --seconds 35 --trace 0

Every partition call is ``repro.partition(graph, 64, method=..., seed=seed)``
on a graph from ``repro.graphs.load_dataset(..., seed=seed)``; one *pass*
is the workload's calls in order.  With ``--trace 0`` the run times a cold
set-up in this process, then warm passes filling ``--seconds``, then more
cold set-ups in fresh processes, and prints the end-to-end metrics.  It
samples the host-speed gauge (``speed.py``) next to every pass and set-up
and reports ``host_s`` and ``setup_s`` rescaled to the reference host.
With ``--trace 1`` it alternates untraced and traced passes for
``--seconds`` and prints the per-layer metrics, in raw host seconds.
Every returned partition is checked (see ``workloads.outcome``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the workload, seed, pass count, timings and library versions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import workloads

HERE = Path(__file__).resolve().parent

#: (name, unit, better) of every metric a ``--trace 0`` run prints.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("host_s", "s", "lower"),
    ("modeled_s", "s", "lower"),
    ("edge_cut", "edges", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
)

#: Cold set-ups per measuring run: this process plus fresh processes.
SETUP_SAMPLES = 3
#: Warm passes a measuring run makes at least, whatever ``--seconds`` says.
MIN_PASSES = 3
#: Untraced and traced passes a traced run makes at least, of each kind.
MIN_TRACE_PASSES = 2
PROBE_TIMEOUT_S = 120
#: Gauge readings taken right after each cold set-up; their median is the
#: host speed that set-up is rescaled by.
SETUP_READINGS = 3


class Tally:
    """Ops attempted and failed, and what went wrong."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, check: workloads.PassCheck) -> None:
        self.attempted += check.attempted
        self.failed += check.failed
        self.problems.extend(check.problems)


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "threads": {var: os.environ.get(var) for var in workloads.THREAD_ENV},
    }


def probe_setup(workload: workloads.Workload, seed: int, reference: list, tally: Tally):
    """One cold set-up in a fresh process; its seconds, or ``None`` if it
    failed.  Its calls count as ops and must match this process's pass 1."""
    n = len(workload.methods)
    cmd = [sys.executable, str(HERE / "probe.py"), "--workload", workload.name,
           "--scale", repr(workload.scale), "--seed", str(seed)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, cwd=workloads.ROOT)
    except subprocess.TimeoutExpired:
        proc = None
    tally.attempted += n
    if proc is None or proc.returncode != 0:
        tally.failed += n
        tally.problems.append(f"set-up probe failed: {proc.stderr[-2000:] if proc else 'timeout'}")
        return None
    data = json.loads(proc.stdout.strip().splitlines()[-1])
    for method, bad, out, ref in zip(workload.methods, data["call_failed"],
                                     data["outcomes"], reference):
        if bad or out != ref:
            tally.failed += 1
            tally.problems.append(f"{method}: set-up probe outcome differs from pass 1")
    tally.problems.extend(data["problems"])
    return data["setup_s"]


def end_to_end_metrics(setups, pass_seconds, readings, reference) -> dict:
    """``setups`` pairs each cold set-up's seconds with the gauge seconds
    measured right after it; ``readings[i]`` and ``readings[i + 1]`` are
    the gauge seconds measured right before and after warm pass ``i``."""
    from speed import REFERENCE_S

    passes = [s * REFERENCE_S * 2 / (before + after)
              for s, before, after in zip(pass_seconds, readings, readings[1:])]
    done = [out for out in reference if out is not None]
    return {
        "setup_s": statistics.median(s * REFERENCE_S / g for s, g in setups),
        "host_s": statistics.median(passes),
        "modeled_s": sum(out["modeled_s"] for out in done),
        "edge_cut": sum(out["cut"] for out in done),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def measure(workload: workloads.Workload, seed: int, seconds: float, trace: bool,
            setup_samples: int = SETUP_SAMPLES):
    """Run the workload; return ``(result line, details line)``."""
    setup = workloads.cold_setup(workload, seed)
    repro, graph = setup.repro, setup.graph
    tally = Tally()
    tally.add(setup.first_pass)
    # pass 1 is the reference every later call of the same seed must repeat
    reference = json.loads(json.dumps(setup.first_pass.outcomes))
    details = {
        "workload": workload.name, "dataset": workload.dataset,
        "scale": workload.scale, "k": workloads.K, "methods": list(workload.methods),
        "seed": seed, "trace": int(trace),
        "graph": {"vertices": graph.num_vertices, "edges": graph.num_edges,
                  "digest": graph.content_digest},
        "env": environment(),
    }

    def warm_pass():
        calls = workloads.run_pass(repro, graph, workload, seed)
        check = workloads.evaluate(graph, calls, reference)
        tally.add(check)
        return check.seconds

    def window_full(start, last_pass):
        # the next pass, if it takes as long as the last one, would overrun
        return time.perf_counter() - start + last_pass > seconds

    correct = True
    if not trace:
        import speed  # imports numpy, so only after the cold set-up

        gauge = speed.Gauge()

        def setup_speed():
            return statistics.median(gauge.sample() for _ in range(SETUP_READINGS))

        setups = [(setup.seconds, setup_speed())]
        start = time.perf_counter()
        pass_seconds, readings = [], [setups[0][1]]
        while len(pass_seconds) < MIN_PASSES or not window_full(start, pass_seconds[-1]):
            pass_seconds.append(warm_pass())
            readings.append(gauge.sample())
        # only a fresh process imports the package cold
        for _ in range(setup_samples - 1):
            sample = probe_setup(workload, seed, reference, tally)
            if sample is not None:
                setups.append((sample, setup_speed()))
        values = end_to_end_metrics(setups, pass_seconds, readings, reference)
        names = END_TO_END
        details.update(setups_s=setups, passes=len(pass_seconds),
                       pass_seconds=pass_seconds, gauge_seconds=readings)
    else:
        tracer = layers.Tracer()
        untraced, traced = [], []
        i = 0
        start, last = time.perf_counter(), 0.0
        while (len(untraced) < MIN_TRACE_PASSES or len(traced) < MIN_TRACE_PASSES
               or not window_full(start, last)):
            if i % 2 == 0:
                untraced.append(warm_pass())
                last = untraced[-1]
            else:
                tracer.install()
                try:
                    if not traced:
                        tracer.pass_id = "load"
                        again = repro.graphs.load_dataset(
                            workload.dataset, workload.scale, seed=seed)
                        if again.content_digest != graph.content_digest:
                            correct = False
                            tally.problems.append("load_dataset is not deterministic")
                    tracer.pass_id = i
                    calls = workloads.run_pass(repro, graph, workload, seed)
                finally:
                    tracer.uninstall()
                    tracer.pass_id = None
                check = workloads.evaluate(graph, calls, reference)
                tally.add(check)
                traced.append((i, check.seconds))
                last = check.seconds
            i += 1
        leftovers = tracer.leftovers()
        if leftovers:
            correct = False
            tally.problems.append(f"wrappers left installed: {leftovers}")
        values = layers.layer_metrics(
            tracer, traced, untraced, workloads.pass_counts(reference))
        names = layers.PER_LAYER
        details.update(untraced_passes=len(untraced), traced_passes=len(traced),
                       untraced_seconds=untraced, traced_seconds=[s for _, s in traced],
                       spans=len(tracer.spans))
    details["problems"] = tally.problems
    result = {
        "correct": correct and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, _ in names},
    }
    return result, details


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True,
                    help="drives both the generated graph and the partition seed")
    ap.add_argument("--seconds", type=float, default=35.0,
                    help="seconds of warm passes to measure (default 35)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: per-layer metrics from a traced run")
    args = ap.parse_args(argv)
    try:
        workloads.prepare_process()
    except workloads.MissingSource as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result, details = measure(
        workloads.WORKLOADS[args.workload], args.seed, args.seconds,
        bool(args.trace),
    )
    for problem in details["problems"]:
        print(problem, file=sys.stderr)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
