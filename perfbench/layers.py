"""Outside-in tracing: spans around the calls into each layer.

The traced run wraps the public functions each layer of ``repro`` exposes,
from these files, without changing ``src/``.  A wrapper records a span
(name, start, end, parent, pass id) in memory; a layer's *self* time is
its span's duration minus the time its child spans cover.  Wrappers are
installed only around traced passes and :meth:`Tracer.uninstall` puts
every original attribute back.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from collections import defaultdict

#: (span name, defining module, attribute, replace every alias).
#: A function is wrapped at every module global of ``repro.*`` bound to
#: it, so each caller resolves the wrapper whatever name it imported;
#: ``Class.method`` targets are wrapped on the class.  ``trace_cut`` is
#: only the ``edge_cut`` that the GP-metis driver calls twice per
#: uncoarsening level, not every ``edge_cut`` in the package.
TARGETS: tuple[tuple[str, str, str, bool], ...] = (
    ("service.request", "repro.service.request", "PartitionRequest.run", False),
    ("obs.run_hooks", "repro.obs.hooks", "profile_run", True),
    ("obs.run_hooks", "repro.obs.hooks", "finish_run", True),
    ("gpmetis.run", "repro.gpmetis.hybrid", "run_hybrid", True),
    ("gpmetis.match", "repro.gpmetis.kernels.matching", "gpu_match", True),
    ("gpmetis.cmap", "repro.gpmetis.kernels.cmap", "gpu_build_cmap", True),
    ("gpmetis.contract", "repro.gpmetis.kernels.contraction", "gpu_contract", True),
    ("gpmetis.project", "repro.gpmetis.kernels.projection", "gpu_project", True),
    ("gpmetis.refine", "repro.gpmetis.kernels.refinement", "gpu_refine_level", True),
    ("gpmetis.trace_cut", "repro.gpmetis.hybrid", "edge_cut", False),
    ("gpusim.warp_transactions", "repro.gpusim.memory", "warp_transactions", True),
    ("gpusim.transfer", "repro.gpusim.transfer", "h2d", True),
    ("gpusim.transfer", "repro.gpusim.transfer", "d2h", True),
    ("gpusim.transfer", "repro.gpusim.transfer", "transfer_graph_to_device", True),
    ("gpusim.transfer", "repro.gpusim.streams", "h2d_async", True),
    ("gpusim.transfer", "repro.gpusim.streams", "d2h_async", True),
    ("mtmetis.run", "repro.mtmetis.partitioner", "MtMetis.partition", False),
    ("mtmetis.coarsen", "repro.mtmetis.partitioner", "MtMetis.coarsen", False),
    ("mtmetis.initpart", "repro.mtmetis.initpart", "parallel_recursive_bisection", True),
    ("mtmetis.uncoarsen", "repro.mtmetis.partitioner", "MtMetis.uncoarsen", False),
    ("mtmetis.lockfree_match", "repro.mtmetis.matching", "lockfree_match", True),
    ("mtmetis.propose_moves", "repro.mtmetis.refinement", "propose_moves", True),
    ("serial.run", "repro.serial.partitioner", "SerialMetis.partition", False),
    ("serial.sequential_match", "repro.serial.matching", "sequential_match", True),
    ("serial.grow_region", "repro.serial.gggp", "grow_region", True),
    ("serial.kway_connectivity", "repro.serial.kway", "kway_connectivity", True),
    ("parmetis.run", "repro.parmetis.partitioner", "ParMetis.partition", False),
    ("parmetis.ghost_exchange", "repro.parmetis.distgraph", "DistGraph.ghost_exchange_payload", False),
    ("segments.segmented_argmax", "repro._segments", "segmented_argmax", True),
    ("segments.aggregate_arcs", "repro._segments", "aggregate_arcs", True),
    ("graphs.load_dataset", "repro.graphs.datasets", "load_dataset", True),
)

SPAN_NAMES = tuple(dict.fromkeys(t[0] for t in TARGETS))

#: The GP-metis phases of ``SimClock.seconds_by_phase`` reported one by one.
PHASES = (
    "transfer", "coarsening-gpu", "coarsening-cpu",
    "initpart", "uncoarsening-cpu", "uncoarsening-gpu",
)
ENGINES = ("metis", "mt-metis", "parmetis", "gp-metis")

#: Every per-layer metric the traced run prints: (name, unit, better).
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    *(
        metric
        for span in SPAN_NAMES
        for metric in ((f"{span}.host_s", "s", "lower"), (f"{span}.calls", "count", "lower"))
    ),
    ("gpmetis.levels_gpu", "count", "higher"),
    ("gpmetis.levels_cpu", "count", "lower"),
    ("gpmetis.match.conflict_ratio", "ratio", "lower"),
    ("gpmetis.refine.commit_ratio", "ratio", "higher"),
    ("gpusim.host_us_per_ktxn", "us/ktxn", "lower"),
    ("gpusim.launches", "count", "lower"),
    ("gpusim.mem_txn", "count", "lower"),
    ("gpusim.coalescing", "ratio", "higher"),
    ("gpusim.atomic_conflicts", "count", "lower"),
    ("gpusim.h2d_bytes", "bytes", "lower"),
    ("gpusim.d2h_bytes", "bytes", "lower"),
    ("gpusim.peak_device_mb", "MiB", "lower"),
    ("runtime.mpi.messages", "count", "lower"),
    ("runtime.mpi.bytes", "bytes", "lower"),
    *((f"runtime.phase.{p}_s", "s", "lower") for p in PHASES),
    *((f"runtime.engine.{e}.modeled_s", "s", "lower") for e in ENGINES),
    ("trace.overhead_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
)

_MARK = "_perfbench_span"


def _repro_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "repro" or name.startswith("repro."))]


class Tracer:
    """Installs span-recording wrappers and turns the spans into per-pass
    self times.  ``pass_id`` labels the spans recorded while it is set."""

    def __init__(self) -> None:
        #: [name, start, end, parent index (-1 at top level), pass id]
        self.spans: list[list] = []
        self.pass_id = None
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object, bool]] = []

    # ------------------------------------------------------------------
    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.pass_id])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx][2] = time.perf_counter()
                stack.pop()

        setattr(wrapper, _MARK, name)
        return wrapper

    def install(self) -> None:
        """Wrap every target at every place a caller resolves it."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        modules = _repro_modules()
        for name, modname, attr, everywhere in TARGETS:
            owner = importlib.import_module(modname)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            sites = [(owner, leaf)]
            if everywhere:
                sites = [(m, key) for m in modules
                         for key, value in vars(m).items() if value is original]
            wrapper = self._wrap(name, original)
            for site_owner, key in sites:
                self._installed.append((site_owner, key, original, key in vars(site_owner)))
                setattr(site_owner, key, wrapper)

    def uninstall(self) -> None:
        """Put every original attribute back, in reverse order."""
        while self._installed:
            owner, key, original, had_own = self._installed.pop()
            if had_own:
                setattr(owner, key, original)
            else:
                delattr(owner, key)

    @staticmethod
    def leftovers() -> list[str]:
        """Every wrapper still reachable from a ``repro`` module or a
        wrapped class (empty when the program is back to its own code)."""
        found = []
        for m in _repro_modules():
            for key, value in list(vars(m).items()):
                if hasattr(value, _MARK):
                    found.append(f"{m.__name__}.{key}")
                if isinstance(value, type) and getattr(value, "__module__", "") == m.__name__:
                    found.extend(f"{m.__name__}.{key}.{k}" for k, v in vars(value).items()
                                 if hasattr(v, _MARK))
        return found

    # ------------------------------------------------------------------
    def profile(self) -> dict:
        """``{pass_id: {span name: [self s, calls]}}``; self time is the
        span's duration minus its direct children's."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = defaultdict(lambda: defaultdict(lambda: [0.0, 0]))
        for i, (name, start, end, parent, pid) in enumerate(self.spans):
            row = out[pid][name]
            row[0] += (end - start) - child[i]
            row[1] += 1
        return out


def layer_metrics(
    tracer: Tracer,
    traced_passes: list[tuple[object, float]],
    untraced_seconds: list[float],
    counts: dict,
) -> dict[str, float]:
    """The per-layer metric values.

    ``traced_passes`` are (pass id, pass seconds); host metrics are the
    median over them.  ``counts`` are the deterministic per-layer numbers
    of one pass, summed over its calls (peak device memory: maximum).
    """
    prof = tracer.profile()
    values: dict[str, float] = {}
    for span in SPAN_NAMES:
        # the graph is loaded once, outside the passes, under pass id "load"
        pids = ["load"] if span == "graphs.load_dataset" else [p for p, _ in traced_passes]
        rows = [prof[pid].get(span, (0.0, 0)) for pid in pids]
        values[f"{span}.host_s"] = _median([r[0] for r in rows])
        values[f"{span}.calls"] = _median([r[1] for r in rows])

    values["gpmetis.levels_gpu"] = counts.get("gpmetis.levels_gpu", 0)
    values["gpmetis.levels_cpu"] = counts.get("gpmetis.levels_cpu", 0)
    values["gpmetis.match.conflict_ratio"] = _ratio(
        counts.get("gpmetis.match.conflicts", 0), counts.get("gpmetis.match.pairs", 0))
    values["gpmetis.refine.commit_ratio"] = _ratio(
        counts.get("gpmetis.refine.committed", 0), counts.get("gpmetis.refine.proposed", 0))
    run_s: dict = defaultdict(float)
    for name, start, end, _, pid in tracer.spans:
        if name == "gpmetis.run":
            run_s[pid] += end - start
    ktxn = counts.get("gpusim.mem_txn", 0.0) / 1000.0
    values["gpusim.host_us_per_ktxn"] = _median([
        _ratio(run_s[pid] * 1e6, ktxn) for pid, _ in traced_passes
    ])
    for key in ("launches", "mem_txn", "atomic_conflicts", "h2d_bytes", "d2h_bytes"):
        values[f"gpusim.{key}"] = counts.get(f"gpusim.{key}", 0)
    values["gpusim.coalescing"] = _ratio(
        counts.get("gpusim.bytes_requested", 0.0), counts.get("gpusim.bytes_moved", 0.0))
    values["gpusim.peak_device_mb"] = counts.get("gpusim.peak_device_bytes", 0) / 2**20
    for key in ("messages", "bytes"):
        values[f"runtime.mpi.{key}"] = counts.get(f"runtime.mpi.{key}", 0)
    for p in PHASES:
        values[f"runtime.phase.{p}_s"] = counts.get(f"runtime.phase.{p}_s", 0.0)
    for e in ENGINES:
        values[f"runtime.engine.{e}.modeled_s"] = counts.get(f"runtime.engine.{e}.modeled_s", 0.0)

    traced = [s for _, s in traced_passes]
    values["trace.overhead_s"] = _median(traced) - _median(untraced_seconds)
    values["trace.unattributed_s"] = _median([
        seconds - sum(row[0] for row in prof[pid].values())
        for pid, seconds in traced_passes
    ])
    return values


def _median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
