"""The benchmark's workloads, the partition pass it times, and the checks
every returned partition must pass.

Only the standard library is imported at module level: :func:`cold_setup`
times the first ``import repro`` of the process, so neither numpy nor the
package may be loaded before it runs.
"""

from __future__ import annotations

import gc
import hashlib
import os
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

#: The paper's protocol: every run partitions into 64 parts.
K = 64

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: BLAS/OpenMP pools are pinned to one thread so host time does not
#: depend on how many cores a numerical library decides to grab.
THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class MissingSource(RuntimeError):
    """The checkout holds no ``src/repro`` package to benchmark."""


def prepare_process() -> None:
    """Pin thread pools and put the checkout's ``src/`` first on the path.

    Must run before numpy is imported.  Raises :class:`MissingSource`
    when the package source is absent, so the benchmark never measures
    some other installed copy of ``repro``.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise MissingSource(f"no package source at {SRC / 'repro'}")
    for var in THREAD_ENV:
        os.environ[var] = "1"
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


@dataclass(frozen=True)
class Workload:
    """One paper graph, the engines run on it, and why it is here."""

    name: str
    dataset: str
    scale: float
    methods: tuple[str, ...]
    why: str


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "gpmetis-delaunay", "delaunay", 0.1, ("gp-metis",),
            "Sparse low-degree mesh: GPU coarsening (match, cmap, contract and "
            "their warp_transactions accounting) is a third of each GP-metis "
            "pass, as much as refinement.",
        ),
        Workload(
            "cpu-engines-roads", "usa_roads", 0.001,
            ("metis", "mt-metis", "parmetis"),
            "The CPU comparators on a road network, no GPU layer: bypass "
            "workload for gpmetis/gpusim changes; carries ParMetis ghost "
            "exchange and serial matching.",
        ),
    )
}


@dataclass
class Call:
    """One ``repro.partition`` call: its host seconds and what it returned."""

    method: str
    seconds: float
    result: object | None = None
    error: str | None = None


def run_pass(repro, graph, workload: Workload, seed: int) -> list[Call]:
    """Run the workload's partition calls once, timing each with
    ``perf_counter``.  A call that raises is recorded, not fatal."""
    gc.collect()
    calls = []
    for method in workload.methods:
        t0 = time.perf_counter()
        try:
            res = repro.partition(graph, K, method=method, seed=seed)
        except Exception:  # counted as a failed op by evaluate()
            calls.append(
                Call(method, time.perf_counter() - t0, error=traceback.format_exc())
            )
            continue
        calls.append(Call(method, time.perf_counter() - t0, result=res))
    return calls


def part_digest(part) -> str:
    import numpy as np

    return hashlib.sha256(np.ascontiguousarray(part, dtype=np.int64).tobytes()).hexdigest()


def layer_counts(res) -> dict:
    """The deterministic per-layer numbers one result already carries:
    modeled seconds by phase and engine, device and MPI statistics, and
    the GPU matching/refinement records.  JSON-native values only."""
    counts = {f"runtime.phase.{p}_s": s for p, s in sorted(res.clock.seconds_by_phase().items())}
    counts[f"runtime.engine.{res.method}.modeled_s"] = res.modeled_seconds
    ex = res.extras
    stats = ex.get("device_stats")
    if stats is not None:
        kernels = stats.kernels.values()
        counts.update({
            "gpmetis.levels_gpu": int(ex["gpu_levels"]),
            "gpmetis.levels_cpu": int(ex["cpu_levels"]),
            "gpusim.launches": int(stats.total_launches),
            "gpusim.mem_txn": sum(k.memory_transactions for k in kernels),
            "gpusim.bytes_requested": sum(k.bytes_requested for k in kernels),
            "gpusim.bytes_moved": sum(k.bytes_moved for k in kernels),
            "gpusim.atomic_conflicts": sum(k.atomic_conflicts for k in kernels),
            "gpusim.h2d_bytes": int(stats.h2d_bytes),
            "gpusim.d2h_bytes": int(stats.d2h_bytes),
            "gpusim.peak_device_bytes": int(stats.peak_memory_bytes),
        })
    gpu_levels = [r for r in res.trace.levels if r.engine == "gpu"]
    gpu_refs = [r for r in res.trace.refinements if r.engine == "gpu"]
    if gpu_levels or gpu_refs:
        counts.update({
            "gpmetis.match.pairs": sum(r.matched_pairs for r in gpu_levels),
            "gpmetis.match.conflicts": sum(r.conflicts for r in gpu_levels),
            "gpmetis.refine.proposed": sum(r.moves_proposed for r in gpu_refs),
            "gpmetis.refine.committed": sum(r.moves_committed for r in gpu_refs),
        })
    if "messages" in ex:
        counts["runtime.mpi.messages"] = int(ex["messages"])
        counts["runtime.mpi.bytes"] = int(ex["message_bytes"])
    # numpy scalars -> Python numbers, so outcomes survive a JSON round trip
    return {key: value.item() if hasattr(value, "item") else value
            for key, value in counts.items()}


def outcome(graph, call: Call) -> tuple[dict | None, list[str]]:
    """The call's deterministic outcome and the checks it fails.

    The outcome is ``None`` when the call raised or returned a vector
    that is not a k-way labelling of the graph.
    """
    import numpy as np

    from repro.api import resolve_options
    from repro.graphs.metrics import edge_cut, imbalance

    if call.result is None:
        return None, [f"{call.method} raised:\n{call.error}"]
    part = np.asarray(call.result.part)
    n = graph.num_vertices
    if part.shape != (n,):
        return None, [f"{call.method}: part has shape {part.shape}, expected ({n},)"]
    if not np.issubdtype(part.dtype, np.integer):
        return None, [f"{call.method}: part has dtype {part.dtype}"]
    if n and (part.min() < 0 or part.max() >= K):
        return None, [f"{call.method}: labels outside [0, {K})"]
    problems = []
    ub = resolve_options(call.method).ubfactor
    imb = float(imbalance(graph, part, K))
    if imb > ub:
        problems.append(f"{call.method}: imbalance {imb!r} exceeds ubfactor {ub}")
    out = {
        "method": call.method,
        "digest": part_digest(part),
        "modeled_s": float(call.result.modeled_seconds),
        "cut": int(edge_cut(graph, part)),
        "counts": layer_counts(call.result),
    }
    return out, problems


@dataclass
class PassCheck:
    """The checked outcome of one pass."""

    seconds: float
    outcomes: list
    call_failed: list
    problems: list

    @property
    def attempted(self) -> int:
        return len(self.call_failed)

    @property
    def failed(self) -> int:
        return sum(self.call_failed)


def evaluate(graph, calls: list[Call], reference: list | None) -> PassCheck:
    """Check every call of a pass.  With a ``reference`` (pass 1's
    outcomes), a call whose outcome differs is non-deterministic and
    counts as failed too."""
    outcomes, problems, call_failed = [], [], []
    for i, call in enumerate(calls):
        out, bad = outcome(graph, call)
        if reference is not None and out is not None and out != reference[i]:
            bad.append(f"{call.method}: outcome differs from pass 1 for the same seed")
        outcomes.append(out)
        problems.extend(bad)
        call_failed.append(bool(bad))
    return PassCheck(sum(c.seconds for c in calls), outcomes, call_failed, problems)


def pass_counts(outcomes: list) -> dict:
    """The per-layer counts of a pass: summed over its calls, except peak
    device memory, which is the maximum."""
    total: dict = {}
    for out in outcomes:
        if out is None:
            continue
        for key, value in out["counts"].items():
            if key == "gpusim.peak_device_bytes":
                total[key] = max(total.get(key, 0), value)
            else:
                total[key] = total.get(key, 0) + value
    return total


@dataclass
class Setup:
    """A cold start: first import, graph generation and the first pass."""

    repro: object
    graph: object
    seconds: float
    first_pass: PassCheck


def cold_setup(workload: Workload, seed: int) -> Setup:
    """Import the package, build the workload's graph from ``seed`` and run
    the first (cold) pass, timing all three.  Call once per process."""
    t0 = time.perf_counter()
    import repro

    graph = repro.graphs.load_dataset(workload.dataset, workload.scale, seed=seed)
    calls = run_pass(repro, graph, workload, seed)
    seconds = time.perf_counter() - t0
    return Setup(repro, graph, seconds, evaluate(graph, calls, None))
