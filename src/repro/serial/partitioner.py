"""The serial multilevel partitioner (the paper's Metis baseline).

Coarsen with sequential HEM, bisect the coarsest graph recursively with
GGGP + FM, then project back level by level with greedy k-way refinement
— the three-phase structure of paper Sec. II.A.  All work is charged to
the single-core CPU model, making this the denominator of every speedup
in Fig. 5.
"""

from __future__ import annotations

import numpy as np

from ..engine import EngineRun, run_engine
from ..graphs.csr import CSRGraph
from ..graphs.metrics import edge_cut
from ..result import PartitionResult
from ..runtime.clock import SimClock
from ..runtime.machine import PAPER_MACHINE, MachineSpec
from ..runtime.trace import RefinementRecord, Trace
from .bisection import recursive_bisection
from .coarsen import coarsen_graph
from .kway import kway_refine
from .options import SerialOptions
from .project import project_partition

__all__ = ["SerialMetis"]


class SerialMetis:
    """Serial Metis-style multilevel k-way partitioner."""

    name = "metis"

    def __init__(
        self,
        options: SerialOptions | None = None,
        machine: MachineSpec | None = None,
    ) -> None:
        self.options = options or SerialOptions()
        self.machine = machine or PAPER_MACHINE

    def partition(self, graph: CSRGraph, k: int) -> PartitionResult:
        return run_engine(self, graph, k, self._run)

    def _run(self, graph: CSRGraph, k: int, clock: SimClock, trace: Trace) -> EngineRun:
        # A single-core engine has no faultable substrate (no device, pool
        # or MPI layer), but the harness attaches the injector anyway to
        # keep the option contract uniform — the plan simply never fires,
        # and metrics report that honestly.
        opts = self.options
        rng = np.random.default_rng(opts.seed)

        # Phase 1: coarsening.
        clock.set_phase("coarsening")
        levels, coarsest = coarsen_graph(
            graph, k, opts, clock=clock, cpu=self.machine.cpu, trace=trace, rng=rng
        )

        # Phase 2: initial partitioning on the coarsest graph.
        clock.set_phase("initpart")
        part = recursive_bisection(coarsest, k, opts, rng=rng)
        # Recursive bisection cost: each of the log2(k) tree levels sweeps
        # the whole coarsest graph a constant number of times (GGGP trials
        # + FM passes).
        sweeps = (opts.gggp_trials + opts.fm_passes) * max(1, int(np.ceil(np.log2(max(k, 2)))))
        bisect_sec = self.machine.cpu.edge_seconds(
            sweeps * coarsest.num_directed_edges,
            avg_degree=2 * coarsest.num_edges / max(1, coarsest.num_vertices),
        )
        clock.charge(
            "compute", bisect_sec,
            count=float(sweeps * coarsest.num_directed_edges),
            detail="recursive bisection",
        )
        hw = getattr(clock, "hw", None)
        if hw is not None:
            hw.record_cpu("edge", float(sweeps * coarsest.num_directed_edges),
                          bisect_sec, bisect_sec / self.machine.cpu.num_cores)

        # Phase 3: uncoarsening with greedy k-way refinement.
        clock.set_phase("uncoarsening")
        for level_idx in range(len(levels) - 1, -1, -1):
            level = levels[level_idx]
            part = project_partition(part, level.cmap)
            project_sec = self.machine.cpu.vertex_seconds(level.graph.num_vertices)
            clock.charge(
                "compute", project_sec,
                count=float(level.graph.num_vertices),
                detail=f"project level {level_idx}",
            )
            if hw is not None:
                hw.record_cpu("vertex", float(level.graph.num_vertices),
                              project_sec,
                              project_sec / self.machine.cpu.num_cores)
                # part[cmap] gathers one 8 B label per fine vertex.
                hw.record_random_bytes(8.0 * level.graph.num_vertices)
            cut_before = edge_cut(level.graph, part)
            part, passes = kway_refine(
                level.graph, part, k, ubfactor=opts.ubfactor,
                max_passes=opts.kway_passes, rng=rng,
            )
            cut_after = edge_cut(level.graph, part)
            for pi, pres in enumerate(passes):
                pass_sec = self.machine.cpu.edge_seconds(
                    pres.edge_scans,
                    avg_degree=2 * level.graph.num_edges
                    / max(1, level.graph.num_vertices),
                )
                clock.charge(
                    "compute", pass_sec,
                    count=float(pres.edge_scans),
                    detail=f"kway pass level {level_idx}",
                )
                if hw is not None:
                    hw.record_cpu("edge", float(pres.edge_scans), pass_sec,
                                  pass_sec / self.machine.cpu.num_cores)
                trace.refinements.append(
                    RefinementRecord(
                        level=level_idx, pass_index=pi,
                        moves_proposed=pres.moves_proposed,
                        moves_committed=pres.moves_committed,
                        cut_before=cut_before, cut_after=cut_after,
                        engine="cpu-serial",
                    )
                )

        return EngineRun(part)
