"""The mt-metis driver: multilevel partitioning on the thread-pool model.

Phases (paper Sec. II.C):

* **coarsening** — block vertex ownership, lock-free two-round matching
  (one retry round for conflicted vertices), threaded contraction;
* **initial partitioning** — thread-parallel recursive bisection
  (best-of-threads at each tree node);
* **uncoarsening** — projection plus direction-alternating buffered
  refinement; a final rebalance guarantees the 3 % tolerance at the
  finest level.
"""

from __future__ import annotations

import numpy as np

from ..engine import EngineRun, run_engine
from ..graphs.csr import CSRGraph
from ..graphs.metrics import edge_cut
from ..obs.spans import clock_span
from ..result import PartitionResult
from ..runtime.clock import SimClock
from ..runtime.machine import PAPER_MACHINE, MachineSpec
from ..runtime.threads import ThreadPoolSim, block_ownership
from ..runtime.trace import LevelRecord, RefinementRecord, Trace
from ..serial.coarsen import CoarseningLevel
from ..serial.kway import enforce_balance
from ..serial.project import project_partition
from .contraction import threaded_contract
from .initpart import parallel_recursive_bisection
from .matching import lockfree_match
from .options import MtMetisOptions
from .refinement import refine_level

__all__ = ["MtMetis"]


class MtMetis:
    """Shared-memory parallel multilevel k-way partitioner (mt-metis)."""

    name = "mt-metis"

    def __init__(
        self,
        options: MtMetisOptions | None = None,
        machine: MachineSpec | None = None,
    ) -> None:
        self.options = options or MtMetisOptions()
        self.machine = machine or PAPER_MACHINE

    # ------------------------------------------------------------------
    def coarsen(
        self,
        graph: CSRGraph,
        k: int,
        pool: ThreadPoolSim,
        trace: Trace,
        rng: np.random.Generator,
        target: int | None = None,
    ) -> tuple[list[CoarseningLevel], CSRGraph]:
        """The threaded coarsening loop (also reused by GP-metis's CPU stage)."""
        opts = self.options
        target = target if target is not None else opts.coarsen_target(k)
        levels: list[CoarseningLevel] = []
        current = graph
        level_idx = 0
        while current.num_vertices > target:
            ownership = block_ownership(current.num_vertices, opts.num_threads)

            def batch_maker(items, _own=ownership):
                return pool.lockstep_batches(items, _own[items])

            with clock_span(
                pool.clock, f"level {level_idx}", category="level",
                engine="cpu-threads", num_vertices=current.num_vertices,
                num_edges=current.num_edges,
            ):
                match, mstats = lockfree_match(
                    current,
                    pool.lockstep_batches(
                        np.arange(current.num_vertices, dtype=np.int64), ownership
                    ),
                    scheme=opts.matching,
                    rng=rng,
                    retry_rounds=opts.match_retry_rounds,
                    batch_maker=batch_maker,
                )
                per_vertex_scans = current.degrees().astype(np.float64)
                for _ in range(mstats.rounds):
                    pool.parallel_edge_work(
                        per_vertex_scans, ownership, detail="match",
                        avg_degree=2 * current.num_edges / max(1, current.num_vertices),
                    )
                pool.parallel_vertex_work(
                    np.ones(current.num_vertices), ownership, detail="match.resolve"
                )
                coarse, _cmap = threaded_contract(current, match, pool, ownership)
            trace.levels.append(
                LevelRecord(
                    level=level_idx,
                    num_vertices=current.num_vertices,
                    num_edges=current.num_edges,
                    matched_pairs=mstats.pairs,
                    conflicts=mstats.conflicts,
                    self_matches=mstats.self_matches,
                    engine="cpu-threads",
                )
            )
            shrink = 1.0 - coarse.num_vertices / current.num_vertices
            levels.append(CoarseningLevel(graph=current, cmap=_cmap))
            current = coarse
            level_idx += 1
            if shrink < opts.min_shrink:
                break
        return levels, current

    # ------------------------------------------------------------------
    def uncoarsen(
        self,
        levels: list[CoarseningLevel],
        part: np.ndarray,
        k: int,
        pool: ThreadPoolSim,
        trace: Trace,
        level_offset: int = 0,
    ) -> np.ndarray:
        """Projection + buffered refinement down the ladder (reused by
        GP-metis's CPU stage)."""
        opts = self.options
        for level_idx in range(len(levels) - 1, -1, -1):
            level = levels[level_idx]
            with clock_span(
                pool.clock, f"level {level_idx}", category="level",
                engine="cpu-threads", num_vertices=level.graph.num_vertices,
            ):
                part = project_partition(part, level.cmap)
                ownership = block_ownership(level.graph.num_vertices, opts.num_threads)
                pool.parallel_vertex_work(
                    np.ones(level.graph.num_vertices), ownership, detail="project"
                )
                cut_before = edge_cut(level.graph, part)
                part, sub_stats = refine_level(
                    level.graph, part, k, opts.ubfactor, opts.refine_passes
                )
                cut_after = edge_cut(level.graph, part)
                for si, st in enumerate(sub_stats):
                    # Propose cost: persistent threads keep incremental
                    # boundary/gain state (Sec. III.D — "data ownership is
                    # given to the threads at the beginning ... and stays the
                    # same"), so only the first sub-iteration of a level pays
                    # the full arc sweep; later ones touch boundary arcs only.
                    if si == 0:
                        scans = float(st.edge_scans)
                    else:
                        scans = float(
                            max(0, st.edge_scans - level.graph.num_directed_edges)
                        )
                    with clock_span(
                        pool.clock, f"pass {si}", category="pass",
                        engine="cpu-threads", proposed=st.proposals,
                        committed=st.committed,
                    ):
                        pool.parallel_edge_work(
                            np.full(opts.num_threads, scans / opts.num_threads),
                            np.arange(opts.num_threads, dtype=np.int64),
                            detail="refine.propose",
                            avg_degree=2 * level.graph.num_edges
                            / max(1, level.graph.num_vertices),
                        )
                        if st.requests_per_partition.size:
                            buf_owner = np.arange(k, dtype=np.int64) % opts.num_threads
                            sort_cost = st.requests_per_partition * np.maximum(
                                1.0, np.log2(np.maximum(st.requests_per_partition, 2))
                            )
                            pool.parallel_vertex_work(
                                sort_cost, buf_owner, detail="refine.commit"
                            )
                    trace.refinements.append(
                        RefinementRecord(
                            level=level_offset + level_idx,
                            pass_index=si,
                            moves_proposed=st.proposals,
                            moves_committed=st.committed,
                            cut_before=cut_before,
                            cut_after=cut_after,
                            engine="cpu-threads",
                        )
                    )
        return part

    # ------------------------------------------------------------------
    def partition(self, graph: CSRGraph, k: int) -> PartitionResult:
        return run_engine(self, graph, k, self._run)

    def _run(self, graph: CSRGraph, k: int, clock: SimClock, trace: Trace) -> EngineRun:
        opts = self.options
        pool = ThreadPoolSim(opts.num_threads, self.machine.cpu, clock)
        rng = np.random.default_rng(opts.seed)

        clock.set_phase("coarsening")
        levels, coarsest = self.coarsen(graph, k, pool, trace, rng)

        clock.set_phase("initpart")
        part, crit_work = parallel_recursive_bisection(
            coarsest, k, opts.num_threads, opts.serial_options(), rng
        )
        clock.charge(
            "compute",
            self.machine.cpu.edge_seconds(
                crit_work,
                avg_degree=2 * coarsest.num_edges / max(1, coarsest.num_vertices),
            ),
            count=crit_work,
            detail="parallel recursive bisection",
        )

        clock.set_phase("uncoarsening")
        part = self.uncoarsen(levels, part, k, pool, trace)

        # Balance guarantee at the finest level.
        moves = enforce_balance(graph, part, k, opts.ubfactor)
        if moves is not None:
            clock.charge(
                "compute",
                self.machine.cpu.edge_seconds(
                    graph.num_directed_edges,
                    avg_degree=2 * graph.num_edges / max(1, graph.num_vertices),
                ),
                count=float(graph.num_directed_edges),
                detail=f"final rebalance ({moves} moves)",
            )
        return EngineRun(part, extras={"num_threads": opts.num_threads})
