"""The parallel Jostle driver (paper Sec. II.A/II.B background system).

Jostle's signature moves, per the paper:

* coarsening continues until "the number of vertices in the coarse graph
  is equal to the number of required partitions", making "the initial
  partitioning phase ... trivial";
* parallel Jostle coarsens distributed until a threshold, then
  all-to-all broadcasts the coarse graph and finishes independently;
* uncoarsening uses "a combined balancing and refinement algorithm" — a
  move "is accepted even if it makes the partitions unbalanced", fixed
  in following steps — executed on isolated interface regions pair by
  pair with serial KL.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..engine import EngineRun, run_engine
from ..exceptions import InvalidParameterError
from ..graphs.csr import CSRGraph
from ..graphs.metrics import edge_cut
from ..parmetis.distgraph import DistGraph
from ..parmetis.matching import distributed_match
from ..result import PartitionResult
from ..runtime.clock import SimClock
from ..runtime.machine import PAPER_MACHINE, MachineSpec
from ..runtime.mpi import MpiSim
from ..runtime.trace import LevelRecord, RefinementRecord, Trace
from ..serial.coarsen import CoarseningLevel
from ..serial.contraction import contract
from ..serial.kway import enforce_balance
from ..serial.matching import sequential_match
from ..mtmetis.refinement import commit_moves, propose_balance_moves
from ..serial.project import project_partition
from .interface import refine_interfaces

__all__ = ["Jostle", "JostleOptions"]


@dataclass(frozen=True)
class JostleOptions:
    """Knobs of the parallel Jostle reproduction."""

    num_ranks: int = 8
    ubfactor: float = 1.03
    matching: str = "hem"
    #: Switch from distributed to replicated coarsening below this size.
    broadcast_threshold: int = 4096
    #: Stop coarsening at ~this multiple of k (1 = the paper's "equal to
    #: the number of required partitions"; slightly above keeps the
    #: trivial assignment balanced on weighted coarse vertices).
    coarsen_to_factor: int = 2
    min_shrink: float = 0.02
    refine_sweeps: int = 2
    fm_passes: int = 2
    seed: int = 1
    #: Optional fault plan (see :mod:`repro.faults`): a FaultPlan, a plan
    #: dict, or a path to a plan JSON file.  ``None`` disables injection.
    fault_plan: object = None
    #: Respond to injected faults with retry/degradation (True) or let
    #: them crash the run (False).
    fault_recovery: bool = True

    def __post_init__(self) -> None:
        if self.num_ranks < 1:
            raise InvalidParameterError("num_ranks must be >= 1")
        if self.ubfactor < 1.0:
            raise InvalidParameterError("ubfactor must be >= 1.0")
        if self.coarsen_to_factor < 1:
            raise InvalidParameterError("coarsen_to_factor must be >= 1")
        if self.refine_sweeps < 1 or self.fm_passes < 1:
            raise InvalidParameterError("sweep/pass counts must be >= 1")


class Jostle:
    """Parallel multilevel partitioner in Jostle's style."""

    name = "jostle"

    def __init__(
        self,
        options: JostleOptions | None = None,
        machine: MachineSpec | None = None,
    ) -> None:
        self.options = options or JostleOptions()
        self.machine = machine or PAPER_MACHINE

    @staticmethod
    def _trivial_assignment(coarse: CSRGraph, k: int) -> np.ndarray:
        """Deal coarse vertices to partitions, one greedy sweep.

        When coarsening reaches exactly k vertices this is the identity
        (the paper's "trivial" initial partitioning); above k, vertices
        join the best-connected partition with headroom (lightest as the
        tie-break/fallback) in descending weight order, so each partition
        stays one near-connected cluster.
        """
        n = coarse.num_vertices
        part = np.full(n, -1, dtype=np.int64)
        if n <= k:
            return np.arange(n, dtype=np.int64)
        cap = 1.10 * coarse.total_vertex_weight / k
        weights = np.zeros(k, dtype=np.float64)
        order = np.argsort(-coarse.vwgt.astype(np.int64), kind="stable")
        # Seed the k partitions with the k heaviest vertices.
        for p, v in enumerate(order[:k]):
            part[v] = p
            weights[p] = float(coarse.vwgt[v])
        for v in order[k:]:
            nbrs = coarse.neighbors(int(v))
            ws = coarse.edge_weights(int(v))
            conn = np.zeros(k, dtype=np.float64)
            assigned = part[nbrs] >= 0
            np.add.at(conn, part[nbrs[assigned]], ws[assigned].astype(np.float64))
            conn[weights + coarse.vwgt[v] > cap] = -1.0
            p = int(np.argmax(conn))
            if conn[p] <= 0:
                p = int(np.argmin(weights))
            part[v] = p
            weights[p] += float(coarse.vwgt[v])
        return part

    def partition(self, graph: CSRGraph, k: int) -> PartitionResult:
        return run_engine(self, graph, k, self._run)

    def _run(self, graph: CSRGraph, k: int, clock: SimClock, trace: Trace) -> EngineRun:
        opts = self.options
        mpi = MpiSim(opts.num_ranks, self.machine.cpu, self.machine.interconnect, clock)
        rng = np.random.default_rng(opts.seed)

        # --------------------------------------------------------------
        # Coarsening: distributed, then broadcast + replicated, down to
        # ~k vertices.
        # --------------------------------------------------------------
        clock.set_phase("coarsening")
        levels: list[CoarseningLevel] = []
        current = graph
        level_idx = 0
        target = max(k, opts.coarsen_to_factor * k)
        broadcast_done = False
        while current.num_vertices > target:
            avg_deg = 2 * current.num_edges / max(1, current.num_vertices)
            if not broadcast_done and current.num_vertices <= opts.broadcast_threshold:
                mpi.allgather(
                    current.nbytes / max(1, opts.num_ranks),
                    detail="all-to-all broadcast before replicated coarsening",
                )
                broadcast_done = True
            if broadcast_done:
                mres = sequential_match(current, opts.matching, rng)
                match, pairs, selfm = mres.match, mres.pairs, 0
                per_rank = np.zeros(mpi.num_ranks)
                per_rank[0] = mres.edge_scans  # replicated: every rank does it
                mpi.compute(per_rank, detail=f"replicated match L{level_idx}",
                            avg_degree=avg_deg)
            else:
                dist = DistGraph.distribute(current, opts.num_ranks)
                match, mstats = distributed_match(
                    dist, mpi, scheme=opts.matching, rng=rng
                )
                pairs, selfm = mstats.pairs, mstats.self_matches
            coarse, cmap = contract(current, match)
            trace.levels.append(
                LevelRecord(
                    level=level_idx,
                    num_vertices=current.num_vertices,
                    num_edges=current.num_edges,
                    matched_pairs=pairs,
                    self_matches=selfm,
                    engine="mpi-replicated" if broadcast_done else "mpi",
                )
            )
            shrink = 1.0 - coarse.num_vertices / current.num_vertices
            levels.append(CoarseningLevel(graph=current, cmap=cmap))
            current = coarse
            level_idx += 1
            if shrink < opts.min_shrink:
                break

        # --------------------------------------------------------------
        # Trivial initial partitioning: coarse vertices dealt to the k
        # partitions, heaviest first to the lightest partition.
        # --------------------------------------------------------------
        clock.set_phase("initpart")
        part = self._trivial_assignment(current, k)
        mpi.compute_vertices(
            np.full(mpi.num_ranks, current.num_vertices / mpi.num_ranks),
            detail="trivial initpart",
        )

        # --------------------------------------------------------------
        # Uncoarsening: combined balance/refinement on interface regions.
        # --------------------------------------------------------------
        clock.set_phase("uncoarsening")
        for li in range(len(levels) - 1, -1, -1):
            level = levels[li]
            part = project_partition(part, level.cmap)
            cut_before = edge_cut(level.graph, part)
            moves_total = 0
            # Jostle accepts unbalancing moves mid-sweep; give FM slack
            # and let the following sweep (and finer levels) rebalance.
            sweep_ub = opts.ubfactor + 0.15
            for sweep in range(opts.refine_sweeps):
                part, round_stats = refine_interfaces(
                    level.graph, part, k,
                    ubfactor=opts.ubfactor if sweep else sweep_ub,
                    fm_passes=opts.fm_passes,
                )
                for rs in round_stats:
                    # A round's pairs spread over the ranks: wall time is
                    # the larger of the slowest region and the average
                    # per-rank share of the round's total work.
                    avg_deg = 1 + 2 * level.graph.num_edges / max(
                        1, level.graph.num_vertices
                    )
                    sizes = rs.region_sizes
                    critical = max(
                        max(sizes, default=0),
                        sum(sizes) / max(1, mpi.num_ranks),
                    ) * avg_deg * (1 + opts.fm_passes)
                    per_rank = np.zeros(mpi.num_ranks)
                    per_rank[0] = critical
                    mpi.compute(per_rank, detail=f"interface round L{li}")
                    moves_total += rs.moves
                dist = DistGraph.distribute(level.graph, opts.num_ranks)
                s, d, b = dist.ghost_exchange_payload()
                mpi.exchange(s, d, b, detail=f"interface halo L{li}")
            # The balancing half of "combined balancing and refinement":
            # diffuse excess weight out of overweight partitions before
            # descending to the finer level.
            pweights = np.bincount(
                part, weights=level.graph.vwgt.astype(np.float64), minlength=k
            )
            ideal_l = level.graph.total_vertex_weight / k
            guard = 0
            while pweights.max(initial=0.0) > opts.ubfactor * ideal_l and guard < k:
                vs, ds, gs, bstats = propose_balance_moves(
                    level.graph, part, k, pweights, opts.ubfactor * ideal_l
                )
                commit_moves(
                    level.graph, part, pweights, vs, ds, gs, k,
                    opts.ubfactor * ideal_l, bstats, recheck_gains=False,
                )
                guard += 1
                if bstats.committed == 0:
                    break
            trace.refinements.append(
                RefinementRecord(
                    level=li, pass_index=0,
                    moves_proposed=moves_total, moves_committed=moves_total,
                    cut_before=cut_before, cut_after=edge_cut(level.graph, part),
                    engine="mpi-interface",
                )
            )

        enforce_balance(graph, part, k, opts.ubfactor)

        return EngineRun(
            part,
            attrs={"num_ranks": opts.num_ranks},
            extras={"num_ranks": opts.num_ranks, "messages": mpi.messages_sent},
        )
