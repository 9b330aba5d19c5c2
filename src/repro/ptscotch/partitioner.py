"""The PT-Scotch driver (paper Sec. II.B background system).

Pipeline: Monte-Carlo matching with folding during coarsening; once each
group is down to one rank, serial recursive bisection per rank with the
best initial partition elected; banded refinement during uncoarsening.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..engine import EngineRun, run_engine
from ..exceptions import InvalidParameterError
from ..graphs.csr import CSRGraph
from ..graphs.metrics import edge_cut
from ..parmetis.distgraph import DistGraph
from ..result import PartitionResult
from ..runtime.clock import SimClock
from ..runtime.machine import PAPER_MACHINE, MachineSpec
from ..runtime.mpi import MpiSim
from ..runtime.trace import LevelRecord, RefinementRecord, Trace
from ..serial.bisection import recursive_bisection
from ..serial.coarsen import CoarseningLevel
from ..serial.contraction import contract
from ..serial.kway import enforce_balance
from ..serial.options import SerialOptions
from ..serial.project import project_partition
from .band import band_refine
from .folding import FoldState, fold, should_fold
from .matching import montecarlo_match

__all__ = ["PTScotch", "PTScotchOptions"]


@dataclass(frozen=True)
class PTScotchOptions:
    """Knobs of the PT-Scotch reproduction."""

    num_ranks: int = 8
    ubfactor: float = 1.03
    matching: str = "hem"
    match_rounds: int = 6
    request_probability: float = 0.5
    #: Fold when the per-rank vertex share drops below this.
    fold_threshold: int = 2048
    coarsen_to_factor: int = 20
    coarsen_min: int = 64
    min_shrink: float = 0.05
    refine_passes: int = 4
    #: Hop distance of the refinement band around the separators.
    band_distance: int = 2
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
        if not 0.0 < self.request_probability <= 1.0:
            raise InvalidParameterError("request_probability must be in (0, 1]")
        if self.band_distance < 0:
            raise InvalidParameterError("band_distance must be >= 0")
        if self.match_rounds < 1 or self.refine_passes < 1:
            raise InvalidParameterError("round/pass counts must be >= 1")

    def coarsen_target(self, k: int) -> int:
        return max(self.coarsen_min, self.coarsen_to_factor * k)

    def serial_options(self) -> SerialOptions:
        return SerialOptions(
            ubfactor=self.ubfactor,
            matching=self.matching,
            coarsen_to_factor=self.coarsen_to_factor,
            coarsen_min=self.coarsen_min,
            min_shrink=self.min_shrink,
            seed=self.seed,
        )


class PTScotch:
    """Distributed multilevel partitioner in PT-Scotch's style."""

    name = "pt-scotch"

    def __init__(
        self,
        options: PTScotchOptions | None = None,
        machine: MachineSpec | None = None,
    ) -> None:
        self.options = options or PTScotchOptions()
        self.machine = machine or PAPER_MACHINE

    def partition(self, graph: CSRGraph, k: int) -> PartitionResult:
        return run_engine(self, graph, k, self._run)

    def _run(self, graph: CSRGraph, k: int, clock: SimClock, trace: Trace) -> EngineRun:
        opts = self.options
        mpi = MpiSim(opts.num_ranks, self.machine.cpu, self.machine.interconnect, clock)
        rng = np.random.default_rng(opts.seed)

        # --------------------------------------------------------------
        # Coarsening with Monte-Carlo matching + folding.
        # --------------------------------------------------------------
        clock.set_phase("coarsening")
        levels: list[CoarseningLevel] = []
        current = graph
        state = FoldState(group_size=opts.num_ranks)
        folds = 0
        level_idx = 0
        target = opts.coarsen_target(k)
        while current.num_vertices > target:
            dist = DistGraph.distribute(current, max(1, state.group_size))
            match, mstats = montecarlo_match(
                dist, mpi, scheme=opts.matching,
                max_rounds=opts.match_rounds,
                request_probability=opts.request_probability,
                rng=rng,
            )
            coarse, cmap = contract(current, match)
            per_rank = np.bincount(
                dist.arcs_src_rank(), minlength=dist.num_ranks
            ).astype(np.float64)
            mpi_sub = per_rank if dist.num_ranks == mpi.num_ranks else np.pad(
                per_rank, (0, mpi.num_ranks - dist.num_ranks)
            )
            mpi.compute(mpi_sub, detail=f"contract L{level_idx}",
                        avg_degree=2 * current.num_edges / max(1, current.num_vertices))
            trace.levels.append(
                LevelRecord(
                    level=level_idx,
                    num_vertices=current.num_vertices,
                    num_edges=current.num_edges,
                    matched_pairs=mstats.pairs,
                    self_matches=mstats.self_matches,
                    engine=f"mpi-fold{state.generation}",
                )
            )
            shrink = 1.0 - coarse.num_vertices / current.num_vertices
            levels.append(CoarseningLevel(graph=current, cmap=cmap))
            current = coarse
            level_idx += 1
            if should_fold(current, state, opts.fold_threshold):
                state = fold(current, state, mpi)
                folds += 1
            if shrink < opts.min_shrink:
                break

        # --------------------------------------------------------------
        # Per-rank serial RB; elect the best initial partition.
        # --------------------------------------------------------------
        clock.set_phase("initpart")
        best_part = None
        best_cut = None
        trials = max(1, opts.num_ranks >> state.generation) if state.generation else opts.num_ranks
        for t in range(min(trials, opts.num_ranks)):
            cand = recursive_bisection(
                current, k, opts.serial_options(),
                rng=np.random.default_rng(opts.seed + 101 * t),
            )
            cut = edge_cut(current, cand)
            if best_cut is None or cut < best_cut:
                best_cut, best_part = cut, cand
        assert best_part is not None
        part = best_part
        sweeps = (opts.serial_options().gggp_trials + opts.serial_options().fm_passes)
        depth = max(1, int(np.ceil(np.log2(max(k, 2)))))
        per_rank = np.zeros(mpi.num_ranks)
        per_rank[0] = sweeps * depth * current.num_directed_edges
        mpi.compute(per_rank, detail="per-rank serial RB",
                    avg_degree=2 * current.num_edges / max(1, current.num_vertices))
        mpi.allreduce(detail="initpart best-cut election")

        # --------------------------------------------------------------
        # Uncoarsening with banded refinement.
        # --------------------------------------------------------------
        clock.set_phase("uncoarsening")
        for li in range(len(levels) - 1, -1, -1):
            level = levels[li]
            part = project_partition(part, level.cmap)
            cut_before = edge_cut(level.graph, part)
            part, band_size = band_refine(
                level.graph, part, k, opts.ubfactor,
                opts.refine_passes, opts.band_distance,
            )
            dist = DistGraph.distribute(level.graph, opts.num_ranks)
            band_share = band_size / max(1, level.graph.num_vertices)
            mpi.compute(
                dist.per_rank_edges() * band_share + band_size,
                detail=f"band refine L{li}",
                avg_degree=2 * level.graph.num_edges / max(1, level.graph.num_vertices),
            )
            s, d, b = dist.ghost_exchange_payload()
            mpi.exchange(s, d, b, detail=f"band halo L{li}")
            trace.refinements.append(
                RefinementRecord(
                    level=li, pass_index=0,
                    moves_proposed=band_size, moves_committed=band_size,
                    cut_before=cut_before, cut_after=edge_cut(level.graph, part),
                    engine="mpi-band",
                )
            )

        enforce_balance(graph, part, k, opts.ubfactor)

        trace.note(f"{folds} folds performed")
        return EngineRun(
            part,
            attrs={"num_ranks": opts.num_ranks},
            extras={"num_ranks": opts.num_ranks, "folds": folds,
                    "messages": mpi.messages_sent},
        )
