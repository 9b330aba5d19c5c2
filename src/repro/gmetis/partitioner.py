"""Gmetis: Metis as Galois set iterators (paper Sec. II.C).

Coarsening and refinement run as speculative ``for_each`` loops over
vertices: the matching iteration locks a vertex and its neighborhood and
then behaves exactly like sequential HEM (no two-round conflict scheme —
speculation *prevents* conflicts instead of repairing them), so quality
tracks serial Metis.  The price is the speculation tax on irregular
neighborhoods, which is why the paper reports Gmetis "not as efficient
as ParMetis in terms of performance".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..engine import EngineRun, run_engine
from ..exceptions import InvalidParameterError
from ..graphs.csr import CSRGraph
from ..graphs.metrics import edge_cut
from ..obs.spans import clock_span
from ..result import PartitionResult
from ..runtime.clock import SimClock
from ..runtime.machine import PAPER_MACHINE, MachineSpec
from ..runtime.trace import LevelRecord, RefinementRecord, Trace
from ..serial.bisection import recursive_bisection
from ..serial.coarsen import CoarseningLevel
from ..serial.contraction import contract
from ..serial.kway import enforce_balance, kway_refine
from ..serial.options import SerialOptions
from ..serial.project import project_partition
from .speculative import SpeculativeExecutor

__all__ = ["Gmetis", "GmetisOptions"]


@dataclass(frozen=True)
class GmetisOptions:
    """Knobs of the Gmetis reproduction."""

    num_threads: int = 8
    ubfactor: float = 1.03
    matching: str = "hem"
    coarsen_to_factor: int = 20
    coarsen_min: int = 64
    min_shrink: float = 0.05
    refine_passes: int = 4
    seed: int = 1
    #: Optional fault plan (see :mod:`repro.faults`): a FaultPlan, a plan
    #: dict, or a path to a plan JSON file.  ``None`` disables injection.
    fault_plan: object = None
    #: Respond to injected faults with retry/degradation (True) or let
    #: them crash the run (False — the faults self-check's mutation).
    fault_recovery: bool = True

    def __post_init__(self) -> None:
        if self.num_threads < 1:
            raise InvalidParameterError("num_threads must be >= 1")
        if self.ubfactor < 1.0:
            raise InvalidParameterError("ubfactor must be >= 1.0")
        if self.refine_passes < 1:
            raise InvalidParameterError("refine_passes must be >= 1")

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


class Gmetis:
    """Multicore Metis on the optimistic (Galois) execution model."""

    name = "gmetis"

    def __init__(
        self,
        options: GmetisOptions | None = None,
        machine: MachineSpec | None = None,
    ) -> None:
        self.options = options or GmetisOptions()
        self.machine = machine or PAPER_MACHINE

    # ------------------------------------------------------------------
    def _speculative_match(
        self, graph: CSRGraph, executor: SpeculativeExecutor,
        rng: np.random.Generator, detail: str,
    ):
        """HEM as a Galois iterator: lock v + neighbors, match greedily."""
        n = graph.num_vertices
        match = np.full(n, -1, dtype=np.int64)
        adjp, adjncy, adjwgt = graph.adjp, graph.adjncy, graph.adjwgt
        scheme = self.options.matching

        def neighborhood(v: int) -> np.ndarray:
            return adjncy[adjp[v]: adjp[v + 1]]

        def body(v: int) -> None:
            if match[v] >= 0:
                return
            s, e = adjp[v], adjp[v + 1]
            nbrs = adjncy[s:e]
            free = match[nbrs] < 0
            if not np.any(free):
                match[v] = v
                return
            if scheme == "hem":
                j = int(np.argmax(np.where(free, adjwgt[s:e], -1)))
            else:
                idx = np.where(free)[0]
                j = int(idx[rng.integers(0, idx.shape[0])])
            u = int(nbrs[j])
            match[v] = u
            match[u] = v

        items = rng.permutation(n)
        stats = executor.for_each(items, neighborhood, body, detail=detail)
        left = match < 0
        match[left] = np.where(left)[0]
        return match, stats

    # ------------------------------------------------------------------
    def partition(self, graph: CSRGraph, k: int) -> PartitionResult:
        return run_engine(self, graph, k, self._run)

    def _run(self, graph: CSRGraph, k: int, clock: SimClock, trace: Trace) -> EngineRun:
        opts = self.options
        executor = SpeculativeExecutor(opts.num_threads, self.machine.cpu, clock)
        rng = np.random.default_rng(opts.seed)

        clock.set_phase("coarsening")
        levels: list[CoarseningLevel] = []
        current = graph
        target = opts.coarsen_target(k)
        level_idx = 0
        total_aborts = 0
        while current.num_vertices > target:
            with clock_span(
                clock, f"level {level_idx}", category="level",
                engine="galois", num_vertices=current.num_vertices,
            ):
                match, sstats = self._speculative_match(
                    current, executor, rng, detail=f"match L{level_idx}"
                )
                total_aborts += sstats.aborted
                coarse, cmap = contract(current, match)
                # Contraction as another speculative loop over coarse vertices.
                clock.charge(
                    "compute",
                    self.machine.cpu.edge_seconds(
                        current.num_directed_edges,
                        avg_degree=2 * current.num_edges / max(1, current.num_vertices),
                    ) / max(1, min(opts.num_threads, self.machine.cpu.num_cores)),
                    count=float(current.num_directed_edges),
                    detail=f"contract L{level_idx}",
                )
            ids = np.arange(current.num_vertices)
            trace.levels.append(
                LevelRecord(
                    level=level_idx,
                    num_vertices=current.num_vertices,
                    num_edges=current.num_edges,
                    matched_pairs=int((match != ids).sum()) // 2,
                    conflicts=sstats.aborted,  # aborts play the conflict role
                    self_matches=int((match == ids).sum()),
                    engine="galois",
                )
            )
            shrink = 1.0 - coarse.num_vertices / current.num_vertices
            levels.append(CoarseningLevel(graph=current, cmap=cmap))
            current = coarse
            level_idx += 1
            if shrink < opts.min_shrink:
                break

        clock.set_phase("initpart")
        part = recursive_bisection(current, k, opts.serial_options(), rng=rng)
        sweeps = 8 * max(1, int(np.ceil(np.log2(max(k, 2)))))
        clock.charge(
            "compute",
            self.machine.cpu.edge_seconds(sweeps * current.num_directed_edges),
            count=float(sweeps * current.num_directed_edges),
            detail="recursive bisection",
        )

        clock.set_phase("uncoarsening")
        for li in range(len(levels) - 1, -1, -1):
            level = levels[li]
            with clock_span(
                clock, f"level {li}", category="level",
                engine="galois", num_vertices=level.graph.num_vertices,
            ):
                part = project_partition(part, level.cmap)
                cut_before = edge_cut(level.graph, part)
                part, passes = kway_refine(
                    level.graph, part, k, ubfactor=opts.ubfactor,
                    max_passes=opts.refine_passes, rng=rng,
                )
                # Refinement as speculative loops: boundary iterations lock
                # their neighborhoods; the abort tax scales with the boundary
                # connectivity (model it at the measured matching abort rate).
                for pres in passes:
                    clock.charge(
                        "compute",
                        self.machine.cpu.edge_seconds(
                            pres.edge_scans,
                            avg_degree=2 * level.graph.num_edges
                            / max(1, level.graph.num_vertices),
                        ) / max(1, min(opts.num_threads, self.machine.cpu.num_cores))
                        * (1.0 + 2.0 * (total_aborts / max(1, graph.num_vertices))),
                        count=float(pres.edge_scans),
                        detail=f"speculative refine L{li}",
                    )
                    clock.charge(
                        "sync",
                        pres.edge_scans * executor.lock_op_seconds,
                        count=float(pres.edge_scans),
                        detail=f"refine lock traffic L{li}",
                    )
                trace.refinements.append(
                    RefinementRecord(
                        level=li, pass_index=0,
                        moves_proposed=sum(p.moves_proposed for p in passes),
                        moves_committed=sum(p.moves_committed for p in passes),
                        cut_before=cut_before, cut_after=edge_cut(level.graph, part),
                        engine="galois",
                    )
                )

        enforce_balance(graph, part, k, opts.ubfactor)
        return EngineRun(
            part,
            attrs={"aborts": total_aborts},
            extras={"num_threads": opts.num_threads, "aborts": total_aborts},
        )
