"""The GP-metis driver (the paper's contribution)."""

from __future__ import annotations

import numpy as np

from ..engine import EngineRun, run_engine
from ..graphs.csr import CSRGraph
from ..result import PartitionResult
from ..runtime.clock import SimClock
from ..runtime.machine import PAPER_MACHINE, MachineSpec
from ..runtime.trace import Trace
from .hybrid import run_hybrid
from .options import GPMetisOptions

__all__ = ["GPMetis"]


class GPMetis:
    """Hybrid CPU-GPU multilevel k-way partitioner (GP-metis).

    The GPU handles the parallel-rich fine levels of coarsening and
    un-coarsening; an mt-metis CPU stage covers the small coarse levels
    and the initial partitioning (paper Fig. 1).  Runtime includes the
    CPU<->GPU transfers, as in the paper's Table II.
    """

    name = "gp-metis"

    def __init__(
        self,
        options: GPMetisOptions | None = None,
        machine: MachineSpec | None = None,
    ) -> None:
        self.options = options or GPMetisOptions()
        self.machine = machine or PAPER_MACHINE

    def partition(self, graph: CSRGraph, k: int) -> PartitionResult:
        return run_engine(self, graph, k, self._run)

    def _run(self, graph: CSRGraph, k: int, clock: SimClock, trace: Trace) -> EngineRun:
        # run_hybrid builds its own trace and device; the run reports both.
        outcome = run_hybrid(graph, k, self.options, self.machine, clock)
        return EngineRun(
            np.asarray(outcome.part, dtype=np.int64),
            attrs={
                "gpu_levels": outcome.gpu_levels,
                "cpu_levels": outcome.cpu_levels,
                "fell_back_to_cpu": outcome.fell_back_to_cpu,
            },
            extras={
                "device_stats": outcome.device.stats,
                "gpu_levels": outcome.gpu_levels,
                "cpu_levels": outcome.cpu_levels,
                "fell_back_to_cpu": outcome.fell_back_to_cpu,
                "merge_fallbacks": outcome.merge_fallbacks,
                "merge_strategy": self.options.merge_strategy,
                "sanitizer": outcome.device.sanitizer,
                "degraded": outcome.degraded,
            },
            trace=outcome.trace,
            device_stats=outcome.device.stats,
        )
