"""Trivial baselines: random and block partitioning.

These anchor the benchmark suite — any heuristic worth running must beat
them on cut (random) while matching their balance (both are perfectly
balanced by construction on unit weights).

Like the multilevel engines, both take a frozen options dataclass
(:class:`~repro.baselines.options.RandomOptions` /
:class:`~repro.baselines.options.BlockOptions`), run through
:func:`repro.engine.run_engine` (so served and profiled runs land in the
run ledger with a config fingerprint), and accept ``fault_plan`` /
``fault_recovery``.
"""

from __future__ import annotations

import numpy as np

from ..engine import EngineRun, run_engine
from ..exceptions import InvalidParameterError
from ..graphs.csr import CSRGraph
from ..result import PartitionResult
from ..runtime.clock import SimClock
from ..runtime.machine import PAPER_MACHINE, MachineSpec
from ..runtime.trace import Trace
from .options import BlockOptions, RandomOptions

__all__ = ["RandomPartitioner", "BlockPartitioner"]


class _Baseline:
    """The baselines' shared constructor: one options dataclass, checked."""

    name: str = None  # set by subclasses
    options_class: type = None  # set by subclasses

    def __init__(self, options=None, machine: MachineSpec | None = None) -> None:
        # Positional pre-dataclass calls, e.g. RandomPartitioner(1.05, 7)
        # meaning (ubfactor, seed), fail here instead of mid-run.
        if options is not None and not isinstance(options, self.options_class):
            raise InvalidParameterError(
                f"{self.name!r} takes a {self.options_class.__name__} options "
                f"dataclass, got {type(options).__name__}"
            )
        if machine is not None and not isinstance(machine, MachineSpec):
            raise InvalidParameterError(
                f"machine must be a MachineSpec, got {type(machine).__name__}"
            )
        self.options = options or self.options_class()
        self.machine = machine or PAPER_MACHINE

    def partition(self, graph: CSRGraph, k: int) -> PartitionResult:
        return run_engine(self, graph, k, self._run)


class _TrivialBase(_Baseline):
    def _labels(self, graph: CSRGraph, k: int) -> np.ndarray:
        raise NotImplementedError

    def _run(self, graph: CSRGraph, k: int, clock: SimClock, trace: Trace) -> EngineRun:
        clock.set_phase("assign")
        part = self._labels(graph, k)
        clock.charge(
            "compute",
            self.machine.cpu.vertex_seconds(graph.num_vertices),
            count=float(graph.num_vertices),
            detail="label assignment",
        )
        return EngineRun(part)


class RandomPartitioner(_TrivialBase):
    """Balanced random assignment: shuffle, then deal round-robin."""

    name = "random"
    options_class = RandomOptions

    def _labels(self, graph: CSRGraph, k: int) -> np.ndarray:
        rng = np.random.default_rng(self.options.seed)
        order = rng.permutation(graph.num_vertices)
        part = np.empty(graph.num_vertices, dtype=np.int64)
        part[order] = np.arange(graph.num_vertices, dtype=np.int64) % k
        return part


class BlockPartitioner(_TrivialBase):
    """Contiguous index ranges — what a naive code does without a
    partitioner.  Quality depends entirely on the input labeling's
    locality (good for BFS/RCM-ordered meshes, terrible for shuffled
    ones), which the coalescing ablation exploits."""

    name = "block"
    options_class = BlockOptions

    def _labels(self, graph: CSRGraph, k: int) -> np.ndarray:
        n = graph.num_vertices
        if n == 0:
            return np.empty(0, dtype=np.int64)
        per = -(-n // k)
        return np.minimum(np.arange(n, dtype=np.int64) // per, k - 1)
