"""The engine contract: one option core, one engine base, one run protocol.

Every registered engine subclasses :class:`Engine`, which names its
options dataclass (``options_class``), checks what it is constructed with
and runs ``run_engine(self, graph, k, self._run)``.  Every options
dataclass extends :class:`EngineOptions` — the cross-engine core — and
the multilevel engines extend :class:`MultilevelOptions`, the Metis-style
coarsening controls the paper runs all four partitioners under (Sec. IV).
Subclasses redeclare only their own fields and the defaults that differ.

The harness owns everything the engines used to repeat: the ``k`` check,
the :class:`~repro.runtime.clock.SimClock` with its fault injector, the
run's :class:`~repro.runtime.trace.Trace`, the standard root span
(:func:`repro.obs.hooks.profile_run`), the standard metric set
(:func:`repro.obs.hooks.finish_run`, with cut and imbalance computed once),
the fault extras and the :class:`~repro.result.PartitionResult`.  The
engine body only partitions and says what it has to add.

It lives outside :mod:`repro.obs` because :mod:`repro.faults` imports
:mod:`repro.obs.schema`; importing the injector from ``repro.obs`` would
close the cycle.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .exceptions import InvalidParameterError
from .faults import attach_injector
from .graphs.csr import CSRGraph
from .graphs.metrics import edge_cut, imbalance
from .obs.hooks import finish_run, profile_run
from .result import PartitionResult
from .runtime.clock import SimClock
from .runtime.machine import PAPER_MACHINE, MachineSpec
from .runtime.trace import Trace

__all__ = [
    "CoarseningOptions",
    "Engine",
    "EngineOptions",
    "EngineRun",
    "MultilevelOptions",
    "run_engine",
]


@dataclass(frozen=True)
class EngineOptions:
    """The cross-engine core every options dataclass shares."""

    #: Balance tolerance: max part weight <= ubfactor x ideal (paper: 1.03).
    ubfactor: float = 1.03
    #: RNG seed (matching order, initial-partition seeds, assignment order).
    seed: int = 1
    #: Optional fault plan (see :mod:`repro.faults`): a FaultPlan, a plan
    #: dict, or a path to a plan JSON file.  ``None`` disables injection.
    fault_plan: object = None
    #: Respond to injected faults with retry/degradation (True) or let
    #: them crash the run (False — the faults self-check's mutation).
    fault_recovery: bool = True

    def __post_init__(self) -> None:
        if self.ubfactor < 1.0:
            raise InvalidParameterError("ubfactor must be >= 1.0")


@dataclass(frozen=True)
class CoarseningOptions(EngineOptions):
    """Matching and coarsening-stop controls of a multilevel engine."""

    #: Matching scheme: "hem" (heavy edge), "rm" (random), "lem" (light edge).
    matching: str = "hem"
    #: Stop coarsening when |V| <= coarsen_to_factor * k ...
    coarsen_to_factor: int = 20
    #: Stop if a level shrinks the graph by less than this fraction
    #: (Metis's "difference ... less than a threshold value").
    min_shrink: float = 0.05

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.matching not in ("hem", "rm", "lem"):
            raise InvalidParameterError(f"unknown matching scheme {self.matching!r}")
        if self.coarsen_to_factor < 1:
            raise InvalidParameterError("coarsen_to_factor must be >= 1")
        if not (0.0 <= self.min_shrink < 1.0):
            raise InvalidParameterError("min_shrink must be in [0, 1)")


@dataclass(frozen=True)
class MultilevelOptions(CoarseningOptions):
    """Metis-style coarsening: stop at ``max(coarsen_min, coarsen_to_factor
    * k)`` vertices, then bisect the coarsest graph serially."""

    #: ... but never below this floor.
    coarsen_min: int = 64

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.coarsen_min < 2:
            raise InvalidParameterError("coarsen_min must be >= 2")

    def coarsen_target(self, k: int) -> int:
        """Size the initial partitioning runs at (the Metis rule)."""
        return max(self.coarsen_min, self.coarsen_to_factor * k)

    def serial_options(self):
        """Options for serial sub-phases (bisections on the coarsest graph).

        Never carries ``fault_plan``: the sub-phase runs inside this
        engine's run, whose injector is already attached."""
        from .serial.options import SerialOptions

        return SerialOptions(
            ubfactor=self.ubfactor,
            matching=self.matching,
            coarsen_to_factor=self.coarsen_to_factor,
            coarsen_min=self.coarsen_min,
            min_shrink=self.min_shrink,
            seed=self.seed,
        )


@dataclass
class EngineRun:
    """What an engine body hands back to :func:`run_engine`."""

    part: np.ndarray
    #: Engine-specific ``finish_run`` attributes (``num_ranks``, ``aborts``, ...).
    attrs: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)
    #: Set when the body built its own trace (GP-metis's ``run_hybrid``);
    #: otherwise the harness's trace is the run's.
    trace: Trace | None = None
    device_stats: object = None


#: ``body(graph, k, clock, trace) -> EngineRun``
EngineBody = Callable[[CSRGraph, int, SimClock, Trace], EngineRun]


def run_engine(engine, graph: CSRGraph, k: int, body: EngineBody) -> PartitionResult:
    """Run ``body`` under the standard protocol and package its result.

    ``engine`` supplies ``name``, ``options`` (with ``fault_plan`` and
    ``fault_recovery``) and ``machine``.  When a fault plan is attached,
    ``extras`` gains ``fault_events`` and — unless the body set its own —
    the injector's ``degraded`` flag.
    """
    if k < 1:
        raise InvalidParameterError(f"k must be >= 1, got {k}")
    opts = engine.options
    clock = SimClock()
    injector = attach_injector(clock, opts.fault_plan, recover=opts.fault_recovery)
    trace = Trace()
    profiler = profile_run(clock, engine=engine.name, graph=graph, k=k, options=opts)
    t0 = time.perf_counter()
    run = body(graph, k, clock, trace)
    if run.trace is not None:
        trace = run.trace
    part = run.part
    finish_run(
        profiler,
        trace=trace,
        device_stats=run.device_stats,
        injector=injector,
        machine=engine.machine,
        cut=edge_cut(graph, part),
        imbalance=imbalance(graph, part, k),
        **run.attrs,
    )
    extras = run.extras
    if injector is not None:
        extras.setdefault("degraded", injector.degraded)
        extras["fault_events"] = list(injector.events)
    return PartitionResult(
        method=engine.name,
        graph_name=graph.name,
        k=k,
        part=part,
        clock=clock,
        trace=trace,
        wall_seconds=time.perf_counter() - t0,
        extras=extras,
    )


class Engine:
    """The one engine base: an options dataclass, a machine, one run.

    Subclasses set ``name`` and ``options_class`` and implement
    ``_run(graph, k, clock, trace) -> EngineRun``.
    """

    name: str = None  # set by subclasses
    options_class: type = None  # set by subclasses

    def __init__(self, options=None, machine: MachineSpec | None = None) -> None:
        # Positional pre-dataclass calls, e.g. SerialMetis(1.05) meaning
        # a ubfactor, fail here instead of mid-run.
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
