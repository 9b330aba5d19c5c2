"""The engine-run harness: one run protocol for every partitioner.

Each engine's ``partition()`` is ``run_engine(self, graph, k, self._run)``.
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
from .runtime.trace import Trace

__all__ = ["EngineRun", "run_engine"]


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
