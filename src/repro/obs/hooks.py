"""The shared engine hook: one way for every partitioner to report.

``profile_run`` opens the standard root span (same name, same attribute
schema, whatever the engine), and ``finish_run`` derives the standard
metric set from the run's :class:`~repro.runtime.trace.Trace` and
optional :class:`~repro.gpusim.stats.DeviceStats`.  Engines do not call
them directly: :func:`repro.engine.run_engine` calls each exactly once
per run around the engine's body.  Because all engines funnel through
these two functions, a GP-metis tree and an mt-metis tree
are directly comparable — same span categories, same metric names, with
``engine=...`` labels separating the GPU and CPU stages of the hybrid.

Standard metrics (labels in braces):

====================================  =======  ==============================
``matching.conflict_rate{engine}``    gauge    conflicts / match attempts
``matching.conflicts{engine}``        counter  conflicted match attempts
``matching.pairs{engine}``            counter  committed match pairs
``refine.commit_ratio{engine}``       gauge    committed / proposed moves
``refine.moves_proposed{engine}``     counter  proposed moves, all passes
``refine.moves_committed{engine}``    counter  committed moves, all passes
``refine.passes{engine}``             counter  refinement passes executed
``kernel.coalescing_efficiency``      gauge    bytes-weighted mean over kernels
``kernel.launches``                   counter  GPU kernel launches
``transfer.h2d_bytes``                counter  PCIe host->device bytes
``transfer.d2h_bytes``                counter  PCIe device->host bytes
``transfer.h2d_count``                counter  host->device transfers
``transfer.d2h_count``                counter  device->host transfers
``memory.peak_bytes``                 gauge    peak simulated device memory
``sanitizer.races``                   counter  data races detected
``sanitizer.warnings``                counter  stale-read warnings
``sanitizer.launches_checked``        counter  launches the sanitizer replayed
``faults.injected{site,kind}``        counter  injected faults (repro.faults)
``faults.recovered{action}``          counter  recovery actions taken
``run.degraded``                      gauge    1 when degradation changed the path
``partition.cut``                     gauge    final edge cut
``partition.imbalance``               gauge    final imbalance
``hw.cpu.edge_visits``                counter  CSR arcs traversed on the CPU
``hw.cpu.vertex_ops``                 counter  per-vertex CPU operations
``hw.cpu.random_bytes``               counter  scattered host-memory bytes
``hw.cpu.busy_seconds``               counter  modeled CPU-region seconds
``hw.cpu.util``                       gauge    full-machine CPU utilization
``hw.mpi.messages`` / ``.bytes``      counter  interconnect traffic (parmetis)
``hw.mpi.util``                       gauge    comm balance vs straggler NIC
``hw.pcie.bytes`` / ``.seconds``      counter  PCIe payload + modeled time
``hw.pcie.util``                      gauge    beta share of transfer time
``hw.pcie.alpha_share``               gauge    latency share of transfer time
``hw.gpu.bytes_moved`` / ``.compute_ops``  counter  DRAM traffic / device ops
``hw.gpu.dram_util`` / ``.compute_util``   gauge  achieved/peak while kernels ran
``hw.gpu.coalescing``                 gauge    requested / moved DRAM bytes
``hw.gpu.bound_seconds{bound}``       counter  kernel seconds per bound class
``hw.transfer_avoidance``             gauge    device bytes / (device + PCIe)
====================================  =======  ==============================

The ``hw.*`` family is derived in :mod:`repro.obs.hw` by dividing the
recorded traffic by the run's :class:`~repro.runtime.machine.MachineSpec`
peaks — pass the engine's ``machine`` to :func:`finish_run` so a scaled
machine is scored against its own spec, not the paper testbed's.
"""

from __future__ import annotations

from ..runtime.clock import SimClock
from .hw import check_transfer_consistency, hw_metrics, hw_section
from .ledger import append_record, get_default_ledger, ledger_record, options_hash
from .spans import Profiler

__all__ = ["profile_run", "finish_run"]


def profile_run(
    clock: SimClock, *, engine: str, graph, k: int, options=None, **attrs
) -> Profiler:
    """Open the standard run-root span and attach the profiler to the clock.

    When the engine passes its ``options`` dataclass, the run root also
    carries ``seed`` and ``options_hash`` attributes — the run-ledger
    config fingerprint is derived from them, so two ledger records are
    comparable exactly when these attributes agree.
    """
    if options is not None:
        seed = getattr(options, "seed", None)
        if seed is not None:
            attrs.setdefault("seed", int(seed))
        attrs.setdefault("options_hash", options_hash(options))
    return Profiler(
        clock,
        name=f"{engine} {graph.name}",
        category="run",
        engine=engine,
        graph=graph.name,
        num_vertices=int(graph.num_vertices),
        num_edges=int(graph.num_edges),
        k=int(k),
        **attrs,
    )


def finish_run(
    profiler: Profiler,
    *,
    trace=None,
    device_stats=None,
    machine=None,
    cut: int | None = None,
    imbalance: float | None = None,
    ledger=None,
    injector=None,
    **attrs,
) -> Profiler:
    """Close the run span and derive the standard metrics.

    ``trace`` feeds the matching/refinement/sanitizer metrics (labelled
    by each record's ``engine``); ``device_stats`` feeds the kernel,
    transfer and device-memory metrics; ``injector`` (the run's
    :class:`repro.faults.FaultInjector`, when one was attached) feeds the
    fault/recovery counters and the ``degraded`` attribute; ``machine``
    (the engine's :class:`~repro.runtime.machine.MachineSpec`, defaulting
    to the paper testbed) sets the peaks the ``hw.*`` utilization family
    is scored against.  When a
    ledger is configured — the ``ledger`` argument,
    :func:`repro.obs.ledger.set_default_ledger`, or ``$REPRO_LEDGER`` —
    the finished run is appended to it as one JSONL record.
    """
    m = profiler.metrics
    if trace is not None:
        profiler.attach_trace(trace)
        _matching_metrics(m, trace)
        _refinement_metrics(m, trace)
        _sanitizer_metrics(m, trace)
    if device_stats is not None:
        _device_metrics(m, device_stats)
    if injector is not None:
        _fault_metrics(m, injector)
        attrs.setdefault("degraded", injector.degraded)
        attrs.setdefault("faults_injected", injector.faults_injected)
    if cut is not None:
        m.gauge("partition.cut").set(cut)
        attrs.setdefault("cut", int(cut))
    if imbalance is not None:
        m.gauge("partition.imbalance").set(imbalance)
    profiler.finish(**attrs)
    # Hardware-utilization layer: achieved vs. peak for every counted
    # second, against the machine that priced the run.  Purely derived —
    # nothing here charges the clock.
    if device_stats is not None and __debug__:
        check_transfer_consistency(profiler, device_stats)
    profiler.hw = hw_section(profiler, machine, device_stats)
    hw_metrics(m, profiler.hw)
    ledger_path = ledger or get_default_ledger()
    if ledger_path is not None:
        append_record(ledger_path, ledger_record(profiler))
    return profiler


# ----------------------------------------------------------------------
def _matching_metrics(m, trace) -> None:
    by_engine: dict[str, tuple[int, int]] = {}
    for rec in trace.levels:
        pairs, conflicts = by_engine.get(rec.engine, (0, 0))
        by_engine[rec.engine] = (pairs + rec.matched_pairs, conflicts + rec.conflicts)
    for engine, (pairs, conflicts) in by_engine.items():
        m.counter("matching.pairs", engine=engine).inc(pairs)
        m.counter("matching.conflicts", engine=engine).inc(conflicts)
        attempts = pairs + conflicts
        m.gauge("matching.conflict_rate", engine=engine).set(
            conflicts / attempts if attempts else 0.0
        )


def _refinement_metrics(m, trace) -> None:
    by_engine: dict[str, tuple[int, int, int]] = {}
    for rec in trace.refinements:
        prop, comm, passes = by_engine.get(rec.engine, (0, 0, 0))
        by_engine[rec.engine] = (
            prop + rec.moves_proposed, comm + rec.moves_committed, passes + 1
        )
    for engine, (proposed, committed, passes) in by_engine.items():
        m.counter("refine.moves_proposed", engine=engine).inc(proposed)
        m.counter("refine.moves_committed", engine=engine).inc(committed)
        m.counter("refine.passes", engine=engine).inc(passes)
        m.gauge("refine.commit_ratio", engine=engine).set(
            committed / proposed if proposed else 0.0
        )


def _sanitizer_metrics(m, trace) -> None:
    if not trace.race_reports:
        return
    m.counter("sanitizer.launches_checked").inc(len(trace.race_reports))
    m.counter("sanitizer.races").inc(trace.races_detected)
    m.counter("sanitizer.warnings").inc(
        sum(r.num_warnings for r in trace.race_reports)
    )


def _fault_metrics(m, injector) -> None:
    for event in injector.events:
        if event.category == "fault":
            m.counter("faults.injected", site=event.site, kind=event.kind).inc()
        else:
            m.counter("faults.recovered", action=event.kind).inc()
    m.gauge("run.degraded").set(1.0 if injector.degraded else 0.0)


def _device_metrics(m, stats) -> None:
    m.counter("kernel.launches").inc(stats.total_launches)
    total_bytes = sum(k.bytes_requested for k in stats.kernels.values())
    if total_bytes > 0:
        weighted = sum(
            k.coalescing_efficiency * k.bytes_requested for k in stats.kernels.values()
        )
        m.gauge("kernel.coalescing_efficiency").set(weighted / total_bytes)
    for k in stats.kernels.values():
        m.histogram("kernel.seconds").observe(k.seconds)
    m.counter("transfer.h2d_bytes").inc(stats.h2d_bytes)
    m.counter("transfer.d2h_bytes").inc(stats.d2h_bytes)
    m.counter("transfer.h2d_count").inc(stats.h2d_transfers)
    m.counter("transfer.d2h_count").inc(stats.d2h_transfers)
    m.gauge("memory.peak_bytes").set(stats.peak_memory_bytes)
