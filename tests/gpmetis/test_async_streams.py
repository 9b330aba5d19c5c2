"""The async-streams schedule's correctness contract.

Overlap changes *when* simulated time passes, never *what* is computed:
``GPMetisOptions(async_streams=False)`` is the serial differential
oracle.  With streams on, the partition vector, the trace, the charged
(busy) seconds and the ledger config fingerprint must be identical to
the serial run, while end-to-end simulated seconds strictly improve by
exactly the PCIe time the copy stream hid whenever GPU levels run.

Also covered here: the fault injector's view of failed copies
(failed-attempt transfer time lands in the ``retry`` bucket, not
``transfer``).
"""

import numpy as np
import pytest

import repro
from repro.faults import FaultPlan, FaultSpec
from repro.gpmetis.options import GPMetisOptions
from repro.graphs import generators
from repro.obs import ticket_attribution
from repro.obs.ledger import ledger_record

SEED = 3
THRESH = 2048  # GPU levels run at test sizes

GRAPHS = {
    "grid": lambda: generators.grid2d(80, 80),
    "delaunay": lambda: generators.delaunay(6000, seed=SEED),
    "roads": lambda: generators.road_network(6000, seed=SEED),
}


def _run(graph, k, *, async_streams, **kw):
    return repro.partition(
        graph, k, method="gp-metis", seed=SEED,
        gpu_threshold_min=THRESH, async_streams=async_streams, **kw,
    )


class TestDifferentialOracle:
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    @pytest.mark.parametrize("k", [4, 16])
    def test_vectors_identical_and_total_improves(self, name, k):
        g = GRAPHS[name]()
        on = _run(g, k, async_streams=True)
        off = _run(g, k, async_streams=False)
        assert np.array_equal(on.part, off.part)
        assert on.modeled_seconds < off.modeled_seconds
        # The schedules charge the same work; the only difference is the
        # download the copy stream hid behind the last contraction.
        assert on.clock.busy_seconds == off.clock.busy_seconds
        pcie = on.profiler.hw["pcie"]
        assert off.modeled_seconds - on.modeled_seconds == pytest.approx(
            pcie["seconds"] - pcie["exposed_seconds"], rel=1e-9)

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_ledger_fingerprints_identical(self, name):
        # async_streams is fingerprint-excluded: on/off runs identify the
        # same workload, so the perf gate diffs them against one baseline.
        g = GRAPHS[name]()
        rec_on = ledger_record(_run(g, 8, async_streams=True).profiler)
        rec_off = ledger_record(_run(g, 8, async_streams=False).profiler)
        assert rec_on["fingerprint"] == rec_off["fingerprint"]
        assert "async_streams" not in rec_on["config"]

    def test_kernel_timeout_is_not_hidden(self):
        # A launch watchdog fires on the stream its kernels run on, after
        # them: no schedule may hide it.  The fault stops GPU coarsening
        # at level 0, before any copy could overlap, so on == off.
        plan = FaultPlan(specs=(
            FaultSpec("kernel.launch", "timeout", probability=1.0,
                      max_fires=1, match="coarsen.cmap"),
        ))
        g = GRAPHS["delaunay"]()
        on = _run(g, 8, async_streams=True, fault_plan=plan)
        off = _run(g, 8, async_streams=False, fault_plan=plan)
        assert on.extras["gpu_levels"] == 0
        assert on.modeled_seconds == off.modeled_seconds
        assert on.modeled_seconds == pytest.approx(on.clock.busy_seconds)

    def test_cpu_only_run_unaffected(self):
        # Below the GPU threshold nothing streams; on/off are identical
        # in both the vector and the clock.
        g = generators.grid2d(30, 30)
        on = repro.partition(g, 4, method="gp-metis", seed=SEED,
                             async_streams=True)
        off = repro.partition(g, 4, method="gp-metis", seed=SEED,
                              async_streams=False)
        assert np.array_equal(on.part, off.part)
        assert on.modeled_seconds == pytest.approx(off.modeled_seconds)

    def test_option_defaults_on(self):
        assert GPMetisOptions().async_streams is True
        assert "async_streams" in GPMetisOptions.__fingerprint_exclude__


class _Ticket:
    """Minimal served-ticket shape for attribution (see obs.critical)."""

    engine = "gp-metis"
    cache = "miss"
    amortized_seconds = 0.0
    retries = 0
    retry_seconds = 0.0
    submitted_at = 0.0
    started_at = 0.002

    def __init__(self, result, dispatch):
        self.result = result
        self.finished_at = self.started_at + dispatch + result.modeled_seconds

    @property
    def queue_wait(self):
        return self.started_at - self.submitted_at

    @property
    def latency(self):
        return self.finished_at - self.submitted_at


class TestRetryAttribution:
    DISPATCH = 0.001
    PLAN = FaultPlan(specs=(
        FaultSpec("transfer.h2d", "fail", probability=1.0, max_fires=1,
                  match="csr"),
    ))

    @pytest.fixture(scope="class")
    def faulted(self):
        return _run(GRAPHS["grid"](), 8, async_streams=True,
                    fault_plan=self.PLAN)

    def test_failed_copy_recovers_identically(self, faulted):
        clean = _run(GRAPHS["grid"](), 8, async_streams=True)
        assert np.array_equal(faulted.part, clean.part)
        assert faulted.modeled_seconds > clean.modeled_seconds

    def test_retry_span_covers_burned_attempt(self, faulted):
        spans = list(faulted.profiler.root.find_category("retry"))
        assert spans, "failed async copy emitted no retry span"
        assert sum(s.duration for s in spans) > 0.0

    def test_attribution_moves_transfer_to_retry(self, faulted):
        att = ticket_attribution(_Ticket(faulted, self.DISPATCH),
                                 dispatch_seconds=self.DISPATCH)
        retry_spans = faulted.profiler.root.find_category("retry")
        burned = sum(s.duration for s in retry_spans)
        assert att["retry"] == pytest.approx(burned)
        ticket = _Ticket(faulted, self.DISPATCH)
        assert sum(att.values()) == pytest.approx(ticket.latency)

    def test_clean_run_attributes_no_retry(self):
        clean = _run(GRAPHS["grid"](), 8, async_streams=True)
        att = ticket_attribution(_Ticket(clean, self.DISPATCH),
                                 dispatch_seconds=self.DISPATCH)
        assert att["retry"] == 0.0
        faulted_att = ticket_attribution(
            _Ticket(_run(GRAPHS["grid"](), 8, async_streams=True,
                         fault_plan=self.PLAN), self.DISPATCH),
            dispatch_seconds=self.DISPATCH)
        # The moved seconds come out of the transfer bucket, so the
        # faulted run's transfer share does not grow with the fault.
        assert faulted_att["transfer"] <= att["transfer"] + 1e-12
