"""Sanitized runs of the GP-metis GPU kernels.

The tentpole acceptance check: every kernel family of the pipeline must
come out race-free under fuzzed thread schedules, and the mutation
self-check (matching with conflict resolution disabled) must provably
trigger a detection.
"""

import numpy as np
import pytest

from repro.gpmetis import GPMetis, GPMetisOptions
from repro.gpmetis.kernels.matching import gpu_match
from repro.gpusim import Device, transfer_graph_to_device
from repro.graphs import validate_partition
from repro.graphs.generators import delaunay, star_graph
from repro.runtime.clock import SimClock
from repro.runtime.machine import PAPER_MACHINE

#: The six kernel modules of gpmetis/kernels/, by the launch names each
#: contributes (merge_hash/merge_sort run inside contract_merge).
KERNEL_FAMILIES = {
    # Match and conflict resolution run as one fused launch.
    "matching": ("coarsen.match_resolve",),
    "cmap": ("coarsen.cmap_mark", "coarsen.cmap_subtract", "coarsen.cmap_final"),
    "contraction": ("coarsen.contract_count", "coarsen.contract_merge",
                    "coarsen.contract_compact"),
    "merge": ("coarsen.contract_merge",),
    "projection": ("uncoarsen.project",),
    "refinement": ("uncoarsen.boundary_gain", "uncoarsen.request",
                   "uncoarsen.explore"),
}


@pytest.fixture(scope="module")
def sanitized_run():
    graph = delaunay(9000, seed=7)
    opts = GPMetisOptions(
        gpu_threshold_min=2048, sanitize=True, fuzz_schedules=3, seed=7
    )
    res = GPMetis(opts).partition(graph, 8)
    return graph, res


class TestCleanPipeline:
    def test_result_still_valid(self, sanitized_run):
        graph, res = sanitized_run
        validate_partition(graph, res.part, 8, ubfactor=1.031)
        assert res.extras["gpu_levels"] >= 1

    def test_all_launches_race_free(self, sanitized_run):
        _, res = sanitized_run
        san = res.extras["sanitizer"]
        assert san is not None
        racy = san.racy_reports
        assert san.race_free, "\n".join(r.render() for r in racy)

    def test_every_kernel_family_covered(self, sanitized_run):
        _, res = sanitized_run
        checked = res.extras["sanitizer"].kernels_checked()
        for family, names in KERNEL_FAMILIES.items():
            assert any(n in checked for n in names), (
                f"{family} kernels never ran under the sanitizer: {sorted(checked)}"
            )

    def test_three_schedules_per_launch(self, sanitized_run):
        _, res = sanitized_run
        for rep in res.extras["sanitizer"].reports:
            assert rep.schedules_checked >= 3
            assert len(rep.schedule_names) == rep.schedules_checked
            assert rep.schedule_names[0] == "reverse"

    def test_reports_surface_in_trace(self, sanitized_run):
        _, res = sanitized_run
        assert res.trace.race_reports
        assert res.trace.races_detected == 0
        assert "sanitizer:" in res.trace.render()

    def test_sanitize_mode_matches_plain_result(self, sanitized_run):
        graph, res = sanitized_run
        plain = GPMetis(
            GPMetisOptions(gpu_threshold_min=2048, seed=7)
        ).partition(graph, 8)
        # Observation must not perturb the partition.
        assert np.array_equal(plain.part, res.part)
        assert plain.extras["sanitizer"] is None


class TestMutationSelfCheck:
    """Disabling the two-round conflict resolution MUST be detected."""

    def _match_star(self, resolve):
        graph = star_graph(64)
        dev = Device(PAPER_MACHINE.gpu, SimClock())
        san = dev.enable_sanitizer(fuzz_schedules=3, seed=1)
        d_csr = transfer_graph_to_device(dev, graph, PAPER_MACHINE.interconnect)
        gpu_match(dev, d_csr, graph, 32, "hem", np.random.default_rng(1),
                  resolve_conflicts=resolve)
        return san

    def test_disabled_resolution_triggers_race(self):
        san = self._match_star(resolve=False)
        assert san.num_races >= 1
        kinds = {
            f.kind for r in san.racy_reports for f in r.findings
            if f.severity == "race"
        }
        # Every leaf claims the hub: asymmetric M[hub] writes disagree.
        assert "write-write" in kinds

    def test_enabled_resolution_is_clean(self):
        san = self._match_star(resolve=True)
        assert san.race_free, "\n".join(r.render() for r in san.racy_reports)

    def test_mutation_diverges_under_schedules(self):
        san = self._match_star(resolve=False)
        kinds = {
            f.kind for r in san.racy_reports for f in r.findings
            if f.severity == "race"
        }
        # The committed winner depends on thread arbitration, so the
        # behavioral fuzzer must also catch it, independently of the
        # static write-set check.
        counts = {}
        for r in san.reports:
            for k, v in r.counts.items():
                counts[k] = counts.get(k, 0) + v
        assert counts.get("schedule-divergence", 0) >= 1, (kinds, counts)
