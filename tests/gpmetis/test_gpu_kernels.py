"""Unit tests for the GP-metis GPU kernels (matching, cmap, contraction,
projection, refinement) against their serial oracles."""

import numpy as np
import pytest

from repro.gpmetis.kernels import (
    consecutive_batches,
    gpu_build_cmap,
    gpu_contract,
    gpu_match,
    gpu_project,
    gpu_refine_level,
)
from repro.gpusim import Device, transfer_graph_to_device
from repro.graphs import edge_cut, imbalance
from repro.runtime.clock import SimClock
from repro.runtime.machine import PAPER_MACHINE
from repro.serial.contraction import build_cmap, contract
from repro.serial.matching import match_is_valid


@pytest.fixture
def dev(clock):
    return Device(PAPER_MACHINE.gpu, clock)


def to_device(dev, graph):
    return transfer_graph_to_device(dev, graph, PAPER_MACHINE.interconnect)


class TestConsecutiveBatches:
    def test_covers_all(self):
        batches = list(consecutive_batches(10, 4))
        assert [b.tolist() for b in batches] == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]

    def test_width_larger_than_n(self):
        batches = list(consecutive_batches(3, 100))
        assert len(batches) == 1


class TestGpuMatch:
    def test_valid_matching(self, dev, medium_graph):
        d_csr = to_device(dev, medium_graph)
        d_match, stats = gpu_match(
            dev, d_csr, medium_graph, 512, "hem", np.random.default_rng(0)
        )
        assert match_is_valid(medium_graph, d_match.data)
        assert stats.pairs > 0

    def test_kernels_recorded(self, dev, medium_graph):
        d_csr = to_device(dev, medium_graph)
        gpu_match(dev, d_csr, medium_graph, 512, "hem", np.random.default_rng(0))
        # One fused match/resolve launch per level.
        assert set(dev.stats.kernels) == {"coarsen.match_resolve"}
        assert dev.stats.kernel("coarsen.match_resolve").launches == 1

    def test_uniform_weights_switch_to_rm(self, dev, grid):
        """Paper: "If all the edges have the same weight, a random matching
        method is used" — two seeds must then differ."""
        d1 = Device(PAPER_MACHINE.gpu, SimClock())
        d2 = Device(PAPER_MACHINE.gpu, SimClock())
        m1, _ = gpu_match(d1, to_device(d1, grid), grid, 64, "hem", np.random.default_rng(1))
        m2, _ = gpu_match(d2, to_device(d2, grid), grid, 64, "hem", np.random.default_rng(2))
        assert not np.array_equal(m1.data, m2.data)


class TestGpuCmap:
    def test_matches_serial_numbering(self, dev, medium_graph):
        d_csr = to_device(dev, medium_graph)
        d_match, _ = gpu_match(dev, d_csr, medium_graph, 256, "hem", np.random.default_rng(0))
        d_cmap, n_coarse = gpu_build_cmap(dev, d_match, 256)
        expect, n_expect = build_cmap(d_match.data)
        assert n_coarse == n_expect
        assert np.array_equal(d_cmap.data, expect)

    def test_four_kernel_pipeline_launched(self, dev, medium_graph):
        d_csr = to_device(dev, medium_graph)
        d_match, _ = gpu_match(dev, d_csr, medium_graph, 256, "hem", np.random.default_rng(0))
        gpu_build_cmap(dev, d_match, 256)
        for name in (
            "coarsen.cmap_mark",
            "coarsen.cmap.inclusive_scan",
            "coarsen.cmap_subtract",
            "coarsen.cmap_final",
        ):
            assert name in dev.stats.kernels, name

    def test_identity_matching(self, dev):
        d_match = dev.adopt(np.arange(10), label="m")
        d_cmap, n = gpu_build_cmap(dev, d_match, 10)
        assert n == 10
        assert np.array_equal(d_cmap.data, np.arange(10))


@pytest.mark.parametrize("strategy", ["hash", "sort"])
@pytest.mark.parametrize("impl", ["vectorized", "reference"])
class TestGpuContract:
    def test_matches_serial_contraction(self, dev, medium_graph, strategy, impl):
        d_csr = to_device(dev, medium_graph)
        d_match, _ = gpu_match(dev, d_csr, medium_graph, 256, "hem", np.random.default_rng(0))
        d_cmap, n_coarse = gpu_build_cmap(dev, d_match, 256)
        out = gpu_contract(
            dev, d_csr, medium_graph, d_match, d_cmap, n_coarse, 256,
            merge_strategy=strategy, merge_impl=impl,
        )
        expect, _ = contract(medium_graph, d_match.data)
        assert np.array_equal(out.coarse.adjp, expect.adjp)
        assert np.array_equal(out.coarse.adjncy, expect.adjncy)
        assert np.array_equal(out.coarse.adjwgt, expect.adjwgt)
        assert np.array_equal(out.coarse.vwgt, expect.vwgt)
        assert out.merge_strategy_used == strategy


class TestContractMemoryBehaviour:
    def test_temporaries_freed(self, dev, medium_graph):
        d_csr = to_device(dev, medium_graph)
        before = dev.allocated_bytes
        d_match, _ = gpu_match(dev, d_csr, medium_graph, 256, "hem", np.random.default_rng(0))
        d_cmap, n_coarse = gpu_build_cmap(dev, d_match, 256)
        out = gpu_contract(dev, d_csr, medium_graph, d_match, d_cmap, n_coarse, 256)
        # Only match, cmap and the coarse CSR remain allocated.
        expected = (
            before
            + d_match.nbytes
            + d_cmap.nbytes
            + sum(d.nbytes for d in out.d_coarse.values())
        )
        assert dev.allocated_bytes == expected

    def test_scan_offsets_size_staging(self, dev, grid):
        d_csr = to_device(dev, grid)
        d_match, _ = gpu_match(dev, d_csr, grid, 64, "hem", np.random.default_rng(0))
        d_cmap, n_coarse = gpu_build_cmap(dev, d_match, 64)
        out = gpu_contract(dev, d_csr, grid, d_match, d_cmap, n_coarse, 64)
        # Max entries bound the actual merged entries.
        assert out.coarse.num_directed_edges <= grid.num_directed_edges


class TestGpuProjection:
    def test_matches_indexing(self, dev):
        coarse_part = dev.adopt(np.array([3, 1, 2]), label="cp")
        cmap = dev.adopt(np.array([0, 0, 1, 2, 2, 1]), label="cm")
        d_fine = gpu_project(dev, coarse_part, cmap, 6, 6)
        assert d_fine.data.tolist() == [3, 3, 1, 2, 2, 1]


class TestGpuRefinement:
    def test_improves_and_balances(self, dev, medium_graph):
        d_csr = to_device(dev, medium_graph)
        rng = np.random.default_rng(0)
        part = rng.integers(0, 4, medium_graph.num_vertices)
        d_part = dev.adopt(part.copy(), label="part")
        before = edge_cut(medium_graph, part)
        gpu_refine_level(dev, d_csr, medium_graph, d_part, 4, 1.05, 4, 256)
        after = edge_cut(medium_graph, d_part.data)
        assert after <= before
        assert imbalance(medium_graph, d_part.data, 4) <= 1.06

    def test_kernel_trio_launched(self, dev, medium_graph):
        d_csr = to_device(dev, medium_graph)
        part = np.arange(medium_graph.num_vertices) % 4
        d_part = dev.adopt(part.copy(), label="part")
        gpu_refine_level(dev, d_csr, medium_graph, d_part, 4, 1.05, 2, 256)
        for name in ("uncoarsen.boundary_gain", "uncoarsen.request", "uncoarsen.explore"):
            assert name in dev.stats.kernels, name

    def test_atomic_requests_counted(self, dev, medium_graph):
        d_csr = to_device(dev, medium_graph)
        rng = np.random.default_rng(1)
        part = rng.integers(0, 4, medium_graph.num_vertices)
        d_part = dev.adopt(part.copy(), label="part")
        gpu_refine_level(dev, d_csr, medium_graph, d_part, 4, 1.05, 2, 256)
        assert dev.stats.kernel("uncoarsen.request").atomic_ops > 0
