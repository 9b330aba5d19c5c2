"""Unit tests for the non-multilevel baselines (spectral, random, block)."""

import numpy as np
import pytest

from repro.baselines import (
    BlockPartitioner,
    RandomOptions,
    RandomPartitioner,
    SpectralOptions,
    SpectralPartitioner,
    fiedler_vector,
    spectral_bisect,
)
from repro.exceptions import InvalidParameterError, PartitioningError
from repro.graphs import edge_cut, from_edges, validate_partition
from repro.graphs.generators import delaunay, grid2d, path_graph


class TestFiedler:
    def test_path_fiedler_is_monotone(self):
        """The Fiedler vector of a path orders its vertices."""
        g = path_graph(20)
        f = fiedler_vector(g)
        d = np.diff(f)
        assert np.all(d > 0) or np.all(d < 0)

    def test_two_cliques_bridge(self):
        """Fiedler separates two cliques joined by one edge."""
        edges = (
            [(i, j) for i in range(5) for j in range(i + 1, 5)]
            + [(i, j) for i in range(5, 10) for j in range(i + 1, 10)]
            + [(4, 5)]
        )
        g = from_edges(10, edges)
        f = fiedler_vector(g)
        assert (f[:5] > 0).all() != (f[5:] > 0).all()

    def test_disconnected_components_separated(self):
        g = from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
        labels = spectral_bisect(g)
        assert labels[0] == labels[1] == labels[2]
        assert labels[3] == labels[4] == labels[5]
        assert labels[0] != labels[3]

    def test_single_vertex_rejected(self):
        with pytest.raises(PartitioningError):
            fiedler_vector(from_edges(1, []))


class TestSpectralBisect:
    def test_grid_column_split(self):
        g = grid2d(8, 16)
        labels = spectral_bisect(g)
        # A spectral split of a long grid cuts near the short dimension.
        assert edge_cut(g, labels) <= 16

    def test_fraction(self):
        g = delaunay(400, seed=2)
        labels = spectral_bisect(g, fraction=0.25)
        share = labels.sum() / g.num_vertices
        assert 0.15 <= share <= 0.35


class TestSpectralPartitioner:
    def test_valid_balanced(self, medium_graph):
        res = SpectralPartitioner().partition(medium_graph, 8)
        validate_partition(medium_graph, res.part, 8, ubfactor=1.05)

    def test_quality_between_multilevel_and_random(self, medium_graph):
        from repro.api import partition

        ml = partition(medium_graph, 8, method="metis").quality(medium_graph).cut
        sp = SpectralPartitioner().partition(medium_graph, 8).quality(medium_graph).cut
        rnd = RandomPartitioner().partition(medium_graph, 8).quality(medium_graph).cut
        assert ml <= 1.2 * sp  # multilevel at least competitive
        assert sp < rnd

    def test_modeled_time_slower_than_multilevel(self):
        """Sec. II: multilevel improves partitioning *speed* over spectral."""
        from repro.api import partition

        g = delaunay(3000, seed=3)
        ml = partition(g, 8, method="metis").modeled_seconds
        sp = SpectralPartitioner().partition(g, 8).modeled_seconds
        assert sp > ml

    def test_k1(self, grid):
        res = SpectralPartitioner().partition(grid, 1)
        assert np.all(res.part == 0)

    def test_invalid(self, grid):
        with pytest.raises(InvalidParameterError):
            SpectralPartitioner(SpectralOptions(ubfactor=0.5))
        with pytest.raises(InvalidParameterError):
            SpectralPartitioner().partition(grid, 0)


class TestTrivialBaselines:
    def test_random_balanced_unit_weights(self, medium_graph):
        res = RandomPartitioner().partition(medium_graph, 8)
        validate_partition(medium_graph, res.part, 8, ubfactor=1.02)

    def test_random_seed_changes_labels(self, grid):
        a = RandomPartitioner(RandomOptions(seed=1)).partition(grid, 4).part
        b = RandomPartitioner(RandomOptions(seed=2)).partition(grid, 4).part
        assert not np.array_equal(a, b)

    def test_block_contiguous(self, grid):
        res = BlockPartitioner().partition(grid, 4)
        assert np.all(np.diff(res.part) >= 0)

    def test_block_on_ordered_grid_beats_random(self):
        g = grid2d(16, 16)  # row-major labels have locality
        block = BlockPartitioner().partition(g, 4).quality(g).cut
        rand = RandomPartitioner().partition(g, 4).quality(g).cut
        assert block < rand

    def test_empty_graph(self):
        g = from_edges(0, [])
        for cls in (RandomPartitioner, BlockPartitioner):
            res = cls().partition(g, 4)
            assert res.part.size == 0

    def test_legacy_positional_construction_rejected_at_init(self):
        # Pre-dataclass callers wrote RandomPartitioner(1.05, 7) meaning
        # (ubfactor, seed); those now bind (options, machine) and must
        # fail loudly at construction, not with an AttributeError later.
        for cls in (RandomPartitioner, BlockPartitioner, SpectralPartitioner):
            with pytest.raises(InvalidParameterError, match="options dataclass"):
                cls(1.05)
            with pytest.raises(InvalidParameterError, match="MachineSpec"):
                cls(None, 7)
            with pytest.raises(TypeError):
                cls(seed=7)  # bare keyword options are gone too
