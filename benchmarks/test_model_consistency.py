"""Extension bench — internal consistency of the paper-scale extrapolation.

Fig. 5 / Table II report cost ledgers re-evaluated at the paper's graph
sizes.  That is only defensible if the extrapolation is consistent with
actually running a bigger graph: extrapolating a small run by the volume
ratio should land near the measured model time of the larger run.  This
bench measures that error for every partitioner across a 4x size step.
"""

from __future__ import annotations

import pytest

from repro.api import make_partitioner
from repro.graphs import load_dataset

METHODS = ["metis", "parmetis", "mt-metis", "gp-metis"]


@pytest.fixture(scope="module")
def two_scales():
    small = load_dataset("delaunay", scale=0.005)
    large = load_dataset("delaunay", scale=0.02)
    return small, large


def volume(graph) -> float:
    return graph.num_vertices + 2.0 * graph.num_edges


@pytest.mark.parametrize("method", METHODS)
def test_extrapolation_consistency(two_scales, method):
    small, large = two_scales
    rs = make_partitioner(method, seed=1).partition(small, 32)
    rl = make_partitioner(method, seed=1).partition(large, 32)
    factor = volume(large) / volume(small)
    predicted = rs.clock.extrapolated_seconds(factor)
    measured = rl.modeled_seconds
    err = predicted / measured
    print(f"\n{method}: predicted {predicted * 1e3:.2f} ms vs measured "
          f"{measured * 1e3:.2f} ms (ratio {err:.2f})")
    # The extrapolation should land within ~2x across a 4x size step —
    # level counts, boundary fractions and conflict rates all shift with
    # size, so exactness is not expected; order-of-magnitude is required.
    assert 0.5 <= err <= 2.0, err
