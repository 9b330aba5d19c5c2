"""The engine-run harness contract, checked on every registered method.

``repro.engine.run_engine`` is the one place the run protocol lives, so
every engine — called directly, not through ``PartitionRequest`` (which
rejects a bad ``k`` before any engine sees it) — must show the same
behaviour.
"""

import pytest

from repro.api import available_methods, make_partitioner
from repro.exceptions import InvalidParameterError
from repro.faults import FaultPlan

pytestmark = pytest.mark.parametrize("method", available_methods())


def test_k0_rejected_by_the_engine(method, grid):
    with pytest.raises(InvalidParameterError, match="k must be >= 1"):
        make_partitioner(method).partition(grid, 0)


def test_run_root_span(method, grid):
    result = make_partitioner(method, seed=3).partition(grid, 4)
    root = result.profiler.root
    assert root.category == "run"
    assert root.attrs["engine"] == method
    assert root.attrs["graph"] == grid.name
    assert root.attrs["k"] == 4
    assert root.attrs["seed"] == 3
    assert root.attrs["options_hash"]


def test_fault_plan_adds_fault_extras(method, grid):
    result = make_partitioner(
        method, fault_plan=FaultPlan.from_seed(3)
    ).partition(grid, 4)
    assert "fault_events" in result.extras
    assert "degraded" in result.extras


def test_no_fault_events_without_a_plan(method, grid):
    result = make_partitioner(method).partition(grid, 4)
    assert "fault_events" not in result.extras
