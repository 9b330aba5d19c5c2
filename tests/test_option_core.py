"""The engine contract: one option core, checked at build time on every engine.

Every options dataclass extends :class:`repro.engine.EngineOptions`, and
the multilevel ones its coarsening layers, so an out-of-range value is
rejected where the options are built — by ``resolve_options``, by a
``PartitionRequest`` and so by ``PartitionService.submit`` — never
partway through a run.
"""

from __future__ import annotations

import pytest

from repro.api import PARTITIONERS, available_methods, resolve_options
from repro.engine import Engine, EngineOptions
from repro.exceptions import InvalidParameterError
from repro.obs.ledger import options_hash
from repro.service import PartitionRequest, PartitionService

#: ``options_hash`` of every method's default options.  A renamed field
#: or a changed default on any engine changes its ledger fingerprint;
#: the committed ledger baseline only covers gp-metis and mt-metis.
DEFAULT_OPTIONS_HASHES = {
    "metis": "68703a6068bd",
    "parmetis": "4173bacbe5ba",
    "mt-metis": "0a2cdf18e21c",
    "gp-metis": "a35bc7649f5b",
    "pt-scotch": "f5db80abcbde",
    "jostle": "ed017c7bdb0b",
    "gmetis": "f44715f3c0ba",
    "spectral": "97e9de224195",
    "random": "7d8ed22d99ed",
    "block": "7d8ed22d99ed",
}

#: Values the shared checks reject, on every engine that has the field.
OUT_OF_RANGE = [
    {"ubfactor": 0.9},
    {"matching": "bogus"},
    {"min_shrink": 1.5},
    {"min_shrink": -0.1},
    {"coarsen_to_factor": 0},
    {"coarsen_min": 0},
]

CASES = [
    pytest.param(method, bad, id=f"{method}-{'-'.join(f'{k}={v}' for k, v in bad.items())}")
    for method in available_methods()
    for bad in OUT_OF_RANGE
    if set(bad) <= set(PARTITIONERS[method][1].__dataclass_fields__)
]


def test_default_options_hashes_pinned():
    assert {
        method: options_hash(resolve_options(method)) for method in available_methods()
    } == DEFAULT_OPTIONS_HASHES


@pytest.mark.parametrize("method", available_methods())
def test_registry_row_is_read_off_the_engine(method):
    cls, opts_cls = PARTITIONERS[method]
    assert issubclass(cls, Engine)
    assert cls.name == method
    assert opts_cls is cls.options_class
    assert issubclass(opts_cls, EngineOptions)


@pytest.mark.parametrize(("method", "bad"), CASES)
def test_resolve_options_rejects_out_of_range(method, bad):
    with pytest.raises(InvalidParameterError):
        resolve_options(method, **bad)


@pytest.mark.parametrize("method", available_methods())
def test_engine_rejects_positional_float(method):
    # A pre-dataclass call such as SerialMetis(1.05), meaning a ubfactor.
    with pytest.raises(InvalidParameterError, match="options dataclass"):
        PARTITIONERS[method][0](1.05)


@pytest.mark.parametrize("method", available_methods())
def test_engine_rejects_a_non_machine(method):
    with pytest.raises(InvalidParameterError, match="MachineSpec"):
        PARTITIONERS[method][0](machine="titan")


def test_service_rejects_out_of_range_options_before_queueing(grid):
    svc = PartitionService(num_workers=1)
    with pytest.raises(InvalidParameterError, match="min_shrink"):
        svc.submit(PartitionRequest(
            graph=grid, k=4, method="gp-metis", options={"min_shrink": 1.5},
        ))
    assert svc.queued == 0


def test_request_resolves_its_engine_once(grid):
    req = PartitionRequest(graph=grid, k=4, method="gpmetis", seed=5)
    assert req.engine == "gp-metis"
    assert req.engine_options() is req.partitioner.options
    assert req.partitioner.options.seed == 5
