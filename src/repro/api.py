"""High-level facade: one call to partition a graph with any method.

>>> import repro
>>> g = repro.graphs.generators.grid2d(64, 64)
>>> result = repro.partition(g, k=8, method="gp-metis")
>>> result.quality(g).cut  # doctest: +SKIP

Every method — the four paper engines, the background systems, and the
non-multilevel baselines — now lives in one registry
(:data:`PARTITIONERS`) mapping the method name to its
``(partitioner class, options dataclass)`` pair, and every call funnels
through :class:`repro.service.PartitionRequest`, the canonical input
type the partition service batches, caches and schedules.
:func:`partition` is a thin shim that builds a request and runs it
synchronously, preserving the historical signature.
"""

from __future__ import annotations

from .baselines.naive import BlockPartitioner, RandomPartitioner
from .baselines.options import BlockOptions, RandomOptions, SpectralOptions
from .baselines.spectral import SpectralPartitioner
from .exceptions import InvalidParameterError
from .gmetis.partitioner import Gmetis, GmetisOptions
from .gpmetis.options import GPMetisOptions
from .gpmetis.partitioner import GPMetis
from .graphs.csr import CSRGraph
from .jostle.partitioner import Jostle, JostleOptions
from .mtmetis.options import MtMetisOptions
from .mtmetis.partitioner import MtMetis
from .parmetis.options import ParMetisOptions
from .parmetis.partitioner import ParMetis
from .ptscotch.partitioner import PTScotch, PTScotchOptions
from .result import PartitionResult
from .runtime.machine import MachineSpec
from .serial.options import SerialOptions
from .serial.partitioner import SerialMetis
from .service.request import PartitionRequest

__all__ = [
    "partition",
    "make_partitioner",
    "available_methods",
    "resolve_method",
    "resolve_options",
    "PARTITIONERS",
    "PartitionRequest",
]

#: method name -> (partitioner class, options class).  Order matters:
#: the four paper methods lead, then the background systems, then the
#: non-multilevel baselines (``available_methods`` preserves it).
PARTITIONERS: dict[str, tuple[type, type]] = {
    "metis": (SerialMetis, SerialOptions),
    "parmetis": (ParMetis, ParMetisOptions),
    "mt-metis": (MtMetis, MtMetisOptions),
    "gp-metis": (GPMetis, GPMetisOptions),
    "pt-scotch": (PTScotch, PTScotchOptions),
    "jostle": (Jostle, JostleOptions),
    "gmetis": (Gmetis, GmetisOptions),
    "spectral": (SpectralPartitioner, SpectralOptions),
    "random": (RandomPartitioner, RandomOptions),
    "block": (BlockPartitioner, BlockOptions),
}

#: Accepted aliases (the paper's own naming included).
_ALIASES = {
    "serial": "metis",
    "ptscotch": "pt-scotch",
    "pt_scotch": "pt-scotch",
    "gpmetis": "gp-metis",
    "gp_metis": "gp-metis",
    "mtmetis": "mt-metis",
    "mt_metis": "mt-metis",
}


def available_methods() -> list[str]:
    """The paper methods, the background systems, then the baselines."""
    return list(PARTITIONERS)


def resolve_method(method: str) -> str:
    """The canonical registry key for a method name or alias."""
    key = _ALIASES.get(method.lower(), method.lower())
    if key not in PARTITIONERS:
        raise InvalidParameterError(
            f"unknown method {method!r}; available: {', '.join(available_methods())}"
        )
    return key


def resolve_options(method: str, **options):
    """The method's options dataclass built from keyword overrides.

    Unknown keys raise :class:`InvalidParameterError` listing the valid
    ones.
    """
    key = resolve_method(method)
    opts_cls = PARTITIONERS[key][1]
    try:
        return opts_cls(**options)
    except TypeError as exc:
        valid = ", ".join(opts_cls.__dataclass_fields__)
        raise InvalidParameterError(
            f"bad options for {key!r}: {exc}; valid options: {valid}"
        ) from None


def make_partitioner(method: str, machine: MachineSpec | None = None, **options):
    """Instantiate a partitioner by name with option overrides.

    ``options`` are forwarded to the method's options dataclass; unknown
    keys raise :class:`InvalidParameterError` listing the valid ones.
    """
    key = resolve_method(method)
    cls = PARTITIONERS[key][0]
    return cls(resolve_options(key, **options), machine=machine)


def partition(
    graph: CSRGraph,
    k: int,
    method: str = "gp-metis",
    machine: MachineSpec | None = None,
    **options,
) -> PartitionResult:
    """Partition ``graph`` into ``k`` parts.

    A thin shim over :class:`repro.service.PartitionRequest`: the request
    is built and run synchronously on the calling thread.  Submit the
    same request to a :class:`repro.service.PartitionService` to get
    queuing, batching and caching instead.

    Parameters
    ----------
    graph:
        The input :class:`~repro.graphs.CSRGraph`.
    k:
        Number of partitions (the paper's evaluation uses 64).
    method:
        One of :func:`available_methods` — ``"metis"`` (serial baseline),
        ``"parmetis"``, ``"mt-metis"``, or ``"gp-metis"`` (default, the
        paper's contribution).
    machine:
        Optional hardware model override (defaults to the paper's
        Xeon E5540 + GTX Titan testbed).
    options:
        Method-specific options, e.g. ``ubfactor=1.05``,
        ``merge_strategy="sort"``, ``num_threads=16``.
    """
    return PartitionRequest(
        graph=graph, k=k, method=method, options=options, machine=machine,
    ).run()
