"""Options dataclasses of the non-multilevel baselines.

They carry only the cross-engine core (:class:`repro.engine.EngineOptions`:
``ubfactor``, ``seed``, ``fault_plan``, ``fault_recovery``), so the
baselines share the registry, the options-hash config fingerprint and the
fault-injection plumbing with the multilevel engines.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..engine import EngineOptions
from ..exceptions import InvalidParameterError

__all__ = ["RandomOptions", "BlockOptions", "SpectralOptions"]


@dataclass(frozen=True)
class RandomOptions(EngineOptions):
    """Knobs of :class:`repro.baselines.RandomPartitioner`."""


@dataclass(frozen=True)
class BlockOptions(EngineOptions):
    """Knobs of :class:`repro.baselines.BlockPartitioner`."""


@dataclass(frozen=True)
class SpectralOptions(EngineOptions):
    """Knobs of :class:`repro.baselines.SpectralPartitioner`."""

    #: Modeled Lanczos sweeps per bisection (drives the cost model).
    lanczos_iterations: int = 60

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.lanczos_iterations < 1:
            raise InvalidParameterError("lanczos_iterations must be >= 1")
