"""Control parameters of the serial multilevel partitioner.

Defaults follow Metis (Karypis & Kumar, SIAM JSC 20(1)) and the paper's
experimental setup: 3 % imbalance tolerance, HEM matching, coarsening
until the graph has ~max(COARSEN_FACTOR x k, COARSEN_MIN) vertices or
shrinkage stalls.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..engine import MultilevelOptions
from ..exceptions import InvalidParameterError

__all__ = ["SerialOptions"]


@dataclass(frozen=True)
class SerialOptions(MultilevelOptions):
    """Knobs of :class:`repro.serial.SerialMetis`."""

    #: GGGP restarts per bisection; the best cut wins (Metis uses 4).
    gggp_trials: int = 4
    #: FM refinement passes per bisection level.
    fm_passes: int = 4
    #: Greedy k-way refinement passes per uncoarsening level.
    kway_passes: int = 4

    def __post_init__(self) -> None:
        super().__post_init__()
        if min(self.gggp_trials, self.fm_passes, self.kway_passes) < 1:
            raise InvalidParameterError("trial/pass counts must be >= 1")
