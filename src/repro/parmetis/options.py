"""Control parameters of the ParMetis reproduction."""

from __future__ import annotations

from dataclasses import dataclass

from ..engine import MultilevelOptions
from ..exceptions import InvalidParameterError

__all__ = ["ParMetisOptions"]


@dataclass(frozen=True)
class ParMetisOptions(MultilevelOptions):
    """Knobs of :class:`repro.parmetis.ParMetis` (paper defaults: 8 ranks)."""

    num_ranks: int = 8
    #: Alternating-direction match passes per level ("after a few passes,
    #: a maximal set is reached").
    match_passes: int = 4
    refine_passes: int = 4

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.num_ranks < 1:
            raise InvalidParameterError("num_ranks must be >= 1")
        if self.match_passes < 1 or self.refine_passes < 1:
            raise InvalidParameterError("pass counts must be >= 1")
