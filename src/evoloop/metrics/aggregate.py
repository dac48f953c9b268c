"""Per-direction score rows and their report-level aggregation."""

from __future__ import annotations

from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from typing import Sequence

from ..corpus import ResourceLevel, resource_level
from ..errors import EmptyInput


@dataclass(frozen=True)
class DirectionScore:
    """Aggregated metrics for one translation direction.

    comet is on the 0-100 report scale (raw scorer output times 100).
    """

    direction: tuple[str, str]
    spbleu: float
    comet: float
    n_samples: int

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError(f"n_samples must be >= 1, got {self.n_samples}")
        if not 0.0 <= self.spbleu <= 100.0:
            raise ValueError(f"spbleu out of range: {self.spbleu}")
        if not 0.0 <= self.comet <= 100.0:
            raise ValueError(f"comet out of range: {self.comet}")


def round1(value: float) -> float:
    """Report rounding: one decimal, halves away from zero."""
    return float(Decimal(str(value)).quantize(Decimal("0.1"), rounding=ROUND_HALF_UP))


def average_directions(rows: Sequence[DirectionScore]) -> tuple[float, float]:
    """Unweighted mean over directions, rounded to the 1-decimal report scale."""
    if not rows:
        raise EmptyInput("no direction rows to average")
    avg_spbleu = sum(r.spbleu for r in rows) / len(rows)
    avg_comet = sum(r.comet for r in rows) / len(rows)
    return round1(avg_spbleu), round1(avg_comet)


def aggregate_by_resource(
    rows: Sequence[DirectionScore],
) -> dict[ResourceLevel, tuple[float, float]]:
    """Group rows by the target language's resource level; mean per group.

    Groups nothing maps to are omitted.
    """
    groups: dict[ResourceLevel, list[DirectionScore]] = {}
    for row in rows:
        groups.setdefault(resource_level(row.direction[1]), []).append(row)
    return {level: average_directions(members) for level, members in groups.items()}
