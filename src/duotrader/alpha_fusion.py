"""Consensus fusion of the two model signals into per-symbol insights.

The rule is strict agreement: both models up -> up, both down -> down, any
other combination (including any flat input or a missing model output) is a
flat insight. Magnitude comes from the regime model's expected return, which
is already in return units; the trend network output is in price units and is
not used for sizing.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date

from .directions import DOWN, FLAT, UP
from .errors import ParameterError


@dataclass(frozen=True)
class Insight:
    """Directional forecast for one symbol over a bounded validity span."""

    symbol: str
    direction: str
    magnitude: float
    confidence: float
    issued_at: date
    period: int
    diagnostic: str = ""

    def to_dict(self) -> dict:
        return {
            "symbol": self.symbol,
            "date": self.issued_at.isoformat(),
            "direction": self.direction,
            "magnitude": self.magnitude,
            "confidence": self.confidence,
            "period": self.period,
            "diagnostic": self.diagnostic,
        }


@dataclass
class FusionConfig:
    confidence: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.confidence <= 1.0:
            raise ParameterError("confidence must be in (0, 1]")


def fuse(
    hmm_signal: tuple[str, float] | None,
    nn_signal: tuple[str, float] | None,
    symbol: str,
    issued_at: date,
    period: int,
    config: FusionConfig | None = None,
) -> Insight:
    """Combine (direction, expected return) from the regime model with
    (direction, magnitude) from the trend network.

    A missing model output degrades conservatively to a flat insight with a
    diagnostic note instead of trading on a single model.
    """
    config = config or FusionConfig()
    if hmm_signal is None or nn_signal is None:
        missing = [
            name
            for name, sig in (("hmm", hmm_signal), ("nn", nn_signal))
            if sig is None
        ]
        return Insight(
            symbol, FLAT, 0.0, config.confidence, issued_at, period,
            diagnostic=f"missing model output: {','.join(missing)}",
        )

    hmm_dir, hmm_expected = hmm_signal
    nn_dir, _nn_magnitude = nn_signal
    if hmm_dir == nn_dir and hmm_dir in (UP, DOWN):
        return Insight(
            symbol, hmm_dir, abs(hmm_expected), config.confidence, issued_at, period
        )
    return Insight(symbol, FLAT, 0.0, config.confidence, issued_at, period)
