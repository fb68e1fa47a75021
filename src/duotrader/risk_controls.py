"""Per-position risk overlays: maximum drawdown from peak, and a trailing
stop that ratchets up with the peak close and never loosens.

Both checks run on daily closes. When both rules breach on the same bar the
drawdown reason wins. Execution timing (liquidate at the next open) is the
engine's job; this module only decides.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import InvalidInputError, ParameterError

HOLD = "hold"
LIQUIDATE = "liquidate"
REASON_MAX_DRAWDOWN = "max-drawdown"
REASON_TRAILING_STOP = "trailing-stop"


@dataclass
class RiskConfig:
    max_drawdown_per_security: float = 0.05
    trailing_fraction: float = 0.08

    def __post_init__(self):
        for name in ("max_drawdown_per_security", "trailing_fraction"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ParameterError(f"{name} must be in (0, 1), got {value}")


@dataclass(frozen=True)
class PositionRiskState:
    symbol: str
    entry_price: float
    peak_price: float
    trailing_stop: float

    @classmethod
    def open_position(cls, symbol: str, entry_price: float, config: RiskConfig) -> "PositionRiskState":
        if entry_price <= 0:
            raise InvalidInputError("entry price must be positive")
        return cls(
            symbol=symbol,
            entry_price=entry_price,
            peak_price=entry_price,
            trailing_stop=entry_price * (1.0 - config.trailing_fraction),
        )


@dataclass(frozen=True)
class RiskDecision:
    action: str            # hold | liquidate
    reason: str | None     # max-drawdown | trailing-stop
    close: float
    stop_level: float
    drawdown: float


def update_and_check(
    state: PositionRiskState, close: float, config: RiskConfig
) -> tuple[PositionRiskState, RiskDecision]:
    """Advance the peak and trailing stop with today's close, then decide.

    The stop only moves up: max(previous stop, new peak * (1 - trailing)).
    Liquidation reasons: drawdown from peak exceeding the per-security cap
    (checked first), else close at or below the trailing stop.
    """
    if close <= 0 or not close == close:
        raise InvalidInputError(f"close must be a positive price, got {close}")
    peak = max(state.peak_price, close)
    stop = max(state.trailing_stop, peak * (1.0 - config.trailing_fraction))
    drawdown = (peak - close) / peak
    new_state = replace(state, peak_price=peak, trailing_stop=stop)

    if drawdown > config.max_drawdown_per_security:
        decision = RiskDecision(LIQUIDATE, REASON_MAX_DRAWDOWN, close, stop, drawdown)
    elif close <= stop:
        decision = RiskDecision(LIQUIDATE, REASON_TRAILING_STOP, close, stop, drawdown)
    else:
        decision = RiskDecision(HOLD, None, close, stop, drawdown)
    return new_state, decision
