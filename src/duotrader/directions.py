"""Directional signal labels shared by both alpha models and the fusion layer."""

UP = "up"
DOWN = "down"
FLAT = "flat"


def sign_direction(value: float) -> str:
    """Map a signed forecast to a direction label. Exact zero is flat."""
    if value > 0:
        return UP
    if value < 0:
        return DOWN
    return FLAT
