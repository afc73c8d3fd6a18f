"""Small argument-validation helpers used across the package.

These raise early with precise messages instead of letting malformed
parameters surface as obscure failures deep inside a simulation run.
"""

from __future__ import annotations

__all__ = ["require", "require_positive"]


def require(condition: bool, message: str) -> None:
    """Raise :class:`ValueError` with ``message`` unless ``condition`` holds."""
    if not condition:
        raise ValueError(message)


def require_positive(value: float, name: str) -> None:
    """Raise unless ``value`` is strictly positive."""
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")

