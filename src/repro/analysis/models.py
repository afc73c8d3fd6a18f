"""Derivation of the paper's "Analysis-X" curves.

Section V never re-simulates the analytical predictions; it takes the
*measured* curve of a reference system and scales it by the theorem's
factor — e.g. "Analysis>LORM" in Figure 3(a) is Mercury's measured outlink
curve divided by m, and "Analysis-LORM" in Figure 4 is MAAN's measured hop
curve divided by log(n)/d.  :func:`derive_curve` reproduces exactly that
construction so the harness emits analysis series the same way the paper
does.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.validation import require

__all__ = ["AnalysisCurve", "derive_curve"]


@dataclass(frozen=True)
class AnalysisCurve:
    """A named (x, y) series, measured or analysis-derived."""

    name: str
    x: tuple[float, ...]
    y: tuple[float, ...]

    def __post_init__(self) -> None:
        require(len(self.x) == len(self.y), f"{self.name}: x/y length mismatch")


def derive_curve(name: str, reference: AnalysisCurve, *, divide_by: float) -> AnalysisCurve:
    """Divide a measured reference series by a theorem's factor.

    Examples
    --------
    >>> mercury = AnalysisCurve("Mercury", (1.0, 2.0), (200.0, 400.0))
    >>> derive_curve("Analysis>LORM", mercury, divide_by=200.0).y
    (1.0, 2.0)
    """
    require(divide_by != 0, "cannot divide by zero")
    # Multiplying by the reciprocal, not dividing: the committed curves
    # were computed this way, and the two can differ in the last ulp.
    factor = 1.0 / divide_by
    return AnalysisCurve(
        name=name, x=reference.x, y=tuple(v * factor for v in reference.y)
    )

