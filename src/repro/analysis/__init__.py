"""Closed-form analytical models (Section IV of the paper).

:mod:`repro.analysis.theorems` encodes Theorems 4.1–4.10 and the expected
hop counts; :mod:`repro.analysis.models` derives the paper's "Analysis-X"
curves from measured reference series exactly the way Section V does
(measured curve of the reference system scaled by the theorem's factor).
"""

from repro.analysis import theorems
from repro.analysis.models import AnalysisCurve, derive_curve

__all__ = ["AnalysisCurve", "derive_curve", "theorems"]
