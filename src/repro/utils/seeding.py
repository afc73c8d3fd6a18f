"""Deterministic hierarchical seeding.

Every stochastic component in the library (overlay construction, workload
generation, churn, query sampling) draws its randomness from a
:class:`SeedFactory`, which derives independent child streams from a single
root seed by *label*.  Two runs with the same root seed and the same labels
therefore produce byte-identical results regardless of the order in which
components are constructed — a requirement for reproducible experiments and
for the resumable benchmark harness.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

import numpy as np

__all__ = ["SeedFactory"]


def _label_to_entropy(label: str) -> int:
    """Map a textual label to a stable 64-bit integer.

    Uses SHA-256 rather than :func:`hash` because the latter is salted per
    interpreter run (PYTHONHASHSEED), which would break reproducibility.
    """
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass
class SeedFactory:
    """Derives independent, label-addressed random streams from one seed.

    Parameters
    ----------
    root_seed:
        The experiment's master seed.  All derived generators are a pure
        function of ``(root_seed, label)``.

    Examples
    --------
    >>> f = SeedFactory(42)
    >>> g1 = f.numpy("workload")
    >>> g2 = SeedFactory(42).numpy("workload")
    >>> bool(g1.integers(1 << 30) == g2.integers(1 << 30))
    True
    """

    root_seed: int

    def child_seed(self, label: str) -> int:
        """Return the derived integer seed for ``label``; repeated calls
        with the same label return the same seed."""
        return (_label_to_entropy(label) ^ (self.root_seed * 0x9E3779B97F4A7C15)) % (1 << 63)

    def numpy(self, label: str) -> np.random.Generator:
        """A NumPy :class:`~numpy.random.Generator` keyed by ``label``."""
        return np.random.default_rng(self.child_seed(label))

    def python(self, label: str) -> random.Random:
        """A stdlib :class:`random.Random` keyed by ``label``."""
        return random.Random(self.child_seed(label))

    def fork(self, label: str) -> "SeedFactory":
        """A child factory whose streams are independent of the parent's."""
        return SeedFactory(self.child_seed(label))
