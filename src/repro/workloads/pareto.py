"""Bounded Pareto distribution.

The paper: "We used Bounded Pareto distribution function to generate
resource values owned by a node and requested by a node."  The bounded
(truncated) Pareto on ``[L, H]`` with shape ``alpha`` has density

    f(x) = alpha * L^alpha * x^(-alpha-1) / (1 - (L/H)^alpha)

Implemented from scratch (CDF, quantile function, sampling) so the
CDF-calibrated locality-preserving hash can be driven analytically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.utils.validation import require, require_positive

__all__ = ["BoundedPareto"]


@dataclass(frozen=True)
class BoundedPareto:
    """Bounded Pareto on ``[low, high]`` with shape ``alpha``.

    Examples
    --------
    >>> d = BoundedPareto(alpha=2.0, low=1.0, high=100.0)
    >>> round(d.cdf(1.0), 6), round(d.cdf(100.0), 6)
    (0.0, 1.0)
    >>> abs(d.cdf(d.ppf(0.3)) - 0.3) < 1e-12
    True
    """

    alpha: float
    low: float
    high: float
    #: The truncation normaliser ``1 - (L/H)^alpha``, computed once: the
    #: value hash calls :meth:`cdf` for every registered info.
    _norm: float = field(init=False, repr=False, hash=False, compare=False)

    def __post_init__(self) -> None:
        require_positive(self.alpha, "alpha")
        require_positive(self.low, "low")
        require(self.high > self.low, f"need high > low, got [{self.low}, {self.high}]")
        object.__setattr__(self, "_norm", 1.0 - (self.low / self.high) ** self.alpha)

    def cdf(self, x: float) -> float:
        """Cumulative distribution function F(x)."""
        if x <= self.low:
            return 0.0
        if x >= self.high:
            return 1.0
        return (1.0 - (self.low / x) ** self.alpha) / self._norm

    def ppf(self, q):
        """Quantile function (inverse CDF); exact inverse of :meth:`cdf`.

        Accepts a scalar or an array of quantiles; both go through the
        same inverse transform and both clamp to ``[low, high]`` (the
        array path used to re-implement the transform without the
        clamping, letting roundoff at ``q`` near 1 exceed ``high``).
        """
        if np.ndim(q):
            q = np.asarray(q, dtype=float)
            require(
                bool(((q >= 0.0) & (q <= 1.0)).all()),
                "quantiles must be in [0, 1]",
            )
            x = self.low / (1.0 - q * self._norm) ** (1.0 / self.alpha)
            return np.clip(x, self.low, self.high)
        require(0.0 <= q <= 1.0, f"quantile must be in [0, 1], got {q}")
        if q <= 0.0:
            return self.low
        if q >= 1.0:
            return self.high
        return self.low / (1.0 - q * self._norm) ** (1.0 / self.alpha)

    def sample(self, rng: np.random.Generator, size: int | None = None):
        """Draw samples via inverse-transform sampling.

        Scalar and vector draws share :meth:`ppf` (one implementation of
        the inverse transform, one clamping policy).
        """
        u = rng.random(size)
        return self.ppf(float(u)) if size is None else self.ppf(u)
