"""Figure 3 benches — maintenance overhead at paper scale.

Asserts the paper's claims on all four panels:

* 3(a): LORM's outlinks are constant (≤7) and at least m times below
  Mercury's (Theorem 4.1);
* 3(b): LORM's average directory size is half MAAN's (Theorem 4.2), its
  spread roughly d(1+m/n)=8.78× tighter (Theorem 4.3);
* 3(c): same average as SWORD, ~d× tighter spread (Theorem 4.4);
* 3(d): same average as Mercury, Mercury at most n/(dm)=1.28× more
  balanced (Theorem 4.5).
"""

from __future__ import annotations

import pytest


class TestFig3a:
    def test_fig3a(self, figures):
        result = figures["fig3a"]

        lorm = result.curve("LORM")
        mercury = result.curve("Mercury")
        bound = result.curve("Analysis>LORM")
        # LORM: constant degree, independent of network size.
        assert max(lorm.y) <= 7.0
        assert max(lorm.y) - min(lorm.y) < 0.5
        # Theorem 4.1 at every swept size: saving >= m (LORM <= Mercury/m).
        assert all(l <= b for l, b in zip(lorm.y, bound.y))
        # Mercury's overhead is in the thousands at m=200.
        assert min(mercury.y) > 1000


class TestFig3bcd:
    def test_fig3b(self, figures):
        result = figures["fig3b"]

        maan, lorm = result.row("MAAN"), result.row("LORM")
        analysis = result.row("Analysis-LORM")
        # Theorem 4.2: averages differ exactly by 2 (same total / same n).
        assert lorm.mean == pytest.approx(maan.mean / 2, rel=1e-6)
        assert analysis.mean == pytest.approx(lorm.mean, rel=1e-6)
        # LORM's 99th percentile close to (slightly above) the analysis, as
        # the paper observes.
        assert lorm.p99 >= analysis.p99 * 0.8
        assert lorm.p99 <= analysis.p99 * 2.5
        # MAAN's spread is dominated by the k-piece attribute roots: its
        # tail sits ~d(1+m/n) = 8.78x above LORM's (Theorem 4.3).
        assert maan.p99 > 5 * lorm.p99

    def test_fig3c(self, figures):
        result = figures["fig3c"]

        sword, lorm = result.row("SWORD"), result.row("LORM")
        analysis = result.row("Analysis-LORM")
        assert lorm.mean == pytest.approx(sword.mean, rel=1e-6)
        # SWORD pools whole attributes: p99 around k=500.
        assert sword.p99 >= 400
        # LORM's p99 lands near SWORD/d, slightly above (paper's remark).
        assert lorm.p99 == pytest.approx(analysis.p99, rel=1.0)
        assert lorm.p99 < sword.p99 / 3

    def test_fig3d(self, figures):
        result = figures["fig3d"]

        mercury, lorm = result.row("Mercury"), result.row("LORM")
        # Equal averages (Theorem 4.2)...
        assert lorm.mean == pytest.approx(mercury.mean, rel=1e-6)
        # ...and Mercury at least as balanced (Theorem 4.5), but within the
        # small n/(dm) = 1.28 factor — both are "balanced" approaches.
        assert mercury.p99 <= lorm.p99 * 1.1
        assert lorm.p99 <= mercury.p99 * 2.5
