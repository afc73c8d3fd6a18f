"""End-to-end figure tests at tiny scale: every paper figure regenerates
with the paper's qualitative shape."""

from __future__ import annotations

import pytest

from repro.analysis import theorems
from repro.experiments import figure3, figure6
from repro.experiments.runner import run_figures


@pytest.fixture(scope="module")
def figures(tiny_config):
    """Figures 3(b)-(d), 4 and 5 through the registry's own rows, once."""
    return run_figures(
        ["fig3b", "fig3c", "fig3d", "fig4a", "fig4b", "fig5a", "fig5b"], tiny_config
    )


class TestFig3a:
    @pytest.fixture(scope="class")
    def result(self, tiny_config):
        return figure3.run_fig3a(tiny_config)

    def test_curves_present(self, result):
        assert result.curve_names == ["Mercury", "Analysis>LORM", "LORM"]

    def test_lorm_constant_degree(self, result):
        assert max(result.curve("LORM").y) <= 7.0

    def test_lorm_below_analysis_bound(self, result):
        """Theorem 4.1: LORM saves at least m times — i.e. LORM's curve
        sits at or below Mercury/m."""
        lorm = result.curve("LORM").y
        bound = result.curve("Analysis>LORM").y
        assert all(l <= b * 1.05 for l, b in zip(lorm, bound))

    def test_mercury_scales_with_m_and_log_n(self, result, tiny_config):
        mercury = result.curve("Mercury").y
        assert mercury[-1] > mercury[0]  # grows with network size
        assert min(mercury) > tiny_config.num_attributes  # ~m * log n


class TestFig3bcd:
    def test_fig3b_shape(self, figures):
        result = figures["fig3b"]
        maan, lorm = result.row("MAAN"), result.row("LORM")
        analysis = result.row("Analysis-LORM")
        # Theorem 4.2: LORM's average is half MAAN's.
        assert lorm.mean == pytest.approx(maan.mean / 2, rel=0.01)
        assert analysis.mean == pytest.approx(maan.mean / 2, rel=0.01)
        # LORM's spread is far tighter than MAAN's.
        assert lorm.p99 < maan.p99

    def test_fig3c_shape(self, figures):
        result = figures["fig3c"]
        sword, lorm = result.row("SWORD"), result.row("LORM")
        # Same total info => same average (Theorem 4.2).
        assert lorm.mean == pytest.approx(sword.mean, rel=0.01)
        assert lorm.p99 < sword.p99

    def test_fig3d_shape(self, figures):
        result = figures["fig3d"]
        mercury, lorm = result.row("Mercury"), result.row("LORM")
        assert lorm.mean == pytest.approx(mercury.mean, rel=0.01)
        # Mercury at least as balanced as LORM (Theorem 4.5).
        assert mercury.p99 <= lorm.p99 * 1.1


class TestFig4:
    @pytest.fixture(scope="class")
    def panels(self, figures):
        return figures["fig4a"], figures["fig4b"]

    def test_both_panels_produced(self, panels):
        assert panels[0].figure_id == "fig4a"
        assert panels[1].figure_id == "fig4b"

    def test_hops_increase_with_attributes(self, panels):
        for curve in panels[0].curves:
            assert curve.y[-1] > curve.y[0]

    def test_ordering_mercury_lorm_maan(self, panels):
        avg = panels[0]
        for i in range(len(avg.curve("MAAN").x)):
            assert avg.curve("Mercury").y[i] < avg.curve("LORM").y[i] < avg.curve("MAAN").y[i]

    def test_maan_twice_mercury(self, panels):
        avg = panels[0]
        ratio = avg.curve("MAAN").y[-1] / avg.curve("Mercury").y[-1]
        assert ratio == pytest.approx(2.0, rel=0.2)

    def test_analysis_curves_derived_from_maan(self, panels, tiny_config):
        avg = panels[0]
        maan = avg.curve("MAAN").y
        n, d = tiny_config.population, tiny_config.dimension
        for name, factor in (
            ("Analysis-LORM", theorems.thm47_contacted_reduction_vs_maan(n, d)),
            ("Analysis-SWORD/Mercury",
             theorems.thm48_contacted_reduction_mercury_sword_vs_maan()),
        ):
            assert avg.curve(name).y == pytest.approx(tuple(v / factor for v in maan))

    def test_total_panel_is_query_count_times_average(self, panels, tiny_config):
        num_queries = tiny_config.num_requesters * tiny_config.queries_per_requester
        avg, total = panels
        for name in ("MAAN", "LORM"):
            assert total.curve(name).y[0] == pytest.approx(
                avg.curve(name).y[0] * num_queries, rel=1e-9
            )


class TestFig5:
    @pytest.fixture(scope="class")
    def panels(self, figures):
        return figures["fig5a"], figures["fig5b"]

    def test_panel_a_systemwide_overlap(self, panels):
        a = panels[0]
        maan, mercury = a.curve("MAAN").y, a.curve("Mercury").y
        for m_val, merc_val in zip(maan, mercury):
            assert m_val == pytest.approx(merc_val, rel=0.15)

    def test_panel_a_matches_analysis(self, panels):
        a = panels[0]
        for measured, analysis in (("MAAN", "Analysis-MAAN"), ("Mercury", "Analysis-Mercury")):
            for got, want in zip(a.curve(measured).y, a.curve(analysis).y):
                assert got == pytest.approx(want, rel=0.25)

    def test_panel_b_sword_exact(self, panels, tiny_config):
        b = panels[1]
        nq = tiny_config.num_range_queries
        for i, m in enumerate(b.curve("SWORD").x):
            assert b.curve("SWORD").y[i] == nq * m  # exactly m visits/query

    def test_panel_b_lorm_close_to_analysis(self, panels):
        b = panels[1]
        for got, want in zip(b.curve("LORM").y, b.curve("Analysis-LORM").y):
            assert got == pytest.approx(want, rel=0.3)

    def test_lorm_orders_of_magnitude_below_systemwide(self, panels):
        a, b = panels
        assert b.curve("LORM").y[0] * 5 < a.curve("Mercury").y[0]


class TestFig6:
    @pytest.fixture(scope="class")
    def panels(self, tiny_config):
        return figure6.run_fig6(tiny_config)

    def test_no_failures(self, panels):
        assert any("no failures" in note for note in panels[0].notes)

    def test_hops_flat_in_churn_rate(self, panels):
        """The paper's observation: dynamism barely affects hop counts."""
        a = panels[0]
        for name in ("LORM", "Mercury", "SWORD", "MAAN"):
            ys = a.curve(name).y
            assert max(ys) - min(ys) < 0.35 * max(ys)

    def test_visited_flat_in_churn_rate(self, panels):
        b = panels[1]
        for name in ("LORM", "Mercury", "MAAN"):
            ys = b.curve(name).y
            assert max(ys) - min(ys) < 0.35 * max(ys)

    def test_analysis_lines_flat(self, panels):
        for panel in panels:
            for curve in panel.curves:
                if curve.name.startswith("Analysis"):
                    assert len(set(curve.y)) == 1

    def test_ordering_preserved_under_churn(self, panels):
        a, b = panels
        assert a.curve("Mercury").y[0] < a.curve("LORM").y[0] < a.curve("MAAN").y[0]
        assert b.curve("SWORD").y[0] <= b.curve("LORM").y[0] < b.curve("Mercury").y[0]
