"""Property suites over the differential harness: random churn
interleavings x random workload seeds, all four systems each example.

Example counts come from the Hypothesis profile registered in
``tests/conftest.py`` ("dev" locally, "ci" in the workflow); per-test
settings only disable the deadline (a replay builds four overlays).
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.testing.differential import run_differential

graceful_ops = st.lists(
    st.sampled_from(["leave", "join", "stabilize"]), min_size=1, max_size=6
)
crashy_ops = st.lists(
    st.sampled_from(["leave", "join", "stabilize", "fail"]),
    min_size=1,
    max_size=6,
)


class TestDifferentialProperties:
    @given(seed=st.integers(0, 2**16))
    @settings(deadline=None)
    def test_fault_free_replay_is_exact_for_any_seed(self, seed):
        report = run_differential(seed=seed, num_queries=6)
        assert not report.divergences, report.render()

    @given(ops=graceful_ops, seed=st.integers(0, 2**10))
    @settings(deadline=None)
    def test_graceful_interleavings_stay_oracle_exact(self, ops, seed):
        report = run_differential(seed=seed, num_queries=6, churn_ops=tuple(ops))
        assert not report.divergences, report.render()

    @given(ops=crashy_ops, seed=st.integers(0, 2**10))
    @settings(deadline=None)
    def test_crashy_interleavings_never_invent_providers(self, ops, seed):
        report = run_differential(seed=seed, num_queries=6, churn_ops=tuple(ops))
        assert all(
            d.kind == "result-set" and d.detail.endswith("spurious []")
            for d in report.divergences
        ), report.render()
