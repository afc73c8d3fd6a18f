"""End-to-end churn: the Section V-C experiment at miniature scale."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.common import build_services
from repro.experiments.figure6 import run_churn_trial
from repro.sim.churn import ChurnProcess
from repro.sim.invariants import install_churn_guards
from repro.workloads.generator import QueryKind


class TestChurnTrial:
    @pytest.fixture(scope="class")
    def trial(self, tiny_config):
        return run_churn_trial(tiny_config, rate=0.5)

    def test_no_query_failures(self, trial):
        assert trial.failures == 0

    def test_churn_events_actually_happened(self, tiny_config, monkeypatch):
        scheduled = []
        install = ChurnProcess.install

        def counted(process, *args, **kwargs):
            scheduled.append(install(process, *args, **kwargs))
            return scheduled[-1]

        monkeypatch.setattr(ChurnProcess, "install", counted)
        run_churn_trial(tiny_config, rate=0.5)
        assert len(scheduled) == 4 and all(scheduled)  # every approach churned

    def test_all_approaches_reported(self, trial):
        assert set(trial) == {"LORM", "Mercury", "SWORD", "MAAN"}

    def test_metrics_sane(self, trial):
        for name, (hops, visited) in trial.items():
            assert hops > 0, name
            assert visited >= 1, name

    def test_ordering_under_churn(self, trial):
        assert trial["Mercury"][0] < trial["MAAN"][0]
        assert trial["SWORD"][1] <= trial["LORM"][1] < trial["Mercury"][1]


class TestQueriesDuringManualChurn:
    def test_every_service_stays_correct_through_churn(
        self, tiny_config, assert_invariants
    ):
        """Interleave churn and queries; answers must stay brute-force
        correct for all approaches (info is handed off on departure).
        Churn guards validate structural invariants and directory
        conservation at every event along the way."""
        bundle = build_services(tiny_config)
        guards = [install_churn_guards(service) for service in bundle.all()]
        wl = bundle.workload
        rng = np.random.default_rng(1)
        queries = list(wl.query_stream(30, 2, QueryKind.RANGE, label="manual-churn"))
        for i, query in enumerate(queries):
            for service in bundle.all():
                if i % 3 == 0:
                    service.churn_leave()
                elif i % 3 == 1:
                    service.churn_join()
                if i % 10 == 0:
                    service.stabilize()
                assert service.multi_query(query).providers == (
                    wl.matching_providers_bruteforce(query)
                ), f"{service.name} wrong after churn step {i}"
        assert all(guard.events > 0 for guard in guards)
        assert_invariants(bundle)

    def test_population_recovers_after_balanced_churn(self, tiny_config):
        bundle = build_services(tiny_config, register=False)
        for service in bundle.all():
            start = service.num_nodes()
            for _ in range(10):
                service.churn_leave()
            for _ in range(10):
                service.churn_join()
            assert service.num_nodes() == start
