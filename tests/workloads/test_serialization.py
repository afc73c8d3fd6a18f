"""Tests for workload save/load round-trips."""

from __future__ import annotations

import json

import pytest

from repro.workloads.attributes import AttributeSchema
from repro.workloads.generator import GridWorkload
from repro.workloads.serialization import dump_workload, load_workload, save_workload


@pytest.fixture()
def workload() -> GridWorkload:
    return GridWorkload(
        schema=AttributeSchema.synthetic(7),
        infos_per_attribute=20,
        seed=321,
        mean_span_fraction=0.2,
    )


class TestRoundTrip:
    def test_parameters_preserved(self, workload, tmp_path):
        path = save_workload(workload, tmp_path / "wl.json")
        loaded = load_workload(path)
        assert loaded.seed == workload.seed
        assert loaded.infos_per_attribute == workload.infos_per_attribute
        assert loaded.mean_span_fraction == workload.mean_span_fraction
        assert loaded.schema.names == workload.schema.names

    def test_values_regenerate_identically(self, workload, tmp_path):
        loaded = load_workload(save_workload(workload, tmp_path / "wl.json"))
        assert list(loaded.resource_infos()) == list(workload.resource_infos())

    def test_queries_regenerate_identically(self, workload, tmp_path):
        from repro.workloads.generator import QueryKind

        loaded = load_workload(save_workload(workload, tmp_path / "wl.json"))
        a = list(workload.query_stream(10, 2, QueryKind.RANGE, label="s"))
        b = list(loaded.query_stream(10, 2, QueryKind.RANGE, label="s"))
        assert a == b

    def test_categorical_attributes_preserved(self, tmp_path):
        wl = GridWorkload(AttributeSchema.synthetic(6), infos_per_attribute=5, seed=1)
        loaded = load_workload(save_workload(wl, tmp_path / "c.json"))
        os_spec = loaded.schema.spec("os")
        assert os_spec.categories
        assert os_spec.categories == wl.schema.spec("os").categories


class TestEmbeddedValues:
    def test_embedded_values_verified_ok(self, workload, tmp_path):
        path = save_workload(workload, tmp_path / "v.json", include_values=True)
        loaded = load_workload(path)
        assert loaded.seed == workload.seed

    def test_tampered_values_rejected(self, workload, tmp_path):
        doc = dump_workload(workload, include_values=True)
        doc["values"]["cpu-mhz"][0] += 1.0
        with pytest.raises(ValueError, match="drift"):
            load_workload(doc)

    def test_values_present_in_document(self, workload):
        doc = dump_workload(workload, include_values=True)
        assert len(doc["values"]) == len(workload.schema)
        assert len(doc["values"]["cpu-mhz"]) == workload.num_providers


class TestValidation:
    def test_unsupported_version_rejected(self, workload):
        doc = dump_workload(workload)
        doc["format_version"] = 99
        with pytest.raises(ValueError, match="format version"):
            load_workload(doc)

    def test_file_is_valid_json(self, workload, tmp_path):
        path = save_workload(workload, tmp_path / "j.json")
        parsed = json.loads(path.read_text())
        assert parsed["seed"] == 321
