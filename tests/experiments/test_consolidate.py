"""Tests for the consolidated-report generator."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.experiments.consolidate import build_report, write_report
from repro.experiments.runner import FIGURES


@pytest.fixture()
def artifacts(tmp_path):
    (tmp_path / "fig3a.txt").write_text("fig3a body\n")
    (tmp_path / "fig5b.txt").write_text("fig5b body\n")
    (tmp_path / "theorems.txt").write_text("theorem rows\n")
    (tmp_path / "custom_extra.txt").write_text("extra stuff\n")
    (tmp_path / "fig3a.csv").write_text("ignored,by,report\n")
    return tmp_path


class TestBuildReport:
    def test_sections_in_presentation_order(self, artifacts):
        sections = build_report(artifacts)
        headers = [s.header for s in sections]
        assert headers.index("Figure 3 — maintenance overhead") < headers.index(
            "Theorem constants"
        )

    def test_missing_artifacts_skipped(self, artifacts):
        sections = build_report(artifacts)
        fig3 = next(s for s in sections if "Figure 3" in s.header)
        assert [a for a, _ in fig3.artifacts] == ["fig3a"]  # b/c/d absent

    def test_unknown_artifacts_collected(self, artifacts):
        sections = build_report(artifacts)
        other = next(s for s in sections if s.header == "Other artifacts")
        assert [a for a, _ in other.artifacts] == ["custom_extra"]

    def test_empty_directory(self, tmp_path):
        assert build_report(tmp_path) == []

    def test_every_registered_figure_has_a_section(self, tmp_path):
        """The inventory is the registry: no registered id is a leftover."""
        for figure_id in FIGURES:
            (tmp_path / f"{figure_id}.txt").write_text(f"{figure_id} body\n")
        sections = {s.header: [a for a, _ in s.artifacts] for s in build_report(tmp_path)}
        assert "Other artifacts" not in sections
        assert sorted(a for ids in sections.values() for a in ids) == sorted(FIGURES)
        assert sections["Figure 3 — maintenance overhead"] == [
            "fig3a", "fig3b", "fig3c", "fig3d",
        ]
        assert {"availability", "recovery", "scale"} <= set(sections["Extension figures"])


class TestWriteReport:
    def test_report_contains_bodies(self, artifacts):
        path = write_report(artifacts)
        text = path.read_text()
        assert "fig5b body" in text
        assert "theorem rows" in text
        assert text.startswith("# Evaluation report")

    def test_report_not_self_referential(self, artifacts):
        write_report(artifacts)
        write_report(artifacts)  # second run must not ingest REPORT.md
        text = (artifacts / "REPORT.md").read_text()
        assert "### `REPORT`" not in text

    def test_cli_report_command(self, artifacts, capsys):
        assert main(["report", "--out", str(artifacts)]) == 0
        assert (artifacts / "REPORT.md").exists()
