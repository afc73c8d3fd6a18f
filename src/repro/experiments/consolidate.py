"""Consolidated report: every artifact in ``results/`` stitched into one
Markdown document.

``repro report --out results/`` (or :func:`write_report`) collects the
text renderings the figure runs and benches left behind and assembles
``REPORT.md``: the paper panels in order, the theorem table, the extension
figures and the ablations — a single reviewable artifact for the whole
evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.experiments.runner import FIGURES

__all__ = ["ReportSection", "build_report", "write_report"]

#: Section header of each paper figure; its panels are the registered
#: ids that start with the key.
_PAPER_FIGURES = {
    "fig3": "Figure 3 — maintenance overhead",
    "fig4": "Figure 4 — non-range lookup hops",
    "fig5": "Figure 5 — range-query visited nodes",
    "fig6": "Figure 6 — efficiency under churn",
}

#: Presentation order and headers.  Figure ids come from the registry, so
#: a newly registered figure lands under "Extension figures" with no
#: second list to update; the ablations are written by ``benchmarks/`` and
#: registered nowhere, hence literal.  Anything else found in the results
#: directory is appended under "Other artifacts".
_SECTIONS: tuple[tuple[str, tuple[str, ...]], ...] = (
    *(
        (header, tuple(i for i in FIGURES if i.startswith(prefix)))
        for prefix, header in _PAPER_FIGURES.items()
    ),
    ("Theorem constants", ("theorems",)),
    (
        "Extension figures",
        tuple(
            i for i in FIGURES
            if i != "theorems" and not i.startswith(tuple(_PAPER_FIGURES))
        ),
    ),
    (
        "Ablations and robustness",
        (
            "ablation_lph",
            "ablation_dimension",
            "ablation_span",
            "ablation_pointers",
            "ablation_attr_placement",
            "ablation_routing",
            "failure_injection",
            "registration_cost",
        ),
    ),
)


@dataclass(frozen=True)
class ReportSection:
    """One assembled section: header plus the found artifact bodies."""

    header: str
    artifacts: tuple[tuple[str, str], ...]  # (artifact id, text body)


def _load(results_dir: Path, artifact_id: str) -> str | None:
    path = results_dir / f"{artifact_id}.txt"
    if not path.exists():
        return None
    return path.read_text().rstrip()


def build_report(results_dir: str | Path) -> list[ReportSection]:
    """Collect the available artifacts in presentation order."""
    results_dir = Path(results_dir)
    sections: list[ReportSection] = []
    claimed: set[str] = set()
    for header, artifact_ids in _SECTIONS:
        found = []
        for artifact_id in artifact_ids:
            body = _load(results_dir, artifact_id)
            claimed.add(artifact_id)
            if body is not None:
                found.append((artifact_id, body))
        if found:
            sections.append(ReportSection(header, tuple(found)))

    leftovers = sorted(
        p.stem
        for p in results_dir.glob("*.txt")
        if p.stem not in claimed and p.stem != "REPORT"
    )
    if leftovers:
        found = tuple(
            (artifact_id, _load(results_dir, artifact_id) or "")
            for artifact_id in leftovers
        )
        sections.append(ReportSection("Other artifacts", found))
    return sections


def write_report(results_dir: str | Path) -> Path:
    """Assemble ``REPORT.md`` inside ``results_dir``; returns its path."""
    results_dir = Path(results_dir)
    sections = build_report(results_dir)
    lines: list[str] = [
        "# Evaluation report",
        "",
        "Auto-assembled from the artifacts in this directory "
        "(`repro report`).  See EXPERIMENTS.md for paper-vs-measured "
        "commentary and DESIGN.md for the experiment index.",
        "",
    ]
    for section in sections:
        lines.append(f"## {section.header}")
        lines.append("")
        for artifact_id, body in section.artifacts:
            lines.append(f"### `{artifact_id}`")
            lines.append("")
            lines.append("```")
            lines.append(body)
            lines.append("```")
            lines.append("")
    path = results_dir / "REPORT.md"
    path.write_text("\n".join(lines))
    return path
