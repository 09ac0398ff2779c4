"""Paper-vs-reproduction reporting (feeds EXPERIMENTS.md).

Builds, for every cell of Tables I–III and every Figure 4 bar, the
(reproduction, paper, ratio) triple plus whether the cell was a
calibration anchor, and renders the whole thing as Markdown.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.harness import DatasetRun
from repro.bench.paper import PAPER_DATASET_ORDER, PAPER_DATASET_TITLES
from repro.bench.tables import table1_rows, table2_rows, table3_rows

__all__ = ["CellReport", "experiments_markdown", "table_reports"]

#: (table, dataset, system) triples pinned by the calibration fit.
ANCHOR_CELLS = {
    ("table1", "cfiles", "serial"),
    ("table1", "cfiles", "pthread"),
    ("table1", "cfiles", "bzip2"),
    ("table1", "cfiles", "culzss_v1"),
    ("table1", "cfiles", "culzss_v2"),
    ("table3", "cfiles", "serial"),
    ("table3", "cfiles", "culzss"),
}


@dataclass
class CellReport:
    """One table cell: reproduction vs paper."""

    table: str
    dataset: str
    system: str
    ours: float
    paper: float
    is_anchor: bool

    @property
    def ratio(self) -> float:
        return self.ours / self.paper if self.paper else float("inf")


def table_reports(runs: dict[str, DatasetRun]) -> list[CellReport]:
    """Every cell of Tables I–III as a :class:`CellReport`."""
    return [CellReport(table=table, dataset=name, system=system,
                       ours=ours, paper=paper,
                       is_anchor=(table, name, system) in ANCHOR_CELLS)
            for table, rows in (("table1", table1_rows(runs)),
                                ("table2", table2_rows(runs)),
                                ("table3", table3_rows(runs)))
            for name, cells in rows.items()
            for system, (ours, paper) in cells.items()]


def experiments_markdown(runs: dict[str, DatasetRun]) -> str:
    """Render the paper-vs-reproduction comparison as Markdown."""
    cells = table_reports(runs)
    titles = {"table1": "Table I — compression time (s, 128 MB, modeled)",
              "table2": "Table II — compression ratio (measured)",
              "table3": "Table III — decompression time (s, modeled)"}
    lines: list[str] = []
    for table in ("table1", "table2", "table3"):
        subset = [c for c in cells if c.table == table]
        systems = list(dict.fromkeys(c.system for c in subset))
        lines.append(f"### {titles[table]}\n")
        lines.append("| dataset | " + " | ".join(systems) + " |")
        lines.append("|---" * (len(systems) + 1) + "|")
        for name in PAPER_DATASET_ORDER:
            row = [PAPER_DATASET_TITLES[name]]
            for system in systems:
                cell = next((c for c in subset
                             if c.dataset == name and c.system == system), None)
                if cell is None:
                    row.append("—")
                    continue
                mark = " ⚓" if cell.is_anchor else ""
                row.append(f"{cell.ours:.3g} / {cell.paper:.3g}"
                           f" ({cell.ratio:.2f}×){mark}")
            lines.append("| " + " | ".join(row) + " |")
        lines.append("")
    lines.append("Cells are `reproduction / paper (ratio)`; ⚓ marks the "
                 "calibration anchors (fitted to that exact cell), every "
                 "other cell is a prediction.")
    return "\n".join(lines)
