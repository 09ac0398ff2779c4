"""Table emitters: render modeled results next to the published cells.

Each ``tableN_rows`` returns structured rows (dataset → system →
(modeled, paper)); :func:`format_table` renders them as the aligned
text tables the benchmark scripts print.
"""

from __future__ import annotations

from repro.bench.harness import DatasetRun
from repro.bench.paper import (
    PAPER_DATASET_ORDER,
    PAPER_DATASET_TITLES,
    TABLE1_SECONDS,
    TABLE1_SYSTEMS,
    TABLE2_RATIOS,
    TABLE2_SYSTEMS,
    TABLE3_SECONDS,
    TABLE3_SYSTEMS,
)

__all__ = ["format_figure4", "format_table", "table1_rows", "table2_rows",
           "table3_rows"]

_SYSTEM_TITLES = {
    "serial": "Serial LZSS",
    "pthread": "Pthread LZSS",
    "bzip2": "BZIP2",
    "culzss_v1": "CULZSS V1",
    "culzss_v2": "CULZSS V2",
    "culzss": "CULZSS",
}

Cell = tuple[float, float]  # (ours, paper)
Rows = dict[str, dict[str, Cell]]


def _rows(runs: dict[str, DatasetRun], systems: list[str],
          ours, paper) -> Rows:
    out: Rows = {}
    for name in PAPER_DATASET_ORDER:
        if name not in runs:
            continue
        out[name] = {s: (ours(runs[name], s), paper[name][s])
                     for s in systems}
    return out


def table1_rows(runs: dict[str, DatasetRun]) -> Rows:
    """Table I — compression times (modeled seconds @128 MB vs paper)."""
    return _rows(runs, TABLE1_SYSTEMS,
                 lambda r, s: r.compress_seconds[s], TABLE1_SECONDS)


def table2_rows(runs: dict[str, DatasetRun]) -> Rows:
    """Table II — compression ratios (measured vs paper)."""
    return _rows(runs, TABLE2_SYSTEMS,
                 lambda r, s: r.ratios[s], TABLE2_RATIOS)


def table3_rows(runs: dict[str, DatasetRun]) -> Rows:
    """Table III — decompression times (modeled seconds vs paper)."""
    return _rows(runs, TABLE3_SYSTEMS,
                 lambda r, s: r.decompress_seconds[s], TABLE3_SECONDS)


def format_table(rows: Rows, title: str, percent: bool = False) -> str:
    """Render a rows structure as an aligned ``ours (paper)`` table of
    seconds, or of percentages with ``percent``."""
    systems = list(next(iter(rows.values())).keys())
    col_w = 22
    lines = [title,
             f"{'dataset':<16}" + "".join(
                 f"{_SYSTEM_TITLES.get(s, s):>{col_w}}" for s in systems)]
    for name, cells in rows.items():
        row = [f"{PAPER_DATASET_TITLES.get(name, name):<16}"]
        for s in systems:
            ours, paper = cells[s]
            if percent:
                row.append(f"{ours * 100:8.2f}% ({paper * 100:6.2f}%)".rjust(col_w))
            else:
                row.append(f"{ours:9.2f}s ({paper:7.2f}s)".rjust(col_w))
        lines.append("".join(row))
    lines.append("    (each cell: this reproduction, paper value in parens)")
    return "\n".join(lines)


def format_figure4(runs: dict[str, DatasetRun]) -> str:
    """Figure 4 — speedup over serial LZSS, as an ASCII bar chart whose
    longest bar per dataset is 40 characters."""
    width = 40
    systems = ["pthread", "bzip2", "culzss_v1", "culzss_v2"]
    lines = ["Figure 4: compression speedup vs. serial LZSS "
             "(this reproduction; paper in parens)"]
    paper = TABLE1_SECONDS
    for name in PAPER_DATASET_ORDER:
        if name not in runs:
            continue
        run = runs[name]
        lines.append(f"{PAPER_DATASET_TITLES[name]}:")
        peak = max(run.speedup_vs_serial(s) for s in systems)
        for s in systems:
            ours = run.speedup_vs_serial(s)
            ref = paper[name]["serial"] / paper[name][s]
            bar = "#" * max(1, int(round(ours / max(peak, 1e-9) * width)))
            lines.append(f"  {_SYSTEM_TITLES[s]:<13} {bar:<{width + 1}} "
                         f"{ours:6.2f}x ({ref:5.2f}x)")
    return "\n".join(lines)
