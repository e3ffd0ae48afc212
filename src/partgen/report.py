"""Result emission: report JSON files, CSV flattening, and small
hand-rolled SVG charts (no plotting dependency, byte-stable output)."""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from html import escape
from pathlib import Path
from typing import Sequence

from .errors import MalformedReport
from .taxonomy import MAX_ATOMS_PER_PROMPT, MIN_ATOMS_PER_PROMPT

REQUIRED_REPORT_FIELDS = ("metric", "per_sample", "final_score")


def write_report(path: str | Path, report: dict) -> None:
    for field in REQUIRED_REPORT_FIELDS:
        if field not in report:
            raise MalformedReport(f"report is missing required field {field!r}")
    Path(path).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def load_report(path: str | Path) -> dict:
    try:
        report = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise MalformedReport(f"cannot load report {path}: {exc}") from exc
    if not isinstance(report, dict):
        raise MalformedReport(f"{path}: report must be a JSON object")
    for field in REQUIRED_REPORT_FIELDS:
        if field not in report:
            raise MalformedReport(f"{path}: report is missing required field {field!r}")
    return report


def _svg_header(width: int, height: int, title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width // 2}" y="24" text-anchor="middle" font-family="sans-serif" font-size="16">{escape(title, quote=False)}</text>',
    ]


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def svg_line_chart(
    series: dict[str, Sequence[tuple[float, float]]],
    title: str,
    x_label: str,
    y_label: str,
    width: int = 640,
    height: int = 400,
) -> str:
    """Line chart with one polyline per series, legend, and value labels.

    Raises MalformedReport when the values' range overflows a float.
    """
    if not series:
        raise ValueError("series must be non-empty")
    margin_l, margin_r, margin_t, margin_b = 70, 30, 50, 50
    plot_w = width - margin_l - margin_r
    plot_h = height - margin_t - margin_b
    xs = sorted({x for pts in series.values() for x, _ in pts})
    ys = [y for pts in series.values() for _, y in pts]
    x_min, x_max = min(xs), max(xs)
    y_min, y_max = min(0.0, min(ys)), max(1.0, max(ys))
    x_span = (x_max - x_min) or 1.0
    y_span = (y_max - y_min) or 1.0
    if not (math.isfinite(x_span) and math.isfinite(y_span)):
        # two finite values can still lie further apart than a float holds
        raise MalformedReport(f"chart values span more than a float holds: x {x_min:g} to {x_max:g}, y {y_min:g} to {y_max:g}")

    def px(x: float) -> float:
        return margin_l + (x - x_min) / x_span * plot_w

    def py(y: float) -> float:
        return margin_t + plot_h - (y - y_min) / y_span * plot_h

    parts = _svg_header(width, height, title)
    parts.append(
        f'<line x1="{margin_l}" y1="{margin_t + plot_h}" x2="{margin_l + plot_w}" y2="{margin_t + plot_h}" stroke="black"/>'
    )
    parts.append(f'<line x1="{margin_l}" y1="{margin_t}" x2="{margin_l}" y2="{margin_t + plot_h}" stroke="black"/>')
    for x in xs:
        parts.append(
            f'<text x="{px(x):.1f}" y="{margin_t + plot_h + 20}" text-anchor="middle" font-family="sans-serif" font-size="12">{x:g}</text>'
        )
    for i in range(6):
        y = y_min + y_span * i / 5
        parts.append(
            f'<text x="{margin_l - 8}" y="{py(y):.1f}" text-anchor="end" font-family="sans-serif" font-size="12">{y:.2f}</text>'
        )
    parts.append(
        f'<text x="{margin_l + plot_w / 2:.1f}" y="{height - 10}" text-anchor="middle" font-family="sans-serif" font-size="13">{escape(x_label, quote=False)}</text>'
    )
    parts.append(
        f'<text x="18" y="{margin_t + plot_h / 2:.1f}" text-anchor="middle" font-family="sans-serif" font-size="13" transform="rotate(-90 18 {margin_t + plot_h / 2:.1f})">{escape(y_label, quote=False)}</text>'
    )
    for idx, label in enumerate(sorted(series)):
        color = _PALETTE[idx % len(_PALETTE)]
        pts = sorted(series[label])
        coords = " ".join(f"{px(x):.1f},{py(y):.1f}" for x, y in pts)
        parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="2"/>')
        for x, y in pts:
            parts.append(f'<circle cx="{px(x):.1f}" cy="{py(y):.1f}" r="3.5" fill="{color}"/>')
        legend_y = margin_t + 6 + 18 * idx
        parts.append(f'<rect x="{width - 160}" y="{legend_y - 10}" width="12" height="12" fill="{color}"/>')
        parts.append(
            f'<text x="{width - 142}" y="{legend_y}" font-family="sans-serif" font-size="12">{escape(label, quote=False)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def svg_bar_chart(values: dict[str, float], title: str, width: int = 640, height: int = 400) -> str:
    """Bar chart of named scalar metrics, labels under the bars."""
    if not values:
        raise ValueError("values must be non-empty")
    margin_l, margin_r, margin_t, margin_b = 70, 30, 50, 70
    plot_w = width - margin_l - margin_r
    plot_h = height - margin_t - margin_b
    labels = list(values)
    top = max(max(values.values()), 1e-12)
    slot = plot_w / len(labels)
    bar_w = slot * 0.6
    parts = _svg_header(width, height, title)
    parts.append(
        f'<line x1="{margin_l}" y1="{margin_t + plot_h}" x2="{margin_l + plot_w}" y2="{margin_t + plot_h}" stroke="black"/>'
    )
    for idx, label in enumerate(labels):
        v = values[label]
        bar_h = max(0.0, v / top) * plot_h
        x = margin_l + slot * idx + (slot - bar_w) / 2
        y = margin_t + plot_h - bar_h
        color = _PALETTE[idx % len(_PALETTE)]
        parts.append(f'<rect x="{x:.1f}" y="{y:.1f}" width="{bar_w:.1f}" height="{bar_h:.1f}" fill="{color}"/>')
        parts.append(
            f'<text x="{x + bar_w / 2:.1f}" y="{y - 6:.1f}" text-anchor="middle" font-family="sans-serif" font-size="12">{v:.4g}</text>'
        )
        parts.append(
            f'<text x="{x + bar_w / 2:.1f}" y="{margin_t + plot_h + 20}" text-anchor="middle" font-family="sans-serif" font-size="12">{escape(label, quote=False)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def complexity_report(reports: Sequence[dict], out_csv: str | Path, out_svg: str | Path) -> None:
    """Flatten per-complexity reports into a CSV and a score-vs-complexity
    line chart, one line per model label.

    Every report needs the same metric name (a string), an integer
    complexity that is a part count (2 to 4), a finite final_score and, if
    given, a string model label; each (model, complexity) pair appears once,
    and the scores' range must fit in a float. Anything else raises
    MalformedReport. Both texts are rendered before either file is written,
    and a failed write leaves neither file behind.
    """
    if not reports:
        raise MalformedReport("need at least one report")
    for r in reports:
        if not isinstance(r["metric"], str):
            raise MalformedReport(f"report metric must be a string, got {r['metric']!r}")
    metric_names = {r["metric"] for r in reports}
    if len(metric_names) != 1:
        raise MalformedReport(f"conflicting metric names across reports: {sorted(metric_names)}")
    metric = metric_names.pop()
    series: dict[str, list[tuple[float, float]]] = {}
    rows = []
    for r in reports:
        if "complexity" not in r:
            raise MalformedReport("report lacks a complexity field")
        model = r.get("model", "model")
        if not isinstance(model, str):
            raise MalformedReport(f"report model must be a string, got {model!r}")
        complexity, score = r["complexity"], r["final_score"]
        # bools are ints to Python; the comparison is exact for ints and false for NaN
        if type(complexity) is not int or type(score) not in (int, float) or not abs(score) <= sys.float_info.max:
            raise MalformedReport(
                f"report complexity and final_score must be numbers (an integer, a finite number), got {complexity!r} and {score!r}"
            )
        if not MIN_ATOMS_PER_PROMPT <= complexity <= MAX_ATOMS_PER_PROMPT:
            raise MalformedReport(
                f"report complexity must be a part count in [{MIN_ATOMS_PER_PROMPT}, {MAX_ATOMS_PER_PROMPT}], got {complexity}"
            )
        if any(x == complexity for x, _ in series.get(model, [])):
            raise MalformedReport(f"more than one report for model {model!r} at complexity {complexity}")
        series.setdefault(model, []).append((complexity, float(score)))
        rows.append({"metric": metric, "model": model, "complexity": complexity, "final_score": float(score)})
    rows.sort(key=lambda row: (row["model"], row["complexity"]))
    table = io.StringIO()
    writer = csv.DictWriter(table, fieldnames=["metric", "model", "complexity", "final_score"])
    writer.writeheader()
    writer.writerows(rows)
    chart = svg_line_chart(series, title=f"{metric} by part count", x_label="parts per prompt", y_label=metric)
    written: list[Path] = []
    try:
        for path, text in ((Path(out_csv), table.getvalue()), (Path(out_svg), chart)):
            with open(path, "w", newline="", encoding="utf-8") as fh:
                written.append(path)
                fh.write(text)
    except OSError:
        for path in written:
            path.unlink(missing_ok=True)
        raise
