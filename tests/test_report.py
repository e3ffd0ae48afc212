"""Report JSON IO, SVG charts, and the complexity flattener."""

import csv
import xml.etree.ElementTree as ET
from xml.dom import minidom

import pytest

from partgen.errors import MalformedReport
from partgen.report import (
    complexity_report,
    load_report,
    svg_bar_chart,
    svg_line_chart,
    write_report,
)


def _report(metric="parteval", model="prior", complexity=2, score=0.5, **extra):
    base = {
        "metric": metric,
        "model": model,
        "complexity": complexity,
        "per_sample": [{"id": 0, "score": score}],
        "final_score": score,
    }
    base.update(extra)
    return base


class TestReportIO:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "report.json"
        report = _report()
        write_report(path, report)
        assert load_report(path) == report

    def test_missing_required_field_on_write(self, tmp_path):
        with pytest.raises(MalformedReport):
            write_report(tmp_path / "bad.json", {"metric": "x", "final_score": 1.0})

    def test_missing_required_field_on_load(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"metric": "x"}', encoding="utf-8")
        with pytest.raises(MalformedReport):
            load_report(path)

    def test_unparseable_json(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(MalformedReport):
            load_report(path)

    @pytest.mark.parametrize("body", ['"metric per_sample final_score"', '["metric", "per_sample", "final_score"]'],
                             ids=["string", "list"])
    def test_non_object_json_rejected(self, tmp_path, body):
        path = tmp_path / "report.json"
        path.write_text(body, encoding="utf-8")
        with pytest.raises(MalformedReport, match="JSON object"):
            load_report(path)

    def test_output_is_stable(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_report(p1, _report())
        write_report(p2, _report())
        assert p1.read_bytes() == p2.read_bytes()


class TestCharts:
    def test_line_chart_is_valid_svg(self):
        series = {"flow": [(2, 0.9), (3, 0.8), (4, 0.7)], "diffusion": [(2, 0.95), (4, 0.85)]}
        svg = svg_line_chart(series, title="scores", x_label="parts", y_label="score")
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
        assert len(polylines) == 2
        text = "".join(el.text or "" for el in root.iter())
        assert "flow" in text and "diffusion" in text and "scores" in text

    def test_line_chart_deterministic(self):
        series = {"m": [(2, 0.5), (4, 1.0)]}
        a = svg_line_chart(series, title="t", x_label="x", y_label="y")
        b = svg_line_chart(series, title="t", x_label="x", y_label="y")
        assert a == b

    def test_bar_chart_is_valid_svg(self):
        svg = svg_bar_chart({"fid": 0.2, "kid": 0.01}, title="metrics")
        root = ET.fromstring(svg)
        rects = [el for el in root.iter() if el.tag.endswith("rect")]
        assert len(rects) >= 3  # background + two bars

    @pytest.mark.parametrize("chart", ["line", "bar"])
    def test_text_is_escaped(self, chart):
        label = "R&D <v2>"
        if chart == "line":
            svg = svg_line_chart({label: [(2, 0.5)]}, title=f"{label} scores", x_label=f"{label} x", y_label=f"{label} y")
        else:
            svg = svg_bar_chart({label: 0.5}, title=f"{label}: metrics")
        texts = [node.firstChild.data for node in minidom.parseString(svg).getElementsByTagName("text")]
        assert sum(label in text for text in texts) == (4 if chart == "line" else 2)

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            svg_line_chart({}, title="t", x_label="x", y_label="y")


class TestComplexityReport:
    def test_flattens_to_csv_and_svg(self, tmp_path):
        reports = [
            _report(complexity=2, score=0.9),
            _report(complexity=3, score=0.8),
            _report(complexity=4, score=0.85),
            _report(model="other", complexity=2, score=0.6),
        ]
        out_csv, out_svg = tmp_path / "flat.csv", tmp_path / "flat.svg"
        complexity_report(reports, out_csv, out_svg)
        with open(out_csv, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["complexity"] for r in rows] == ["2", "2", "3", "4"]
        assert rows[0]["model"] == "other"
        ET.fromstring(out_svg.read_text(encoding="utf-8"))

    def test_conflicting_metric_names_rejected(self, tmp_path):
        reports = [_report(metric="parteval"), _report(metric="fid", complexity=3)]
        with pytest.raises(MalformedReport):
            complexity_report(reports, tmp_path / "x.csv", tmp_path / "x.svg")

    def test_missing_complexity_rejected(self, tmp_path):
        report = _report()
        del report["complexity"]
        with pytest.raises(MalformedReport):
            complexity_report([report], tmp_path / "x.csv", tmp_path / "x.svg")

    @pytest.mark.parametrize("field, value", [("complexity", "two"), ("final_score", "high"), ("complexity", None)])
    def test_non_numeric_field_rejected(self, tmp_path, field, value):
        report = _report()
        report[field] = value
        with pytest.raises(MalformedReport, match="must be numbers"):
            complexity_report([report], tmp_path / "x.csv", tmp_path / "x.svg")
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize(
        "field, value",
        [("metric", ["parteval"]), ("complexity", 2.5), ("complexity", True), ("final_score", float("nan")),
         ("final_score", float("inf")), ("final_score", True), ("final_score", 10**400), ("model", ["x"])],
        ids=["metric-list", "complexity-fraction", "complexity-bool", "final_score-nan", "final_score-inf",
             "final_score-bool", "final_score-huge-int", "model-list"],
    )
    def test_wrong_field_type_rejected(self, tmp_path, field, value):
        report = _report()
        report[field] = value
        with pytest.raises(MalformedReport, match=field):
            complexity_report([report], tmp_path / "x.csv", tmp_path / "x.svg")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("second", [_report(score=0.7), _report(score=0.5)], ids=["other-score", "same-report"])
    def test_repeated_model_and_complexity_rejected(self, tmp_path, second):
        with pytest.raises(MalformedReport, match="model 'prior' at complexity 2"):
            complexity_report([_report(), _report(complexity=3), second], tmp_path / "x.csv", tmp_path / "x.svg")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("complexity", [-3, 0, 1, 5])
    def test_complexity_outside_part_counts_rejected(self, tmp_path, complexity):
        with pytest.raises(MalformedReport, match=rf"part count in \[2, 4\], got {complexity}$"):
            complexity_report([_report(), _report(complexity=complexity)], tmp_path / "x.csv", tmp_path / "x.svg")
        assert list(tmp_path.iterdir()) == []

    def test_score_spread_beyond_a_float_rejected(self, tmp_path):
        # each score is finite, but their difference overflows
        reports = [_report(score=1.7e308), _report(model="other", score=-1.7e308)]
        with pytest.raises(MalformedReport, match="span more than a float holds"):
            complexity_report(reports, tmp_path / "x.csv", tmp_path / "x.svg")
        assert list(tmp_path.iterdir()) == []

    def test_no_reports_rejected(self, tmp_path):
        with pytest.raises(MalformedReport):
            complexity_report([], tmp_path / "x.csv", tmp_path / "x.svg")
