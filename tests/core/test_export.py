"""Result exporter tests."""

import csv
import io
import json

import pytest

from repro.core.export import (
    closed_form_text,
    fub_report_csv,
    node_avfs_csv,
    summary_json,
    worst_nodes,
)
from repro.core.resolve import ROLE_STRUCT
from repro.core.sart import run_sart
from tests.conftest import FIG7_STRUCTS, make_fig7


@pytest.fixture(scope="module")
def result():
    module, _ = make_fig7()
    return run_sart(module, dict(FIG7_STRUCTS))


def test_node_csv_complete(result):
    rows = list(csv.DictReader(io.StringIO(node_avfs_csv(result))))
    assert len(rows) == len(result.node_avfs)
    sample = rows[0]
    assert set(sample) == {"net", "instance", "fub", "kind", "role",
                           "forward", "backward", "avf", "visited"}
    for row in rows:
        assert 0.0 <= float(row["avf"]) <= 1.0


def test_fub_csv(result):
    rows = list(csv.DictReader(io.StringIO(fub_report_csv(result))))
    assert rows[-1]["fub"] == "WEIGHTED"
    assert float(rows[-1]["seq_avg_avf"]) == pytest.approx(
        result.report.weighted_seq_avf
    )


def test_summary_json(result):
    payload = json.loads(summary_json(result))
    assert payload["design"] == "fig7"
    assert payload["seq_count"] == result.report.seq_count
    assert payload["config"]["loop_pavf"] == result.config.loop_pavf
    assert 0 <= payload["visited_fraction"] <= 1


def test_closed_form_text(result):
    text = closed_form_text(result)
    structure_bits = sum(n.role == ROLE_STRUCT for n in result.node_avfs.values())
    assert text.count("AVF(") == result.report.seq_count + structure_bits
    assert "MIN(" in text
    # restricting to specific nets works
    one = closed_form_text(result, nets=[next(iter(result.node_avfs))])
    assert one.count("\n") == 1


def test_worst_nodes_sorted(result):
    worst = worst_nodes(result, count=3)
    assert len(worst) == 3
    avfs = [n.avf for n in worst]
    assert avfs == sorted(avfs, reverse=True)
    assert all(n.kind == "seq" and n.role != "struct" for n in worst)
