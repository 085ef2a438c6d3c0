"""The ``diff`` and ``eco`` subcommands, end to end on bigcore edits.

The canonical ECO here is ``bigcore@...,edit=LSU`` — a numerically
neutral double inverter inside the LSU — against the unedited design as
baseline. One shared cache directory keeps the (design-independent)
ACE suite warm across the flows.
"""

import csv
import json
import re

import pytest

from repro.cli import main
from repro.pipeline import ArtifactStore, RunSpec, WorkloadsSpec, execute
from repro.pipeline.spec import EcoSpec

BASE = "bigcore@scale=0.1"
EDIT = "bigcore@scale=0.1,edit=LSU"
WORKLOADS = ["--workloads-per-class", "1", "--workload-length", "400"]


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("eco-cache"))


# ----------------------------------------------------------------------
# the edited-design reference itself
# ----------------------------------------------------------------------

def test_bigcore_edit_param_changes_ref_and_fingerprint():
    from repro.pipeline.registry import resolve_design

    base, edited = resolve_design(BASE), resolve_design(EDIT)
    assert "edit=LSU" in edited.ref and "edit=" not in base.ref
    assert base.fingerprint() != edited.fingerprint()
    module = edited.build().module
    assert "LSU/eco_inv1" in module.instances


def test_bigcore_edit_rejects_unknown_fub():
    from repro.designs.bigcore import BigcoreConfig

    # Refused by the config, before anything is generated.
    with pytest.raises(ValueError, match="edit='NOSUCH' names no FUB"):
        BigcoreConfig(scale=0.1, edit="NOSUCH")
    with pytest.raises(ValueError, match="edit='LSU' names no FUB"):
        BigcoreConfig(scale=0.1, fub_count=3, edit="LSU")


# ----------------------------------------------------------------------
# repro-sart diff
# ----------------------------------------------------------------------

def test_diff_cli(cache_dir, tmp_path, capsys):
    out_json = str(tmp_path / "delta.json")
    assert main(["diff", BASE, EDIT, "--cache-dir", cache_dir,
                 "--export-json", out_json]) == 0
    out = capsys.readouterr().out
    # Canonical refs (with defaults materialized) head the report.
    assert "design delta: bigcore@scale=0.1,seed=42 -> " \
           "bigcore@scale=0.1,seed=42,edit=LSU" in out
    assert "LSU" in out and "changed" in out
    doc = json.loads(open(out_json).read())
    assert doc["changed"] == ["LSU"]
    assert not doc["added"] and not doc["removed"]
    # bigcore's FUBs form one connected dependency web: the static
    # dirty set saturates (the honest over-approximation; the dynamic
    # re-solve front is what stays small).
    assert doc["n_fubs"] == len(doc["dirty"])


def test_diff_cli_noop(capsys):
    assert main(["diff", BASE, BASE]) == 0
    out = capsys.readouterr().out
    assert "0 changed, 0 added, 0 removed" in out


# ----------------------------------------------------------------------
# repro-sart eco
# ----------------------------------------------------------------------

def test_eco_cli_with_check(cache_dir, tmp_path, capsys):
    out_json = str(tmp_path / "eco.json")
    assert main(["eco", EDIT, "--baseline", BASE, "--check",
                 "--cache-dir", cache_dir, "--export-json", out_json]
                + WORKLOADS) == 0
    out = capsys.readouterr().out
    assert f"baseline: {BASE}" in out
    assert "eco: warm start, re-solved" in out
    assert "eco check: bit-identical=True" in out
    doc = json.loads(open(out_json).read())
    assert doc["eco"]["warm"] is True
    assert doc["eco"]["dirty_fubs"] == ["LSU"]
    # The neutral edit re-solves only the edited FUB.
    assert doc["eco"]["resolved_fubs"] == 1


def test_eco_cli_writes_csv_exports(cache_dir, tmp_path, capsys):
    nodes, fubs = tmp_path / "nodes.csv", tmp_path / "fubs.csv"
    assert main(["eco", EDIT, "--baseline", BASE, "--cache-dir", cache_dir,
                 "--export-csv", str(nodes), "--export-fubs", str(fubs)]
                + WORKLOADS) == 0
    out = capsys.readouterr().out
    # The edited design's report is the last one printed: one CSV row
    # per node of its solve and one per FUB of its table.
    n_nodes = int(re.findall(r"^nodes=(\d+) ", out, flags=re.M)[-1])
    report = out[out.rindex("\nFUB ") + 1:].splitlines()
    end = next(i for i, line in enumerate(report)
               if line.startswith("WEIGHTED AVG"))
    table_fubs = [line.split()[0] for line in report[1:end]]
    assert len(list(csv.DictReader(nodes.open()))) == n_nodes
    fub_rows = [row["fub"] for row in csv.DictReader(fubs.open())]
    assert fub_rows == table_fubs + ["WEIGHTED"]
    assert "LSU" in fub_rows


def test_eco_cli_monolithic_falls_back_cold(cache_dir, capsys):
    assert main(["eco", EDIT, "--baseline", BASE, "--monolithic",
                 "--cache-dir", cache_dir] + WORKLOADS) == 0
    out = capsys.readouterr().out
    assert "eco: falling back to a cold solve" in out
    assert "avg AVF" in out or "fub" in out  # the report still prints


# ----------------------------------------------------------------------
# the [eco] spec section
# ----------------------------------------------------------------------

def test_eco_spec_flow_with_cache_dir_matches_cold(cache_dir):
    # The [eco] warm start with a cache dir lands on the numbers of a
    # cold, cache-free solve.
    workloads = WorkloadsSpec(per_class=1, length=400)
    eco = execute(
        RunSpec(design=EDIT, workloads=workloads,
                eco=EcoSpec(baseline=BASE)),
        store=ArtifactStore(cache_dir),
    )
    cold = execute(RunSpec(design=EDIT, workloads=workloads))
    assert eco.sart.warm
    assert eco.sart.result.node_avfs == cold.sart.result.node_avfs
