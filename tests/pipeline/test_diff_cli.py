"""The ``diff`` subcommand, end to end on bigcore edits.

The canonical edit here is ``bigcore@...,edit=LSU`` — a numerically
neutral double inverter inside the LSU — against the unedited design as
baseline.
"""

import json

import pytest

from repro.cli import main

BASE = "bigcore@scale=0.1"
EDIT = "bigcore@scale=0.1,edit=LSU"


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

def test_diff_cli(tmp_path, capsys):
    out_json = str(tmp_path / "delta.json")
    assert main(["diff", BASE, EDIT, "--cache-dir", str(tmp_path / "cache"),
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
    # dirty set saturates (the honest over-approximation).
    assert doc["n_fubs"] == len(doc["dirty"])


def test_diff_cli_noop(capsys):
    assert main(["diff", BASE, BASE]) == 0
    out = capsys.readouterr().out
    assert "0 changed, 0 added, 0 removed" in out
