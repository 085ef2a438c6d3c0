"""Run-specs: parsing, validation, and spec-driven execution."""

import json

import pytest

from repro.errors import SpecError
from repro.pipeline.runner import execute
from repro.pipeline.spec import (
    CampaignSpec,
    RunSpec,
    SartSpec,
    SweepSpec,
    load_spec,
    spec_from_mapping,
)


def test_minimal_spec_defaults_to_sart():
    spec = spec_from_mapping({"design": "tinycore:fib"})
    assert spec.design == "tinycore:fib"
    assert spec.stages() == ["sart"]
    assert spec.campaign == CampaignSpec()


def test_stage_inference():
    spec = spec_from_mapping({"design": "tinycore:fib", "sfi": {}})
    assert spec.stages() == ["sfi"]
    spec = spec_from_mapping(
        {"design": "tinycore:fib", "sart": {}, "sfi": {}, "beam": {}}
    )
    assert spec.stages() == ["sart", "sfi", "beam"]
    spec = spec_from_mapping({"design": "bigcore", "sweep": {"points": 4}})
    assert spec.stages() == ["sweep"]


def test_toml_loading(tmp_path):
    path = tmp_path / "run.toml"
    path.write_text(
        'design = "bigcore@scale=0.2"\n'
        "[workloads]\nper_class = 1\nlength = 600\n"
        "[sart]\nloop_pavf = 0.4\nmonolithic = true\n"
        "[campaign]\nworkers = 2\n"
    )
    spec = load_spec(str(path))
    assert spec.design == "bigcore@scale=0.2"
    assert spec.workloads.per_class == 1
    assert spec.sart == SartSpec(loop_pavf=0.4, monolithic=True)
    assert spec.campaign.workers == 2


def test_json_loading(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({
        "design": "tinycore:fib",
        "sfi": {"injections": 30, "seed": 1},
    }))
    spec = load_spec(str(path))
    assert spec.sfi.injections == 30
    assert spec.stages() == ["sfi"]


def test_validation_errors(tmp_path):
    with pytest.raises(SpecError, match="needs a design reference"):
        spec_from_mapping({"sfi": {}})
    with pytest.raises(SpecError, match="unknown section"):
        spec_from_mapping({"design": "tinycore:fib", "sif": {}})
    with pytest.raises(SpecError, match=r"unknown key\(s\) \['injection'\]"):
        spec_from_mapping({"design": "tinycore:fib", "sfi": {"injection": 5}})
    with pytest.raises(SpecError, match="must be a table"):
        spec_from_mapping({"design": "tinycore:fib", "sart": 3})
    with pytest.raises(SpecError, match="cannot read"):
        load_spec(str(tmp_path / "missing.toml"))
    bad = tmp_path / "bad.toml"
    bad.write_text("design = [unclosed")
    with pytest.raises(SpecError, match="malformed"):
        load_spec(str(bad))
    # [sart] values are checked, never coerced; the removed engine and
    # relax_workers keys are unknown keys like any other.
    for sart, message in BAD_SART:
        with pytest.raises(SpecError, match=message):
            spec_from_mapping({"design": "tinycore:fib", "sart": sart})
    # [sweep] points is checked too: these raised an uncaught TypeError
    # or ran an empty or one-point sweep.
    for points in ("x", 2.5, 0, -3, True):
        with pytest.raises(
                SpecError,
                match=rf"\[sweep\] points must be an integer >= 1, got {points!r}"):
            spec_from_mapping({"design": "tinycore:fib",
                               "sweep": {"points": points}})
    # The removed [campaign] backend and [sweep] batched keys are
    # unknown keys too.
    with pytest.raises(SpecError,
                       match=r"unknown key\(s\) \['backend'\] in \[campaign\]"):
        spec_from_mapping({"design": "tinycore:fib",
                           "campaign": {"backend": "python"}})
    for batched in (False, True):
        with pytest.raises(SpecError,
                           match=r"unknown key\(s\) \['batched'\] in \[sweep\]"):
            spec_from_mapping({"design": "bigcore",
                               "sweep": {"batched": batched}})
    # Direct construction (the CLI path) runs the same checks.
    with pytest.raises(SpecError, match="loop_pavf"):
        SartSpec(loop_pavf=7.0)
    with pytest.raises(SpecError, match="iterations"):
        SartSpec(iterations=0)
    with pytest.raises(SpecError, match="points"):
        SweepSpec(points=0)


BAD_SART = (
    ({"loop_pavf": 7}, r"loop_pavf must be a number in \[0, 1\], got 7"),
    ({"loop_pavf": -0.1}, "loop_pavf must be a number"),
    ({"loop_pavf": "0.3"}, "loop_pavf must be a number"),
    ({"loop_pavf": True}, "loop_pavf must be a number"),
    ({"loop_pavf": float("nan")}, "loop_pavf must be a number"),
    ({"iterations": "abc"}, "iterations must be an integer >= 1, got 'abc'"),
    ({"iterations": 0}, "iterations must be an integer >= 1, got 0"),
    ({"iterations": 2.5}, "iterations must be an integer >= 1"),
    ({"iterations": True}, "iterations must be an integer >= 1"),
    ({"monolithic": "false"}, r"\[sart\] monolithic must be true or false"),
    ({"monolithic": 1}, "monolithic must be true or false"),
    ({"engine": "compiled"}, r"unknown key\(s\) \['engine'\] in \[sart\]"),
    ({"relax_workers": 2}, r"unknown key\(s\) \['relax_workers'\]"),
)


def test_ports_section_forms():
    spec = spec_from_mapping({"design": "exlif:x", "ports": "ports.txt"})
    assert spec.ports_file == "ports.txt"
    spec = spec_from_mapping(
        {"design": "exlif:x", "ports": {"file": "ports.txt"}}
    )
    assert spec.ports_file == "ports.txt"
    with pytest.raises(SpecError, match=r"in \[ports\]"):
        spec_from_mapping({"design": "exlif:x", "ports": {"path": "p"}})


@pytest.mark.parametrize("content, message", [
    ("S2 0.1\n", r"ports\.txt:2: expected 'name pavf_r pavf_w \[avf\]'"),
    ("S2 0.1 high\n", r"ports\.txt:2: pavf_r, pavf_w and avf must be numbers"),
    (None, r"ports\.txt: cannot read ports file"),
], ids=["short-line", "not-a-number", "unreadable"])
def test_malformed_ports_file_is_a_spec_error(tmp_path, content, message):
    path = tmp_path / "ports.txt"
    if content is not None:
        path.write_text("S1 0.1 0.0 0.3\n" + content)
    with pytest.raises(SpecError, match=message):
        execute(RunSpec(design="tinycore:fib", ports_file=str(path)))


# ----------------------------------------------------------------------
# spec-driven execution reproduces the hand-flagged flows
# ----------------------------------------------------------------------

def _normalize(text: str) -> str:
    import re

    text = re.sub(r"elapsed=\d+\.\d+s", "elapsed=T", text)
    text = re.sub(r"in \d+\.\d+s", "in T", text)
    text = re.sub(r"\d+\.\d{3}\s*$", "T", text, flags=re.M)
    return text


def test_run_spec_reproduces_tinycore_sfi(tmp_path, capsys):
    from repro.cli import main

    assert main(["tinycore", "fib", "--sfi", "25"]) == 0
    via_flags = capsys.readouterr().out

    path = tmp_path / "tiny.toml"
    path.write_text(
        'design = "tinycore:fib"\n'
        "[sart]\n"
        "[sfi]\ninjections = 25\nseed = 1\n"
    )
    assert main(["run", str(path)]) == 0
    via_spec = capsys.readouterr().out

    # The banners differ in shape, but every number must be reproduced:
    # structure ports, the whole per-FUB table, and the campaign stats.
    import re

    spec_lines = set(_normalize(via_spec).splitlines())
    for line in _normalize(via_flags).splitlines():
        if line.startswith("  structure"):
            assert line in spec_lines, line

    def table_block(text):
        lines = _normalize(text).splitlines()
        start = next(i for i, l in enumerate(lines) if l.startswith("FUB"))
        stop = next(i for i, l in enumerate(lines)
                    if l.startswith("relaxation"))
        return lines[start:stop + 1]

    assert table_block(via_flags) == table_block(via_spec)
    assert "166 cycles, ACE fraction 1.00" in via_spec
    m = re.search(r"AVF=(\S+ \[\S+\]) counts=(\{[^}]*\})", via_flags)
    assert m, via_flags
    assert f"SDC AVF={m.group(1)}" in via_spec
    assert f"counts: {m.group(2)}" in via_spec


def test_run_spec_reproduces_sweep(tmp_path, capsys):
    from repro.cli import main

    args = ["sweep", "--points", "3", "--scale", "0.2",
            "--workloads-per-class", "1", "--workload-length", "600"]
    assert main(args) == 0
    via_flags = capsys.readouterr().out

    path = tmp_path / "sweep.toml"
    path.write_text(
        'design = "bigcore@scale=0.2"\n'
        "[workloads]\nper_class = 1\nlength = 600\n"
        "[sweep]\npoints = 3\n"
    )
    assert main(["run", str(path)]) == 0
    via_spec = capsys.readouterr().out
    flag_rows = [l for l in _normalize(via_flags).splitlines()
                 if l.strip() and l[0].isdigit() or l.startswith(" ")]
    spec_text = _normalize(via_spec)
    for row in flag_rows:
        assert row in spec_text, row


def test_execute_spec_directly():
    from repro.pipeline import RunSpec, SfiSpec, execute

    spec = RunSpec(design="tinycore:fib", sfi=SfiSpec(injections=20, seed=3))
    outcome = execute(spec)
    assert outcome.sfi is not None
    assert outcome.sfi.injections == 20
    assert outcome.golden is not None and outcome.golden.halted
    assert outcome.sart is None  # sfi-only spec skips the report
    assert [e.stage for e in outcome.events] == ["design", "golden", "sfi"]


# ----------------------------------------------------------------------
# [eco] — incremental re-solve sections
# ----------------------------------------------------------------------

def test_eco_section_parses_and_infers_sart():
    from repro.pipeline.spec import EcoSpec

    spec = spec_from_mapping({
        "design": "bigcore@scale=0.1,edit=LSU",
        "eco": {"baseline": "bigcore@scale=0.1", "check": True},
    })
    assert spec.eco == EcoSpec(baseline="bigcore@scale=0.1", check=True)
    # An eco section implies a SART solve even without [sart].
    assert spec.stages() == ["sart"]


def test_eco_section_round_trips_through_mapping():
    spec = spec_from_mapping({
        "design": "bigcore@scale=0.1,edit=LSU",
        "eco": {"baseline": "bigcore@scale=0.1"},
    })
    doc = spec.to_mapping()
    assert doc["eco"] == {"baseline": "bigcore@scale=0.1", "check": False}
    assert spec_from_mapping(doc) == spec


def test_eco_toml_loading_and_validation(tmp_path):
    path = tmp_path / "eco.toml"
    path.write_text(
        'design = "bigcore@scale=0.1,edit=LSU"\n'
        '[eco]\nbaseline = "bigcore@scale=0.1"\ncheck = true\n'
    )
    spec = load_spec(str(path))
    assert spec.eco.baseline == "bigcore@scale=0.1"
    assert spec.eco.check is True
    with pytest.raises(SpecError, match=r"unknown key\(s\) \['basis'\]"):
        spec_from_mapping({
            "design": "bigcore", "eco": {"basis": "bigcore"},
        })
    with pytest.raises(SpecError):
        spec_from_mapping({"design": "bigcore", "eco": {}})


def test_derating_section_parses_and_infers_sart():
    from repro.pipeline.spec import DeratingSpec

    spec = spec_from_mapping({"design": "tinycore:fib", "derating": {}})
    assert spec.derating == DeratingSpec()
    # Derating multiplies the sequential AVFs, so it implies a solve.
    assert spec.stages() == ["sart", "derating"]
    spec = spec_from_mapping({
        "design": "tinycore:fib",
        "derating": {"mc_trials": 16, "mc_seed": 3},
    })
    assert spec.derating == DeratingSpec(mc_trials=16, mc_seed=3)


def test_derating_section_round_trips_through_mapping():
    spec = spec_from_mapping({
        "design": "tinycore:fib", "derating": {"mc_trials": 16},
    })
    doc = spec.to_mapping()
    assert doc["derating"] == {"mc_trials": 16, "mc_seed": 11}
    assert spec_from_mapping(doc) == spec
    with pytest.raises(SpecError, match=r"unknown key\(s\) \['trials'\]"):
        spec_from_mapping({"design": "tinycore:fib",
                           "derating": {"trials": 5}})
