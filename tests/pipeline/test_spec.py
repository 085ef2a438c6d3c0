"""Run-specs: parsing, validation, and spec-driven execution."""

import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SpecError
from repro.pipeline.runner import execute
from repro.pipeline.spec import (
    BeamSpec,
    CampaignSpec,
    DeratingSpec,
    EcoSpec,
    ExportSpec,
    RunSpec,
    SartSpec,
    SfiSpec,
    SweepSpec,
    WorkloadsSpec,
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
    # The design and the [eco] baseline resolve at parse time, without
    # building anything or reading a file (the EXLIF file need not exist).
    spec_from_mapping({"design": f"exlif:{tmp_path}/absent.exlif",
                       "eco": {"baseline": "bigcore@scale=4"}})
    for doc, message in (
            ({"design": "bigcore@scale=abc"}, "is not float"),
            ({"design": "nope:x"}, "unknown design scheme"),
            ({"design": "systolic@rows=100000,cols=100000"}, "node ceiling"),
            ({"design": "tinycore:fib", "eco": {"baseline": "bigcore@warp=9"}},
             "unknown design parameter")):
        with pytest.raises(SpecError, match=message):
            spec_from_mapping(doc)
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
    # Every section checks its values the same way; each of these
    # raised a builtin TypeError/AttributeError inside execute, or ran
    # something other than what the spec said.
    for section, body, message in BAD_VALUES:
        with pytest.raises(SpecError, match=message):
            spec_from_mapping({"design": "tinycore:fib", section: body})
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


BAD_VALUES = (
    ("sfi", {"injections": "x"},
     r"\[sfi\] injections must be an integer >= 1, got 'x'"),
    ("campaign", {"workers": "a"},
     r"\[campaign\] workers must be an integer >= 1, got 'a'"),
    ("beam", {"flux": "high"},
     r"\[beam\] flux must be a number in \(0, 1\], got 'high'"),
    ("workloads", {"per_class": "x"},
     r"\[workloads\] per_class must be an integer >= 1"),
    ("derating", {"mc_trials": "x"},
     r"\[derating\] mc_trials must be an integer >= 0, got 'x'"),
    ("eco", {"baseline": 5},
     r"\[eco\] baseline must be a non-empty string, got 5"),
    ("export", {"format": "vhdl", "output": "x.v"},
     r"\[export\] format must be 'exlif' or 'verilog', got 'vhdl'"),
    ("sfi", {"injections": -5},
     r"\[sfi\] injections must be an integer >= 1, got -5"),
)


@pytest.mark.parametrize("section, key", [
    ("sart", "loop_pavf"), ("sfi", "seed"), ("eco", "baseline"),
    (None, "ports"),
])
def test_deeply_nested_value_is_a_spec_error(section, key):
    # The error echoes the refused value; a plain repr() of one nested
    # deeper than the recursion limit raised RecursionError instead.
    deep: list = []
    for _ in range(5000):
        deep = [deep]
    document = {"design": "tinycore:fib"}
    document.update({key: deep} if section is None
                    else {section: {key: deep}})
    with pytest.raises(SpecError, match=key) as excinfo:
        spec_from_mapping(document)
    assert len(str(excinfo.value)) < 200


def test_ports_section_forms():
    spec = spec_from_mapping({"design": "exlif:x", "ports": "ports.txt"})
    assert spec.ports_file == "ports.txt"
    spec = spec_from_mapping(
        {"design": "exlif:x", "ports": {"file": "ports.txt"}}
    )
    assert spec.ports_file == "ports.txt"
    with pytest.raises(SpecError, match=r"in \[ports\]"):
        spec_from_mapping({"design": "exlif:x", "ports": {"path": "p"}})


_OUT_OF_RANGE = r"ports\.txt:2: pavf_r, pavf_w and avf must be numbers in \[0, 1\]"


@pytest.mark.parametrize("content, message", [
    ("S2 0.1\n", r"ports\.txt:2: expected 'name pavf_r pavf_w \[avf\]'"),
    ("S2 0.1 high\n", r"ports\.txt:2: pavf_r, pavf_w and avf must be numbers"),
    (None, r"ports\.txt: cannot read ports file"),
    ("rf 1.5 0.2\n", _OUT_OF_RANGE),
    ("dmem nan 0.1\n", _OUT_OF_RANGE),
    ("rf 0.1 -0.2\n", _OUT_OF_RANGE),
    ("rf 0.1 inf\n", _OUT_OF_RANGE),
    ("rf 0.1 0.2 1.5\n", _OUT_OF_RANGE),
    ("rf 0.1 0.2 nan\n", _OUT_OF_RANGE),
], ids=["short-line", "not-a-number", "unreadable", "pavf-r-above-one",
        "pavf-r-nan", "pavf-w-negative", "pavf-w-inf", "avf-above-one",
        "avf-nan"])
def test_malformed_ports_file_is_a_spec_error(tmp_path, content, message):
    path = tmp_path / "ports.txt"
    if content is not None:
        path.write_text("S1 0.1 0.0 0.3\n" + content)
    with pytest.raises(SpecError, match=message):
        execute(RunSpec(design="tinycore:fib", ports_file=str(path)))


_PORT_NUMBERS = st.one_of(
    st.floats(0, 1).map(repr),
    st.floats().map(repr),
    st.integers(-2, 2).map(str),
    st.sampled_from(["nan", "-inf", "1e400", "-0.0", "1_0", "0x1", "high",
                     "0.5#", "１"]),
)
_PORT_LINES = st.one_of(
    st.builds(
        lambda name, values, comment: " ".join([name, *values]) + comment,
        st.sampled_from(["rf", "dmem", "S1", "irom#x"]),
        st.lists(_PORT_NUMBERS, max_size=5),
        st.sampled_from(["", " # note", "#"]),
    ),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=20),
)


@pytest.mark.fuzz
@settings(max_examples=300)
@given(lines=st.lists(_PORT_LINES, max_size=6))
def test_fuzz_ports_files(tmp_path_factory, lines):
    """A ports file loads or raises a ReproError, and every table it
    loads binds into a PavfEnv: each value is a pAVF in [0, 1]."""
    from repro.core.pavf import READ, Atom, PavfEnv
    from repro.core.symbolic import atom_value
    from repro.errors import ReproError
    from repro.pipeline.stages import PipelineContext, stage_ports_file

    path = tmp_path_factory.mktemp("ports") / "ports.txt"
    path.write_text("\n".join(lines), encoding="utf-8")
    try:
        port_env = stage_ports_file(PipelineContext(), str(path))
    except ReproError:
        return
    env = PavfEnv()
    for name, ports in port_env.ports.items():
        for role in ("r", "w", "ra", "wa"):
            env.bind(Atom(READ, name, 0), atom_value(ports, role, 0))
        if ports.avf is not None:
            env.bind(Atom(READ, name, 1), ports.avf)


# ----------------------------------------------------------------------
# every spec-building subcommand prints what `run` prints for its spec
# ----------------------------------------------------------------------

def _mask_timings(text: str) -> str:
    text = re.sub(r"\d+\.\d+s\b", "Ts", text)
    text = re.sub(r"[\d,]+ nodes/s", "N nodes/s", text)
    return re.sub(r"(?<= )\d+\.\d{3}$", "T", text, flags=re.M)


_WORKLOADS = ["--workloads-per-class", "1", "--workload-length", "400"]

# subcommand -> (argv, regex its output after the `run` output must match)
SUBCOMMANDS = {
    "analyze": (["analyze", "{tmp}/fig7.exlif", "--ports", "{tmp}/ports.txt",
                 "--monolithic", "--export-csv", "{tmp}/nodes.csv"],
                r"wrote per-node AVFs to \S+/nodes\.csv\n"),
    "tinycore": (["tinycore", "fib", "--sfi", "25"], ""),
    "bigcore": (["bigcore", "--scale", "0.1", *_WORKLOADS,
                 "--export-fubs", "{tmp}/fubs.csv"],
                r"wrote per-FUB report to \S+/fubs\.csv\n"),
    "sweep": (["sweep", "--points", "3", "--scale", "0.1", *_WORKLOADS], ""),
    "eco": (["eco", "bigcore@scale=0.1,edit=LSU",
             "--baseline", "bigcore@scale=0.1", "--check", *_WORKLOADS,
             "--export-json", "{tmp}/eco.json"],
            r"wrote run summary to \S+/eco\.json\n"),
    "export": (["export", "tinycore", "{tmp}/tiny.exlif", "--program", "fib"],
               ""),
    "sfi": (["sfi", "fib", "--injections", "20",
             "--export-json", "{tmp}/sfi.json"],
            r"wrote sfi summary to \S+/sfi\.json\n"),
    "beam": (["beam", "fib", "--exposures", "6"], ""),
    "deadlines": (["deadlines", "fib"],
                  r"tinycore:fib: error-reporting deadlines "
                  r"\(cycles until consumption\)\nstructure .*\n-+\n"
                  r"dmem .*\nrf .*\n"),
}


@pytest.mark.parametrize("name", list(SUBCOMMANDS))
def test_subcommand_prints_what_run_prints(name, tmp_path, capsys,
                                           monkeypatch):
    """A subcommand is its RunSpec plus post-run output: its stdout is
    `repro-sart run` on that spec, then only its own export or table
    lines."""
    import repro.pipeline.runner as runner
    from repro.cli import main
    from repro.netlist.exlif import write_exlif
    from tests.conftest import make_fig7

    (tmp_path / "fig7.exlif").write_text(write_exlif(make_fig7()[0]))
    (tmp_path / "ports.txt").write_text(
        "S1 0.10 0.0 0.3\nS2 0.02 0.0 0.3\nS3 0.0 0.05 0.3\nS4 0.0 0.40 0.3\n")
    specs = []
    execute = runner.execute

    def recording_execute(spec, **kwargs):
        specs.append(spec)
        return execute(spec, **kwargs)

    monkeypatch.setattr(runner, "execute", recording_execute)
    argv, post = SUBCOMMANDS[name]
    assert main([arg.format(tmp=tmp_path) for arg in argv]) == 0
    via_flags = _mask_timings(capsys.readouterr().out)

    path = tmp_path / "spec.json"
    path.write_text(json.dumps(specs[0].to_mapping()))
    assert main(["run", str(path)]) == 0
    via_spec = _mask_timings(capsys.readouterr().out)

    assert via_flags.startswith(via_spec), (via_flags, via_spec)
    assert re.fullmatch(post, via_flags[len(via_spec):]), via_flags


def test_run_interrupt_hint_names_the_spec_checkpoint(tmp_path, capsys,
                                                      monkeypatch):
    from repro.cli import main

    def interrupt(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr("repro.sfi.run_sfi_campaign", interrupt)
    ck = tmp_path / "campaign.jsonl"
    path = tmp_path / "sfi.toml"
    path.write_text(f'design = "tinycore:fib"\n[sfi]\ninjections = 20\n'
                    f'[campaign]\ncheckpoint = "{ck}"\n')
    assert main(["run", str(path)]) == 130
    err = capsys.readouterr().err
    assert "progress was not saved" not in err
    assert f"rerun with [campaign] resume = '{ck}'" in err


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


# ----------------------------------------------------------------------
# fuzz: run-spec documents from every front end
# ----------------------------------------------------------------------

_TEXT = st.text(alphabet="abcefilmoprstx019.:@=_-/ \"\\", max_size=10)
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 4), st.integers(),
    st.floats(), st.sampled_from([float("nan"), float("-inf"), 2e-5]),
    _TEXT,
    st.sampled_from(["exlif", "verilog", "tinycore:fib", "bigcore"]),
)
_VALUES = _SCALARS | st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(_TEXT, inner, max_size=3),
    max_leaves=5,
)


# Every section, spelled out with valid values; fuzz documents keep a
# subset of it and overwrite a few entries.
_FULL_DOC = RunSpec(
    design="tinycore:fib", ports_file="ports.txt",
    workloads=WorkloadsSpec(), sart=SartSpec(), sweep=SweepSpec(),
    sfi=SfiSpec(), beam=BeamSpec(), derating=DeratingSpec(),
    export=ExportSpec(output="out.v", format="verilog"),
    eco=EcoSpec(baseline="tinycore:fib"),
).to_mapping()


@st.composite
def _docs(draw):
    doc = json.loads(json.dumps(
        {k: v for k, v in _FULL_DOC.items()
         if k == "design" or draw(st.booleans())}))
    for _ in range(draw(st.integers(0, 3))):
        paths = [(name,) for name in [*doc, "bogus"]]
        paths += [(name, key) for name, section in doc.items()
                  if isinstance(section, dict)
                  for key in [*section, "bogus"]]
        *section, key = draw(st.sampled_from(paths))
        (doc[section[0]] if section else doc)[key] = draw(_VALUES)
    return doc


def _without_none(value):
    """The document TOML can spell: TOML has no null."""
    if isinstance(value, dict):
        return {k: _without_none(v) for k, v in value.items()
                if v is not None}
    if isinstance(value, list):
        return [_without_none(v) for v in value if v is not None]
    return value


def _toml_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return repr(value)             # nan, inf and -inf are TOML floats
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, list):
        return "[" + ", ".join(map(_toml_value, value)) + "]"
    return "{" + ", ".join(f"{json.dumps(k)} = {_toml_value(v)}"
                           for k, v in value.items()) + "}"


def _toml(doc: dict) -> str:
    lines = [f"{json.dumps(k)} = {_toml_value(v)}"
             for k, v in doc.items() if not isinstance(v, dict)]
    for key, table in doc.items():
        if isinstance(table, dict):
            lines.append(f"[{json.dumps(key)}]")
            lines += [f"{json.dumps(k)} = {_toml_value(v)}"
                      for k, v in table.items()]
    return "\n".join(lines) + "\n"


def _spec_or_none(load):
    try:
        return load()
    except SpecError:
        return None


@pytest.mark.fuzz
@settings(max_examples=500)
@given(doc=_docs())
def test_fuzz_run_spec_documents(tmp_path_factory, doc):
    """Every document yields a RunSpec or raises SpecError, as a mapping,
    a JSON file and a TOML file alike; an accepted spec round-trips and
    fingerprints; the job server refuses anything else with a
    ReproError."""
    from repro.errors import ReproError
    from repro.pipeline.spec import spec_fingerprint
    from repro.serve.scheduler import JobScheduler

    spec = _spec_or_none(lambda: spec_from_mapping(doc))
    if spec is not None:
        assert spec_from_mapping(spec.to_mapping()) == spec
        spec_fingerprint(spec)
    root = tmp_path_factory.mktemp("spec")
    (root / "doc.json").write_text(json.dumps(doc))
    assert _spec_or_none(lambda: load_spec(str(root / "doc.json"))) == spec
    (root / "doc.toml").write_text(_toml(_without_none(doc)))
    assert (_spec_or_none(lambda: load_spec(str(root / "doc.toml")))
            == _spec_or_none(lambda: spec_from_mapping(_without_none(doc))))
    scheduler = JobScheduler(root / "state")
    try:
        scheduler.submit(doc)
    except ReproError:
        pass
    finally:
        scheduler.drain(grace=0)
