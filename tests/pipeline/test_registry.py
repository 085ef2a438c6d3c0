"""Design registry: reference grammar, providers, and fingerprints."""

import dataclasses
import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.designs.bigcore.systolic import node_count
from repro.errors import DesignRefError, ReproError
from repro.pipeline.registry import DesignProvider, ExlifProvider, resolve_design


def test_tinycore_ref():
    from repro.pipeline.runner import resolve
    from repro.pipeline.stages import PipelineContext

    provider = resolve_design("tinycore:fib")
    assert isinstance(provider, DesignProvider)
    assert provider.ref == "tinycore:fib"
    artifact = resolve(PipelineContext(), provider)
    assert artifact.kind == "tinycore"
    assert artifact.program_name == "fib"
    assert artifact.fingerprint == provider.fingerprint()
    assert artifact.netlist is not None
    assert artifact.built.fingerprint == provider.fingerprint()


def test_tinycore_parity_ref():
    plain = resolve_design("tinycore:fib")
    parity = resolve_design("tinycore:fib@parity=1")
    assert plain.fingerprint() != parity.fingerprint()
    assert parity.build().netlist.due is not None


def test_bigcore_ref_params():
    provider = resolve_design("bigcore@scale=0.2,seed=7")
    assert provider.config.scale == 0.2
    assert provider.config.seed == 7
    base = resolve_design("bigcore")
    assert provider.fingerprint() != base.fingerprint()
    # same config, same fingerprint
    assert (resolve_design("bigcore@seed=7,scale=0.2").fingerprint()
            == provider.fingerprint())


def test_overrides_win_over_ref_params():
    provider = resolve_design("bigcore@scale=0.5", scale="0.2")
    assert provider.config.scale == 0.2


def test_exlif_ref(tmp_path):
    from repro.netlist.exlif import write_exlif
    from tests.conftest import make_fig7

    module, _ = make_fig7()
    path = tmp_path / "fig7.exlif"
    path.write_text(write_exlif(module))
    provider = resolve_design(f"exlif:{path}")
    assert isinstance(provider, ExlifProvider)
    artifact = provider.build()
    assert artifact.kind == "exlif"
    assert artifact.graph.name == "fig7"
    # content-addressed: editing the file changes the fingerprint
    before = provider.fingerprint()
    path.write_text(path.read_text() + "\n# comment\n")
    assert provider.fingerprint() != before


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_exlif_digest_is_the_text_digest(tmp_path, monkeypatch, newline):
    """The fingerprint hashes the text as read (universal newlines) in
    blocks, equal to hashing the whole text at once, as it always did."""
    import hashlib

    from repro.netlist.exlif import write_exlif
    from repro.pipeline import registry
    from repro.pipeline.fingerprint import stage_fingerprint
    from tests.conftest import make_fig7

    module, _ = make_fig7()
    text = write_exlif(module)
    path = tmp_path / "fig7.exlif"
    path.write_bytes(text.replace("\n", newline).encode())
    expected = stage_fingerprint(
        "design", "exlif", hashlib.sha256(text.encode()).hexdigest(), None
    )
    whole = resolve_design(f"exlif:{path}")
    assert whole.fingerprint() == expected
    assert whole.build().fingerprint == expected
    # Blocks that split lines and CRLF pairs give the same digest and graph.
    graph = whole.build().graph
    monkeypatch.setattr(registry, "_BLOCK", 7)
    assert whole.fingerprint() == expected
    small = whole.build()
    assert small.fingerprint == expected
    assert small.graph.names == graph.names
    assert small.graph.fanin_ix == graph.fanin_ix


def test_exlif_export_rereads_the_file(tmp_path):
    """``[export]`` of an exlif: design converts the file itself."""
    from repro.netlist.exlif import parse_exlif, write_exlif
    from repro.netlist.verilog import write_verilog
    from repro.pipeline import ExportSpec, RunSpec, execute
    from tests.conftest import make_fig7

    module, _ = make_fig7()
    path = tmp_path / "fig7.exlif"
    path.write_text(write_exlif(module))
    for fmt, write in (("verilog", lambda m: write_verilog(m)[0]),
                       ("exlif", write_exlif)):
        out = tmp_path / f"out.{fmt}"
        outcome = execute(RunSpec(design=f"exlif:{path}",
                                  export=ExportSpec(output=str(out), format=fmt)))
        assert outcome.export_path == str(out)
        assert out.read_text() == write(parse_exlif(path.read_text())["fig7"])


def test_exlif_path_with_at_sign(tmp_path):
    from repro.netlist.exlif import write_exlif
    from tests.conftest import make_fig7

    module, _ = make_fig7()
    path = tmp_path / "net@2.exlif"
    path.write_text(write_exlif(module))
    provider = resolve_design(f"exlif:{path}")
    assert provider.path == str(path)
    provider = resolve_design(f"exlif:{path}@top=fig7")
    assert provider.path == str(path)
    assert provider.top == "fig7"


def test_bad_refs():
    with pytest.raises(DesignRefError, match="unknown design scheme"):
        resolve_design("mystery:thing")
    with pytest.raises(DesignRefError, match="needs a program"):
        resolve_design("tinycore")
    with pytest.raises(DesignRefError, match="unknown design parameter"):
        resolve_design("bigcore@warp=9")
    with pytest.raises(DesignRefError, match="is not float"):
        resolve_design("bigcore@scale=fast")
    # Non-finite numbers and configs the generators refuse name the
    # parameter or the ref instead of failing inside the generator.
    for ref in ("bigcore@scale=nan", "bigcore@scale=inf",
                "bigcore@scale=-inf", "systolic@rows=3,tile=nan"):
        with pytest.raises(DesignRefError, match=r"is not (finite|int)"):
            resolve_design(ref)
    with pytest.raises(DesignRefError, match="scale='nan' is not finite"):
        resolve_design("bigcore", scale="nan")
    for ref, reason in (("systolic@rows=0", "rows >= 1"),
                        ("systolic@cols=-2", "cols >= 1"),
                        ("systolic@tile=0", "tile must be >= 1"),
                        ("systolic@acc_width=4", "acc_width must be >= data_width"),
                        # An empty template list failed in the generator
                        # with an IndexError.
                        ("bigcore@fub_count=-20", "fub_count must be >= 1"),
                        ("bigcore@fub_count=0", "fub_count must be >= 1"),
                        # A scale <= 0 built the minimum core under a
                        # fingerprint of its own.
                        ("bigcore@scale=0", "scale must be > 0"),
                        ("bigcore@scale=-1e306", "scale must be > 0"),
                        # Undriven nets at build, a no-feedback core under
                        # a fingerprint of its own, a NetlistError at build.
                        ("systolic@data_width=0,acc_width=0,rows=2,cols=2",
                         "data_width must be >= 1"),
                        ("systolic@data_width=-1,acc_width=4,rows=2,cols=2",
                         "data_width must be >= 1"),
                        ("bigcore@feedback_fubs=-3", "feedback_fubs must be >= 0"),
                        ("bigcore@edit=NOPE", "edit='NOPE' names no FUB"),
                        ("bigcore@fub_count=3,edit=LSU", "edit='LSU' names no FUB"),
                        # Sizes above the node ceiling, refused before
                        # anything is generated (1e300 built until killed).
                        ("bigcore@scale=1e300", "node ceiling"),
                        ("bigcore@scale=1e306", "node ceiling"),
                        ("systolic@rows=100000,cols=100000", "node ceiling")):
        started = time.perf_counter()
        with pytest.raises(DesignRefError, match=f"{ref!r}: .*{reason}"):
            resolve_design(ref)
        assert time.perf_counter() - started < 1.0
    # The ceiling admits every size the repo runs.
    resolve_design("bigcore@scale=4")
    resolve_design("bigcore@edit=LSU")
    assert node_count(resolve_design("systolic@rows=104,cols=104").config) == 1_018_538
    with pytest.raises(DesignRefError, match="unknown program"):
        resolve_design("tinycore:quux")


_REF_VALUES = st.one_of(
    st.integers(-3, 40).map(str),
    st.floats().map(repr),
    st.sampled_from(["nan", "inf", "-inf", "1e400", "0x10", "1_0", "", "x",
                     "true", "LSU", "0.2"]),
)
_REF_PARAMS = st.dictionaries(
    st.sampled_from(["scale", "seed", "fub_count", "feedback_fubs", "edit",
                     "rows", "cols", "data_width", "acc_width", "tile",
                     "parity", "top", "bogus", ""]),
    _REF_VALUES, max_size=4,
)


@pytest.mark.fuzz
@settings(max_examples=500)
@given(scheme=st.sampled_from(["bigcore", "systolic", "tinycore", "exlif",
                               "mystery", ""]),
       body=st.sampled_from(["", ":fib", ":quux", ":missing.exlif", ":@"]),
       params=_REF_PARAMS,
       junk=st.text(alphabet="@=,: ", max_size=3))
def test_fuzz_design_refs(scheme, body, params, junk):
    """A design ref resolves or raises a ReproError; an accepted ref's
    provider names and fingerprints itself, and every float parameter
    of its generator config is finite."""
    tail = ",".join(f"{key}={value}" for key, value in params.items())
    ref = scheme + body + (f"@{tail}" if tail else "") + junk
    try:
        provider = resolve_design(ref)
        provider.ref
        provider.fingerprint()
    except ReproError:
        return
    config = getattr(provider, "config", None)
    if config is not None:
        for name, value in dataclasses.asdict(config).items():
            if isinstance(value, float):
                assert math.isfinite(value), (ref, name, value)
