"""Design registry: reference grammar, providers, and fingerprints."""

import pytest

from repro.errors import DesignRefError
from repro.pipeline.registry import (
    DesignProvider,
    ExlifProvider,
    register_scheme,
    resolve_design,
)
from repro.pipeline.registry import _SCHEMES


def test_tinycore_ref():
    provider = resolve_design("tinycore:fib")
    assert isinstance(provider, DesignProvider)
    assert provider.ref == "tinycore:fib"
    artifact = provider.build()
    assert artifact.kind == "tinycore"
    assert artifact.program_name == "fib"
    assert artifact.netlist is not None
    assert artifact.fingerprint == provider.fingerprint()


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
    with pytest.raises(DesignRefError, match="unknown program"):
        resolve_design("tinycore:quux").build()


def test_register_scheme():
    class Fake:
        ref = "fake:x"

        def fingerprint(self):
            return "0" * 64

        def build(self):
            raise NotImplementedError

    register_scheme("fake", lambda body, params, ref: Fake())
    try:
        assert isinstance(resolve_design("fake:x"), Fake)
    finally:
        _SCHEMES.pop("fake", None)
