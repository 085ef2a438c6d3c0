"""A design resolves to its fingerprint and is built on first use.

Builds are counted through ``repro.pipeline.runner.stage_design``, the
one attribute every build of a run goes through.
"""

import pytest

from repro.errors import DesignRefError
from repro.pipeline import (
    ArtifactStore,
    BeamSpec,
    RunSpec,
    SartSpec,
    SfiSpec,
    WorkloadsSpec,
    execute,
    runner,
)
from repro.pipeline.emit import run_summary
from repro.serve.jobs import stable_result


@pytest.fixture
def builds(monkeypatch):
    """The refs of the designs built so far, in build order."""
    made = []
    real = runner.stage_design
    monkeypatch.setattr(runner, "stage_design", lambda ctx, provider: (
        made.append(provider.ref) or real(ctx, provider)))
    return made


def test_warm_sart_run_with_a_new_loop_pavf_builds_nothing(tmp_path, builds):
    cache = tmp_path / "cache"
    execute(RunSpec("tinycore:fib", sart=SartSpec(loop_pavf=0.3)),
            store=ArtifactStore(cache))
    assert builds == ["tinycore:fib"]
    builds.clear()

    spec = RunSpec("tinycore:fib", sart=SartSpec(loop_pavf=0.7))
    warm = execute(spec, store=ArtifactStore(cache))
    assert builds == []
    assert [e.stage for e in warm.events] == [
        "design", "golden", "ports", "plan", "sart"]
    assert {e.stage for e in warm.events if e.cached} == {
        "golden", "ports", "plan"}
    # The same document a run without a store makes, and that run builds.
    assert (stable_result(run_summary(warm))
            == stable_result(run_summary(execute(spec))))
    assert builds == ["tinycore:fib"]


def test_warm_bigcore_run_builds_nothing(tmp_path, builds):
    # The port mapping reads the array kinds the resolved ref carries.
    cache = tmp_path / "cache"
    spec = RunSpec("bigcore@scale=0.1",
                   workloads=WorkloadsSpec(per_class=1, length=300))
    cold = execute(spec, store=ArtifactStore(cache))
    assert builds == ["bigcore@scale=0.1,seed=42"]
    builds.clear()
    warm = execute(spec, store=ArtifactStore(cache))
    assert builds == []
    assert [e.stage for e in warm.events] == [e.stage for e in cold.events]
    assert {e.stage for e in warm.events if e.cached} == {"ace", "plan"}
    assert stable_result(run_summary(warm)) == stable_result(run_summary(cold))


@pytest.mark.parametrize("spec, cold_builds", [
    (RunSpec("tinycore:fib", sfi=SfiSpec(injections=15, seed=1)),
     ["tinycore:fib"]),
    # The beam runs on the parity sibling; the plain core is never built.
    (RunSpec("tinycore:fib",
             beam=BeamSpec(flux=5e-5, exposures=8, seed=2, parity=True)),
     ["tinycore:fib@parity=1"]),
], ids=["sfi", "beam"])
def test_warm_campaign_builds_nothing(tmp_path, builds, spec, cold_builds):
    cache = tmp_path / "cache"
    cold = execute(spec, store=ArtifactStore(cache))
    assert builds == cold_builds
    builds.clear()
    warm = execute(spec, store=ArtifactStore(cache))
    assert builds == []
    assert (warm.sfi or warm.beam).cached
    assert stable_result(run_summary(warm)) == stable_result(run_summary(cold))


def test_exlif_edited_after_resolution_is_refused(tmp_path, builds):
    from repro.netlist.exlif import write_exlif
    from tests.conftest import make_fig7

    path = tmp_path / "fig7.exlif"
    path.write_text(write_exlif(make_fig7()[0]))
    store = ArtifactStore(tmp_path / "cache")

    def edit_once_resolved(event, info):
        if event == "design":
            path.write_text(path.read_text() + "\n# edited\n")

    with pytest.raises(DesignRefError, match="changed between resolution"):
        execute(RunSpec(f"exlif:{path}", sart=SartSpec()), store=store,
                observer=edit_once_resolved)
    assert builds == [f"exlif:{path}"]
    assert store.entries() == []   # nothing under the resolved fingerprint
