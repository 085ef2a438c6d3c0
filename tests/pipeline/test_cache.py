"""Warm-cache behavior: hits, misses, and fingerprint invalidation."""

import re

import pytest

from repro.cli import main
from repro.errors import CacheDegradedWarning
from repro.pipeline import (
    ArtifactStore,
    BeamSpec,
    CampaignSpec,
    DeratingSpec,
    RunSpec,
    SartSpec,
    SfiSpec,
    WorkloadsSpec,
    execute,
)
from repro.pipeline.emit import run_summary
from repro.pipeline.fingerprint import STAGE_VERSIONS

BIGCORE = ["bigcore", "--scale", "0.1", "--workloads-per-class", "1",
           "--workload-length", "400"]


def _strip_timing(text: str) -> str:
    return re.sub(r"elapsed=\d+\.\d+s", "elapsed=T", text)


def test_bigcore_warm_cache_cli(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    assert main(BIGCORE + ["--cache-dir", cache]) == 0
    cold = capsys.readouterr().out
    assert "running 8 workloads" in cold

    assert main(BIGCORE + ["--cache-dir", cache]) == 0
    warm = capsys.readouterr().out
    assert "ACE suite: 8 workloads reused from cache" in warm
    assert "running" not in warm

    # The warm run re-solves cold: apart from timing and cache lines it
    # prints exactly what the cold run printed.
    skip = ("running", "ACE suite", "solve plan", "cache:")
    cold_rows = [l for l in _strip_timing(cold).splitlines()
                 if not l.startswith(skip)]
    warm_rows = [l for l in _strip_timing(warm).splitlines()
                 if not l.startswith(skip)]
    assert cold_rows == warm_rows

    store = ArtifactStore(cache)
    stages = {stage for stage, _ in store.entries()}
    assert stages == {"ace", "plan"}


def test_bigcore_warm_cache_events(tmp_path):
    spec = RunSpec(design="bigcore@scale=0.1",
                   workloads=WorkloadsSpec(per_class=1, length=400))
    store = ArtifactStore(tmp_path / "cache")
    cold = execute(spec, store=store)
    assert not any(e.cached for e in cold.events)
    assert {"ace", "plan"} <= {e.stage for e in cold.events}

    store = ArtifactStore(tmp_path / "cache")
    warm = execute(spec, store=store)
    # Every stage the store keeps hits: no stage recomputes.
    assert sorted(e.stage for e in warm.events if e.cached) == ["ace", "plan"]
    assert {e.stage for e in warm.events if not e.cached} == {"design", "sart"}
    # Without an [eco] section the solve runs cold and reports no eco block.
    assert not warm.sart.warm
    assert "eco" not in run_summary(warm)
    assert (warm.sart.result.report.table()
            == cold.sart.result.report.table())


def test_fingerprint_invalidation_on_design_change(tmp_path):
    cache = tmp_path / "cache"
    base = RunSpec(design="bigcore@scale=0.1",
                   workloads=WorkloadsSpec(per_class=1, length=400))
    execute(base, store=ArtifactStore(cache))

    # A different scale shares the (design-independent) ACE suite but
    # must re-lower the plan.
    scaled = RunSpec(design="bigcore@scale=0.15",
                     workloads=WorkloadsSpec(per_class=1, length=400))
    outcome = execute(scaled, store=ArtifactStore(cache))
    cached = {e.stage for e in outcome.events if e.cached}
    assert "ace" in cached
    assert "plan" not in cached

    # A different workload suite invalidates the ACE entry too.
    reworked = RunSpec(design="bigcore@scale=0.1",
                       workloads=WorkloadsSpec(per_class=1, length=500))
    outcome = execute(reworked, store=ArtifactStore(cache))
    assert not any(e.stage == "ace" and e.cached for e in outcome.events)

    store = ArtifactStore(cache)
    stages = [stage for stage, _ in store.entries()]
    assert stages.count("ace") == 2
    assert stages.count("plan") == 3


def test_tinycore_sfi_warm_cache(tmp_path):
    spec = RunSpec(design="tinycore:fib",
                   sfi=SfiSpec(injections=15, seed=1))
    cache = tmp_path / "cache"
    cold = execute(spec, store=ArtifactStore(cache))
    warm = execute(spec, store=ArtifactStore(cache))
    assert {e.stage for e in warm.events if e.cached} == {"golden", "sfi"}
    assert warm.golden.cached and warm.sfi.cached
    assert warm.sfi.result.counts() == cold.sfi.result.counts()
    # a different seed re-runs the campaign but keeps the golden run
    reseeded = RunSpec(design="tinycore:fib",
                       sfi=SfiSpec(injections=15, seed=2))
    outcome = execute(reseeded, store=ArtifactStore(cache))
    cached = {e.stage for e in outcome.events if e.cached}
    assert cached == {"golden"}


def test_derating_warm_cache(tmp_path):
    spec = RunSpec(design="tinycore:fib", derating=DeratingSpec())
    cache = tmp_path / "cache"
    cold = execute(spec, store=ArtifactStore(cache))
    assert not cold.derating.cached
    warm = execute(spec, store=ArtifactStore(cache))
    assert warm.derating.cached
    assert warm.derating.flop_derating == cold.derating.flop_derating
    assert warm.derating.derated_seq_avf == cold.derating.derated_seq_avf
    # MC knobs are part of the key: asking for measurement re-runs.
    measured = RunSpec(design="tinycore:fib",
                       derating=DeratingSpec(mc_trials=8))
    outcome = execute(measured, store=ArtifactStore(cache))
    assert not outcome.derating.cached
    assert outcome.derating.mc is not None


def test_stage_version_bump_invalidates_warm_cache(tmp_path, monkeypatch):
    # A cache primed under an older stage implementation must not serve
    # entries to a newer one: the code version is part of the key.
    spec = RunSpec(design="tinycore:fib", derating=DeratingSpec())
    cache = tmp_path / "cache"
    execute(spec, store=ArtifactStore(cache))

    monkeypatch.setitem(STAGE_VERSIONS, "ports", STAGE_VERSIONS["ports"] - 1)
    outcome = execute(spec, store=ArtifactStore(cache))
    cached = {e.stage for e in outcome.events if e.cached}
    assert "golden" in cached       # version untouched: still a hit
    assert "ports" not in cached    # pre-deadline entries are stale


def test_plan_stored_under_format_2_is_a_miss(tmp_path, monkeypatch):
    # Format-2 plans pickled a dict-of-Node graph; the plan stage version
    # follows PLAN_FORMAT, so such an entry is never even opened.
    import warnings

    from repro.core.compiled import PLAN_FORMAT

    assert STAGE_VERSIONS["plan"] == PLAN_FORMAT
    spec = RunSpec(design="tinycore:fib", sart=SartSpec())
    cache = tmp_path / "cache"
    with monkeypatch.context() as patch:
        patch.setitem(STAGE_VERSIONS, "plan", 2)
        old = execute(spec, store=ArtifactStore(cache))
    store = ArtifactStore(cache)
    (stale,) = [fp for stage, fp in store.entries() if stage == "plan"]
    store.path("plan", stale).write_bytes(b"a format-2 plan")
    with warnings.catch_warnings():
        warnings.simplefilter("error", CacheDegradedWarning)
        outcome = execute(spec, store=ArtifactStore(cache))
    assert not outcome.plan.cached
    assert outcome.sart.result.node_avfs == old.sart.result.node_avfs


def _pickle_with_dataclass_atoms(obj) -> tuple[bytes, int]:
    """Pickle *obj* the way plan formats up to 3 stored atoms: as a frozen
    dataclass, ``object.__new__`` plus a field dict. Returns the bytes
    and how many distinct atoms were pickled."""
    import copyreg
    import io
    import pickle

    from repro.core.pavf import Atom

    class OldPickler(pickle.Pickler):
        atoms = 0

        def reducer_override(self, value):
            if type(value) is not Atom:
                return NotImplemented
            self.atoms += 1
            return copyreg.__newobj__, (Atom,), value._asdict()

    buf = io.BytesIO()
    pickler = OldPickler(buf, protocol=pickle.DEFAULT_PROTOCOL)
    pickler.dump(obj)
    return buf.getvalue(), pickler.atoms


def test_store_written_with_dataclass_atoms_misses_cleanly(tmp_path, monkeypatch):
    # Atoms became tuples with plan format 4, and the tuple cannot unpickle
    # a dataclass atom. Of the stored stages only plans hold atoms, and the
    # plan stage moved to v4 with the format: a store written under the old
    # versions misses its plans instead of warning and deleting them.
    import pickle
    import warnings

    from repro.core.compiled import PLAN_FORMAT

    assert STAGE_VERSIONS["plan"] == PLAN_FORMAT == 7
    spec = RunSpec(design="tinycore:fib", sart=SartSpec(),
                   derating=DeratingSpec(), sfi=SfiSpec(injections=12, seed=1),
                   beam=BeamSpec(flux=5e-5, exposures=8, seed=2),
                   campaign=CampaignSpec(lanes_per_pass=8))
    cache = tmp_path / "cache"
    with monkeypatch.context() as patch:
        patch.setitem(STAGE_VERSIONS, "plan", 3)
        old = execute(spec, store=ArtifactStore(cache))
    store = ArtifactStore(cache)
    holding_atoms = set()
    for stage, fp in store.entries():
        path = store.path(stage, fp)
        blob, atoms = _pickle_with_dataclass_atoms(pickle.loads(path.read_bytes()))
        if atoms:
            holding_atoms.add(stage)
            path.write_bytes(blob)
            with pytest.raises(TypeError):
                pickle.loads(blob)
    assert holding_atoms == {"plan"}
    with warnings.catch_warnings():
        warnings.simplefilter("error", CacheDegradedWarning)
        outcome = execute(spec, store=ArtifactStore(cache))
    cached = {e.stage for e in outcome.events if e.cached}
    assert cached == {"golden", "ports", "sfi", "beam"}
    assert not outcome.plan.cached
    assert outcome.sart.result.node_avfs == old.sart.result.node_avfs


def _pickle_as_format_5(obj) -> bytes:
    """Pickle *obj* the way plan format 5 stored set interners: slot
    state holding every interned set as a frozenset."""
    import copyreg
    import io
    import pickle

    from repro.core.pavf import SetInterner

    class OldPickler(pickle.Pickler):
        def reducer_override(self, value):
            if type(value) is not SetInterner:
                return NotImplemented
            sets = [frozenset(value.sorted_atoms(sid)) for sid in range(len(value))]
            return copyreg.__newobj__, (SetInterner,), (None, {"sets": sets})

    buf = io.BytesIO()
    OldPickler(buf, protocol=pickle.DEFAULT_PROTOCOL).dump(obj)
    return buf.getvalue()


def test_plan_pickled_under_format_5_misses_cleanly(tmp_path, monkeypatch):
    # Format 6 pickles an interner's rows and atom table and cannot load
    # the frozensets format 5 stored. The plan stage version follows the
    # format, so a format-5 entry is never opened: the run misses and
    # lowers the plan again, with no warning and the same result.
    import pickle
    import warnings

    from repro.core.compiled import PLAN_FORMAT

    assert STAGE_VERSIONS["plan"] == PLAN_FORMAT == 7
    spec = RunSpec(design="tinycore:fib", sart=SartSpec())
    cache = tmp_path / "cache"
    with monkeypatch.context() as patch:
        patch.setitem(STAGE_VERSIONS, "plan", 5)
        old = execute(spec, store=ArtifactStore(cache))
    store = ArtifactStore(cache)
    (stale,) = [fp for stage, fp in store.entries() if stage == "plan"]
    path = store.path("plan", stale)
    blob = _pickle_as_format_5(pickle.loads(path.read_bytes()))
    with pytest.raises(ValueError):
        pickle.loads(blob)
    path.write_bytes(blob)
    with warnings.catch_warnings():
        warnings.simplefilter("error", CacheDegradedWarning)
        outcome = execute(spec, store=ArtifactStore(cache))
    assert not outcome.plan.cached
    assert outcome.sart.result.node_avfs == old.sart.result.node_avfs
    # The format-5 entry was never opened, so never dropped either.
    assert path.read_bytes() == blob
    assert len([fp for stage, fp in store.entries() if stage == "plan"]) == 2


def test_checkpoint_bypasses_campaign_cache(tmp_path):
    cache = tmp_path / "cache"
    ckpt = str(tmp_path / "ckpt.json")
    spec = RunSpec(design="tinycore:fib", sfi=SfiSpec(injections=10, seed=1),
                   campaign=CampaignSpec(checkpoint=ckpt))
    execute(spec, store=ArtifactStore(cache))
    resumed = RunSpec(design="tinycore:fib",
                      sfi=SfiSpec(injections=10, seed=1),
                      campaign=CampaignSpec(resume=ckpt))
    outcome = execute(resumed, store=ArtifactStore(cache))
    # golden may hit, but the campaign itself must re-run
    assert not outcome.sfi.cached
    assert "sfi" not in {s for s, _ in ArtifactStore(cache).entries()}


@pytest.mark.parametrize("spec, persisted", [
    (RunSpec(design="tinycore:fib", sart=SartSpec(),
             sfi=SfiSpec(injections=12, seed=1),
             beam=BeamSpec(flux=5e-5, exposures=8, seed=2),
             campaign=CampaignSpec(lanes_per_pass=8)),
     {"golden", "ports", "plan", "sfi", "beam"}),
    (RunSpec(design="bigcore@scale=0.1",
             workloads=WorkloadsSpec(per_class=1, length=400)),
     {"ace", "plan"}),
], ids=["tinycore-campaigns", "bigcore-ace"])
def test_unwritable_cache_dir_warns_for_every_computed_stage(
        tmp_path, spec, persisted):
    # A plain file where the cache directory should be: every save fails.
    root = tmp_path / "cache"
    root.write_text("not a directory")
    with pytest.warns(CacheDegradedWarning) as caught:
        outcome = execute(spec, store=ArtifactStore(root))
    warned = {match.group(1) for w in caught
              if (match := re.match(r"could not persist (\w+)/", str(w.message)))}
    assert warned == persisted
    # Only the design and the whole-design solve are never persisted.
    assert {e.stage for e in outcome.events} - {"design", "sart"} <= warned


def test_campaign_with_failed_pass_is_not_cached(tmp_path, monkeypatch):
    import repro.sfi.injector as injector

    def broken(payload, sim, batch):
        raise RuntimeError("injected pass failure")

    monkeypatch.setattr(injector, "_run_sfi_pass", broken)
    spec = RunSpec(design="tinycore:fib", sfi=SfiSpec(injections=10, seed=1),
                   campaign=CampaignSpec(max_retries=1))
    cache = tmp_path / "cache"
    outcome = execute(spec, store=ArtifactStore(cache))
    assert len(outcome.sfi.result.failures) == 1
    stages = {stage for stage, _ in ArtifactStore(cache).entries()}
    assert "golden" in stages and "sfi" not in stages
