"""Artifact store: roundtrip, miss, corruption, and counter semantics."""

import json

import pytest

from repro.errors import CacheDegradedWarning
from repro.pipeline.store import ArtifactStore, NullStore

FP = "ab" * 32


def test_roundtrip(tmp_path):
    store = ArtifactStore(tmp_path)
    store.save("golden", FP, {"cycles": 166})
    assert store.load("golden", FP) == {"cycles": 166}
    assert store.entries() == [("golden", FP)]


def test_miss_returns_none(tmp_path):
    store = ArtifactStore(tmp_path)
    assert store.load("golden", FP) is None


def test_corrupt_entry_is_a_miss_and_is_dropped(tmp_path):
    store = ArtifactStore(tmp_path)
    path = store.path("plan", FP)
    path.parent.mkdir(parents=True)
    path.write_bytes(b"this is not a pickle")
    with pytest.warns(CacheDegradedWarning, match="unreadable"):
        assert store.load("plan", FP) is None
    assert not path.exists()  # corrupt blob removed


def test_corrupt_sidecar_does_not_poison_the_blob(tmp_path):
    store = ArtifactStore(tmp_path)
    path = store.save("golden", FP, {"cycles": 166})
    sidecar = path.with_suffix(".json")
    sidecar.write_text("{not json at all")
    # The sidecar is metadata only: loads still hit, and a re-save
    # rewrites it with valid content.
    assert store.load("golden", FP) == {"cycles": 166}
    obj, hit = store.fetch("golden", FP, lambda: pytest.fail("recomputed"))
    assert (obj, hit) == ({"cycles": 166}, True)
    store.save("golden", FP, {"cycles": 167})
    assert json.loads(sidecar.read_text())["stage"] == "golden"


def test_unwritable_cache_dir_degrades_to_pass_through(tmp_path):
    # A plain file where the store root should be makes every mkdir in
    # save() fail with an OSError (works even when running as root,
    # unlike permission-bit tricks).
    root = tmp_path / "cache"
    root.write_text("i am a file, not a directory")
    store = ArtifactStore(root)
    calls = []

    def compute():
        calls.append(1)
        return {"cycles": 166}

    with pytest.warns(CacheDegradedWarning, match="could not persist"):
        obj, hit = store.fetch("golden", FP, compute)
    assert (obj, hit, len(calls)) == ({"cycles": 166}, False, 1)
    # Nothing was cached, so the next fetch recomputes (and warns) again.
    with pytest.warns(CacheDegradedWarning):
        obj, hit = store.fetch("golden", FP, compute)
    assert (obj, hit, len(calls)) == ({"cycles": 166}, False, 2)


def test_save_raises_on_unwritable_dir_but_fetch_survives(tmp_path):
    root = tmp_path / "cache"
    root.write_text("still a file")
    store = ArtifactStore(root)
    with pytest.raises(OSError):
        store.save("golden", FP, "payload")


def test_fetch_counts_hits_and_misses(tmp_path):
    store = ArtifactStore(tmp_path)
    calls = []

    def compute():
        calls.append(1)
        return [1, 2, 3]

    obj, hit = store.fetch("ace", FP, compute)
    assert (obj, hit, len(calls)) == ([1, 2, 3], False, 1)
    obj, hit = store.fetch("ace", FP, compute)
    assert (obj, hit, len(calls)) == ([1, 2, 3], True, 1)


def test_fetch_keep_vetoes_the_save(tmp_path):
    store = ArtifactStore(tmp_path)
    obj, hit = store.fetch("sfi", FP, lambda: "partial", keep=lambda obj: False)
    assert (obj, hit) == ("partial", False)
    assert store.entries() == []
    store.fetch("sfi", FP, lambda: "whole", keep=lambda obj: True)
    assert store.entries() == [("sfi", FP)]


def test_metadata_sidecar(tmp_path):
    import json

    store = ArtifactStore(tmp_path)
    path = store.save("sfi", FP, "payload")
    meta = json.loads(path.with_suffix(".json").read_text())
    assert meta["stage"] == "sfi"
    assert meta["fingerprint"] == FP
    assert meta["bytes"] == path.stat().st_size


def test_rejects_unsafe_keys(tmp_path):
    store = ArtifactStore(tmp_path)
    with pytest.raises(ValueError):
        store.path("../evil", FP)
    with pytest.raises(ValueError):
        store.path("golden", "../../etc/passwd")


def test_null_store_never_caches():
    store = NullStore()
    obj, hit = store.fetch("golden", FP, lambda: 42)
    assert (obj, hit) == (42, False)
    store.save("golden", FP, 42)
    assert store.load("golden", FP) is None
    assert store.entries() == []


# ----------------------------------------------------------------------
# the resident set
# ----------------------------------------------------------------------

def _blob_bytes(store, stage, fp):
    return store.path(stage, fp).stat().st_size


def test_second_load_returns_the_held_object_without_its_file(tmp_path):
    store = ArtifactStore(tmp_path)
    store.save("golden", FP, {"cycles": 166})
    first = store.load("golden", FP)
    store.path("golden", FP).unlink()
    assert store.load("golden", FP) is first
    # A store that did not load it reads the disk, and misses.
    assert ArtifactStore(tmp_path).load("golden", FP) is None


def test_a_loaded_artifact_is_held(tmp_path):
    ArtifactStore(tmp_path).save("golden", FP, {"cycles": 166})
    store = ArtifactStore(tmp_path)
    first = store.load("golden", FP)
    store.path("golden", FP).unlink()
    assert store.load("golden", FP) is first


def test_byte_bound_evicts_the_least_recently_used(tmp_path, monkeypatch):
    import repro.pipeline.store as store_mod

    store = ArtifactStore(tmp_path)
    fps = ["a" * 64, "b" * 64, "c" * 64]
    for fp in fps[:2]:
        store.save("golden", fp, list(range(100)))
    size = _blob_bytes(store, "golden", fps[0])
    # Room for two artifacts of this size, not three.
    monkeypatch.setattr(store_mod, "RESIDENT_BYTES", 2 * size + size // 2)
    a = store.load("golden", fps[0])          # a is now the most recent
    store.save("golden", fps[2], list(range(100)))
    for fp in fps:
        store.path("golden", fp).unlink()
    assert store.load("golden", fps[0]) is a
    assert store.load("golden", fps[1]) is None   # evicted
    assert store.load("golden", fps[2]) == list(range(100))


def test_an_artifact_over_the_budget_is_not_held(tmp_path, monkeypatch):
    import repro.pipeline.store as store_mod

    monkeypatch.setattr(store_mod, "RESIDENT_BYTES", 64)
    store = ArtifactStore(tmp_path)
    store.save("golden", FP, list(range(100)))
    assert _blob_bytes(store, "golden", FP) > 64
    first = store.load("golden", FP)
    assert store.load("golden", FP) is not first   # unpickled again
    store.path("golden", FP).unlink()
    assert store.load("golden", FP) is None


def test_an_artifact_keep_vetoes_is_not_held(tmp_path):
    store = ArtifactStore(tmp_path)
    calls = []

    def compute():
        calls.append(1)
        return ["partial"]

    store.fetch("sfi", FP, compute, keep=lambda obj: False)
    obj, hit = store.fetch("sfi", FP, compute, keep=lambda obj: False)
    assert (obj, hit, len(calls)) == (["partial"], False, 2)
