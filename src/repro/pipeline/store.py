"""Content-addressed on-disk artifact store.

Layout (one directory per stage, one pickle per fingerprint)::

    <cache-dir>/
        golden/<sha256>.pkl        + <sha256>.json   (metadata sidecar)
        ports/<sha256>.pkl         ...
        ace/<sha256>.pkl
        plan/<sha256>.pkl
        derating/<sha256>.pkl
        sfi/<sha256>.pkl
        beam/<sha256>.pkl

SART solves are never stored. A solve on a cached plan skips the
lowering, and on a resident plan (below) its caches too; what it
re-runs depends on its mode (see :mod:`repro.pipeline.stages`).

The fingerprint *is* the address: it already encodes the design config,
program, workload suite, stage knobs, and stage code version
(:mod:`repro.pipeline.fingerprint`), so a lookup is a single ``open``
and "invalidation" is simply a key that no longer matches. Writes are
atomic (temp file + ``os.replace``), so a crashed run never leaves a
half-written artifact behind; unreadable or corrupt entries are treated
as misses and recomputed, with a
:class:`~repro.errors.CacheDegradedWarning` so silent cache loss does
not masquerade as a cold cache.

The sidecar JSON records what produced each blob (stage, fingerprint,
repro version, creation time) for ``repro-sart``-independent inspection
and cleanup; it is never read on the hot path.

A store also keeps in memory what it loads or saves, so a second
``load`` of an artifact returns the same object with no unpickling. The
resident set is a least-recently-used table bounded by the pickled bytes
of what it holds (:data:`RESIDENT_BYTES`); an artifact larger than that
is never held. A held artifact is shared by every run that loads it
through this store: stages treat loaded artifacts as read-only, and a
plan's only changes are its interner and caches growing as it solves.
"""

from __future__ import annotations

import json
import os
import pickle
import tempfile
import time
import warnings
from collections import OrderedDict
from pathlib import Path
from typing import Any, Callable

import repro
from repro.errors import CacheDegradedWarning

_STAGE_OK = frozenset("abcdefghijklmnopqrstuvwxyz0123456789-_")

# Pickled bytes of the artifacts one store keeps resident. A solved plan
# takes several times its pickle in memory (docs/PERFORMANCE.md,
# "Serving"), so this bounds a store's resident plans to a few hundred MB.
RESIDENT_BYTES = 32 << 20


class ArtifactStore:
    """Pickle-backed content-addressed store rooted at *root*.

    Each ``fetch`` reports whether it hit; the pipeline records that on
    its :class:`~repro.pipeline.stages.StageEvent` as ``cached``.
    """

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)
        # (stage, fingerprint) -> (artifact, pickled bytes), oldest use first.
        self._resident: OrderedDict[tuple[str, str], tuple[Any, int]] = OrderedDict()
        self._resident_bytes = 0

    def _hold(self, key: tuple[str, str], obj: Any, nbytes: int) -> None:
        """Keep *obj* resident, evicting the least recently used first."""
        if nbytes > RESIDENT_BYTES:
            return
        resident = self._resident
        old = resident.pop(key, None)
        if old is not None:
            self._resident_bytes -= old[1]
        while resident and self._resident_bytes + nbytes > RESIDENT_BYTES:
            self._resident_bytes -= resident.popitem(last=False)[1][1]
        resident[key] = (obj, nbytes)
        self._resident_bytes += nbytes

    # ------------------------------------------------------------------
    def path(self, stage: str, fingerprint: str) -> Path:
        if not stage or not set(stage) <= _STAGE_OK:
            raise ValueError(f"bad stage name {stage!r}")
        if not fingerprint or not all(c in "0123456789abcdef" for c in fingerprint):
            raise ValueError(f"bad fingerprint {fingerprint!r}")
        return self.root / stage / f"{fingerprint}.pkl"

    def load(self, stage: str, fingerprint: str) -> Any | None:
        """Return the cached artifact, or None on miss/corruption."""
        path = self.path(stage, fingerprint)
        key = (stage, fingerprint)
        held = self._resident.get(key)
        if held is not None:
            self._resident.move_to_end(key)
            return held[0]
        try:
            with open(path, "rb") as handle:
                obj = pickle.load(handle)
                nbytes = os.fstat(handle.fileno()).st_size
        except (FileNotFoundError, NotADirectoryError):
            return None
        except Exception as exc:
            # Corrupt/truncated/unreadable entry: drop it and recompute.
            warnings.warn(
                f"cache entry {stage}/{fingerprint[:12]} is unreadable "
                f"({type(exc).__name__}); dropping it and recomputing",
                CacheDegradedWarning, stacklevel=2)
            try:
                path.unlink(missing_ok=True)
            except OSError:
                pass
            return None
        self._hold(key, obj, nbytes)
        return obj

    def save(self, stage: str, fingerprint: str, obj: Any) -> Path:
        """Atomically persist *obj* under its fingerprint."""
        path = self.path(stage, fingerprint)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(obj, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        nbytes = path.stat().st_size
        meta = {
            "stage": stage,
            "fingerprint": fingerprint,
            "repro_version": repro.__version__,
            "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "bytes": nbytes,
        }
        path.with_suffix(".json").write_text(json.dumps(meta, indent=2) + "\n")
        self._hold((stage, fingerprint), obj, nbytes)
        return path

    def fetch(
        self, stage: str, fingerprint: str, compute: Callable[[], Any],
        *, keep: Callable[[Any], bool] | None = None,
    ) -> tuple[Any, bool]:
        """Load the artifact or compute-and-save it; returns (obj, hit).

        A computed artifact is saved, and held, only if *keep* (when
        given) accepts it.
        """
        obj = self.load(stage, fingerprint)
        if obj is not None:
            return obj, True
        obj = compute()
        if keep is None or keep(obj):
            self.persist(stage, fingerprint, obj)
        return obj, False

    def persist(self, stage: str, fingerprint: str, obj: Any) -> bool:
        """:meth:`save`, degrading a read-only or full cache dir to a
        :class:`CacheDegradedWarning`; returns whether *obj* was saved."""
        try:
            self.save(stage, fingerprint, obj)
        except (OSError, pickle.PicklingError) as exc:
            warnings.warn(
                f"could not persist {stage}/{fingerprint[:12]} to "
                f"{self.root} ({type(exc).__name__}: {exc}); continuing "
                "without caching",
                CacheDegradedWarning, stacklevel=3)
            return False
        return True

    def entries(self) -> list[tuple[str, str]]:
        """All (stage, fingerprint) pairs currently on disk."""
        out: list[tuple[str, str]] = []
        if not self.root.is_dir():
            return out
        for stage_dir in sorted(p for p in self.root.iterdir() if p.is_dir()):
            for blob in sorted(stage_dir.glob("*.pkl")):
                out.append((stage_dir.name, blob.stem))
        return out

    def stats(self) -> dict:
        """On-disk footprint snapshot (served by ``/stats`` in serve mode).

        Counts the directory: the server's worker processes write the same
        root through their own store objects, so the disk is the only
        shared source of truth.
        """
        per_stage: dict[str, int] = {}
        total_bytes = 0
        for stage, fp in self.entries():
            per_stage[stage] = per_stage.get(stage, 0) + 1
            try:
                total_bytes += self.path(stage, fp).stat().st_size
            except OSError:
                pass
        return {
            "root": str(self.root),
            "entries": sum(per_stage.values()),
            "entries_per_stage": per_stage,
            "bytes": total_bytes,
        }


class NullStore:
    """Cache-disabled stand-in with the same fetch interface."""

    root = None

    def load(self, stage: str, fingerprint: str) -> None:
        return None

    def save(self, stage: str, fingerprint: str, obj: Any) -> None:
        return None

    def fetch(
        self, stage: str, fingerprint: str, compute: Callable[[], Any],
        *, keep: Callable[[Any], bool] | None = None,
    ) -> tuple[Any, bool]:
        return compute(), False

    def entries(self) -> list[tuple[str, str]]:
        return []

    def stats(self) -> dict:
        return {"root": None, "entries": 0, "entries_per_stage": {}, "bytes": 0}
