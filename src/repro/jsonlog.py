"""Versioned append-only JSONL logs: one writer, one reader.

Campaign checkpoints (:mod:`repro.sfi.runtime`) and the job server's
journal (:mod:`repro.serve.jobs`) are both this kind of file: a header
line ``{"format": ..., "version": ...}`` and then one JSON object per
line, each flushed as it is written, so a crash loses at most the
record being written. Both formats, and what their readers tolerate,
are documented in docs/ROBUSTNESS.md.

Standard library only: importing this module pulls in neither the
campaign runtime nor the server.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass
from typing import Any

from repro.errors import ReproError


@dataclass(frozen=True)
class LogFormat:
    """One versioned JSONL log: its header tag and its typed error.

    ``noun`` opens every error message about a file of this format;
    ``title`` is what a file with a foreign header is "not".
    """

    tag: str
    version: int
    noun: str
    title: str
    error: type[ReproError]


class LogWriter:
    """Append-only versioned JSONL log, flushed after every record.

    The header is written only into an empty file, so reopening a log
    appends to it. A final record that a crash tore is cut off first:
    the reader drops it anyway, and the next record must not fuse with
    it into a corrupt line. Thread-safe: the job server journals from
    HTTP handler threads and the scheduler thread at once.
    """

    def __init__(self, path: str | os.PathLike, fmt: LogFormat, **header: Any):
        self.path = str(path)
        self._lock = threading.Lock()
        _cut_torn_tail(self.path, fmt)
        self._fh = open(self.path, "a")
        if self._fh.tell() == 0:
            self.append({"format": fmt.tag, "version": fmt.version, **header})

    def append(self, record: dict) -> None:
        line = json.dumps(record, sort_keys=True) + "\n"
        with self._lock:
            self._fh.write(line)
            self._fh.flush()

    def close(self) -> None:
        with self._lock:
            self._fh.close()


def _cut_torn_tail(path: str, fmt: LogFormat) -> None:
    """Truncate a log of *fmt* back to its last complete line."""
    try:
        with open(path, "rb+") as handle:
            data = handle.read()
            cut = data.rfind(b"\n") + 1
            if 0 < cut < len(data):
                try:
                    _check_header(data.split(b"\n", 1)[0], path, fmt)
                except ReproError:
                    return          # not this log: leave it to the reader
                handle.truncate(cut)
    except FileNotFoundError:
        pass


def _check_header(raw: bytes, path: str, fmt: LogFormat) -> dict:
    try:
        header = json.loads(raw)
    except (ValueError, RecursionError) as exc:
        raise fmt.error(f"{fmt.noun} {path!r}: unreadable header") from exc
    if not isinstance(header, dict) or header.get("format") != fmt.tag:
        raise fmt.error(f"{fmt.noun} {path!r}: not {fmt.title}")
    if header.get("version") != fmt.version:
        raise fmt.error(
            f"{fmt.noun} {path!r}: unsupported version "
            f"{header.get('version')!r} (this build writes version {fmt.version})"
        )
    return header


def read_log(
    path: str | os.PathLike, fmt: LogFormat
) -> tuple[dict, list[tuple[int, dict]]] | None:
    """Read a log as ``(header, [(line number, record), ...])``.

    Returns None for a missing or empty file. Blank lines are skipped,
    and exactly one torn final line (a record a crash cut off
    mid-write) is dropped. Every other line must hold a JSON object;
    anything else, a bad header included, raises ``fmt.error`` naming
    the path and the line.
    """
    path = str(path)
    if not os.path.exists(path):
        return None
    with open(path, "rb") as handle:
        lines = handle.read().splitlines()
    if not lines:
        return None
    header = _check_header(lines[0], path, fmt)
    records: list[tuple[int, dict]] = []
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        try:
            rec = json.loads(raw)
        except (ValueError, RecursionError) as exc:
            if lineno == len(lines):   # torn final write: drop that record
                break
            raise fmt.error(f"{fmt.noun} {path!r}: corrupt line {lineno}") from exc
        if not isinstance(rec, dict):
            raise fmt.error(
                f"{fmt.noun} {path!r}: corrupt line {lineno} (not a JSON object)"
            )
        records.append((lineno, rec))
    return header, records
