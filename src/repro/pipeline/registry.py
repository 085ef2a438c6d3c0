"""Design registry: uniform providers behind one reference grammar.

Every flow used to hand-roll its own design construction (tinycore
program lookup + ``build_tinycore``, ``BigcoreConfig`` + generator,
EXLIF parse + flatten). The registry replaces that with one protocol:

.. code-block:: python

    class DesignProvider(Protocol):
        kind: str                      # "tinycore", "bigcore", ...
        ref: str                       # normalized reference string
        def fingerprint(self) -> str   # content address of the design
        def build(self) -> BuiltDesign

and one reference grammar resolved by :func:`resolve_design`::

    tinycore:<program>[@parity=1]     e.g.  tinycore:fib
    bigcore[@key=value,...]           e.g.  bigcore@scale=2,seed=42
    systolic[@key=value,...]          e.g.  systolic@rows=32,cols=32
    exlif:<path>[@top=<module>]       e.g.  exlif:designs/core.exlif@top=cpu

Concrete providers for the built-in designs live with the designs
themselves (:mod:`repro.designs.tinycore.provider`,
:mod:`repro.designs.bigcore.provider`); external netlists are handled by
:class:`ExlifProvider` here.
"""

from __future__ import annotations

import hashlib
import math
from contextlib import closing
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Protocol, runtime_checkable

from repro.errors import DesignRefError
from repro.pipeline.artifacts import BuiltDesign
from repro.pipeline.fingerprint import stage_fingerprint


@runtime_checkable
class DesignProvider(Protocol):
    """Anything that can fingerprint a design without building it, and
    build it."""

    kind: str

    @property
    def ref(self) -> str: ...

    def fingerprint(self) -> str: ...

    def build(self) -> BuiltDesign: ...


# Text-mode read size for hashing and reading EXLIF files.
_BLOCK = 1 << 20


@dataclass(frozen=True)
class ExlifProvider:
    """``exlif:<path>[@top=<module>]`` — an external EXLIF netlist.

    The fingerprint hashes the file *content*, so editing the netlist
    invalidates downstream caches even when the path is unchanged. The
    file decides how it is read: a flat single-model file lowers line by
    line into the node graph, one with ``.subckt`` or several ``.model``
    blocks is parsed and flattened first. The build carries the graph,
    and its fingerprint is the digest of the text it parsed.
    """

    path: str
    top: str | None = None
    kind = "exlif"

    @property
    def ref(self) -> str:
        suffix = f"@top={self.top}" if self.top else ""
        return f"exlif:{self.path}{suffix}"

    def _lines(self, digest) -> Iterator[str]:
        """The file's lines, read as text blocks (universal newlines) that
        are hashed into *digest*: the digest of the whole text."""
        tail = ""
        try:
            with open(self.path) as handle:
                while block := handle.read(_BLOCK):
                    digest.update(block.encode())
                    *lines, tail = (tail + block).split("\n")
                    yield from lines
        except (OSError, UnicodeDecodeError) as exc:
            raise DesignRefError(f"cannot read EXLIF file {self.path!r}: {exc}")
        if tail:
            yield tail

    def _fingerprint(self, digest) -> str:
        return stage_fingerprint("design", "exlif", digest.hexdigest(), self.top)

    def fingerprint(self) -> str:
        digest = hashlib.sha256()
        for _ in self._lines(digest):
            pass
        return self._fingerprint(digest)

    def flat_module(self, text: str | None = None):
        """The design as a flattened Module, parsed from *text* or read
        again from the file (``[export]``; analysis needs only the graph)."""
        from repro.netlist.exlif import parse_exlif
        from repro.netlist.flatten import flatten

        if text is None:
            text = "\n".join(self._lines(hashlib.sha256()))
        modules = parse_exlif(text)
        top = self.top or next(iter(modules), None)
        if top not in modules:
            raise DesignRefError(
                f"module {top!r} not in {self.path!r}; have {sorted(modules)}"
            )
        return flatten(modules[top], modules)

    def build(self) -> BuiltDesign:
        from repro.netlist.exlif import FlattenRequired, read_exlif_graph
        from repro.netlist.graph import extract_graph

        digest = hashlib.sha256()
        try:
            with closing(self._lines(digest)) as lines:
                graph = read_exlif_graph(lines)
        except FlattenRequired:
            graph = None
        if graph is None or self.top not in (None, graph.name):
            # Hierarchy, several models or another top: parse and flatten.
            digest = hashlib.sha256()
            graph = extract_graph(self.flat_module("\n".join(self._lines(digest))))
        return BuiltDesign(
            kind=self.kind, fingerprint=self._fingerprint(digest), graph=graph
        )


# ----------------------------------------------------------------------
# reference parsing
# ----------------------------------------------------------------------

def _parse_params(text: str, ref: str) -> dict[str, str]:
    params: dict[str, str] = {}
    for field in text.split(","):
        if not field:
            continue
        key, eq, value = field.partition("=")
        if not eq or not key:
            raise DesignRefError(f"bad design parameter {field!r} in {ref!r}")
        params[key.strip()] = value.strip()
    return params


def _coerce(params: dict[str, str], key: str, kind: Callable, default):
    raw = params.pop(key, None)
    if raw is None:
        return default
    if kind is bool:
        return raw.lower() in ("1", "true", "yes", "on")
    try:
        value = kind(raw)
    except ValueError:
        raise DesignRefError(
            f"design parameter {key}={raw!r} is not {kind.__name__}"
        ) from None
    if kind is float and not math.isfinite(value):
        raise DesignRefError(f"design parameter {key}={raw!r} is not finite")
    return value


def _config(cls, ref: str, **fields):
    """A generator config, its ValueError a DesignRefError naming *ref*."""
    try:
        return cls(**fields)
    except ValueError as exc:
        raise DesignRefError(f"{ref!r}: {exc}") from None


def _reject_unknown(params: dict[str, str], ref: str) -> None:
    if params:
        raise DesignRefError(f"unknown design parameter(s) {sorted(params)} in {ref!r}")


def _make_tinycore(body: str, params: dict[str, str], ref: str) -> DesignProvider:
    from repro.designs.tinycore.provider import TinycoreProvider

    if not body:
        raise DesignRefError(f"{ref!r}: tinycore needs a program (tinycore:<program>)")
    parity = _coerce(params, "parity", bool, False)
    _reject_unknown(params, ref)
    return TinycoreProvider(program=body, parity=parity)


def _make_bigcore(body: str, params: dict[str, str], ref: str) -> DesignProvider:
    from repro.designs.bigcore.core import BigcoreConfig
    from repro.designs.bigcore.provider import BigcoreProvider

    if body:
        raise DesignRefError(f"{ref!r}: bigcore takes @key=value parameters only")
    config = _config(
        BigcoreConfig, ref,
        seed=_coerce(params, "seed", int, 42),
        scale=_coerce(params, "scale", float, 1.0),
        fub_count=_coerce(params, "fub_count", int, None),
        feedback_fubs=_coerce(params, "feedback_fubs", int, 3),
        edit=_coerce(params, "edit", str, None),
    )
    _reject_unknown(params, ref)
    return BigcoreProvider(config=config)


def _make_systolic(body: str, params: dict[str, str], ref: str) -> DesignProvider:
    from repro.designs.bigcore.provider import SystolicProvider
    from repro.designs.bigcore.systolic import SystolicConfig

    if body:
        raise DesignRefError(f"{ref!r}: systolic takes @key=value parameters only")
    config = _config(
        SystolicConfig, ref,
        rows=_coerce(params, "rows", int, 8),
        cols=_coerce(params, "cols", int, 8),
        data_width=_coerce(params, "data_width", int, 8),
        acc_width=_coerce(params, "acc_width", int, 16),
        tile=_coerce(params, "tile", int, 8),
    )
    _reject_unknown(params, ref)
    return SystolicProvider(config=config)


def _make_exlif(body: str, params: dict[str, str], ref: str) -> DesignProvider:
    if not body:
        raise DesignRefError(f"{ref!r}: exlif needs a path (exlif:<path>)")
    top = params.pop("top", None)
    _reject_unknown(params, ref)
    return ExlifProvider(path=body, top=top)


_SCHEMES: dict[str, Callable[[str, dict[str, str], str], DesignProvider]] = {
    "tinycore": _make_tinycore,
    "bigcore": _make_bigcore,
    "systolic": _make_systolic,
    "exlif": _make_exlif,
}


def resolve_design(ref: str, **overrides: Any) -> DesignProvider:
    """Parse a design reference into its provider.

    *overrides* are merged over the reference's ``@key=value`` parameters
    (CLI flags like ``--scale`` route through here); pass string values.
    """
    ref = ref.strip()
    scheme, colon, rest = ref.partition(":")
    if not colon:
        scheme, rest = ref, ""
    # The parameter block is the last "@..." segment containing "=",
    # so EXLIF paths with "@" in them still parse.
    body, at, tail = rest.rpartition("@")
    if at and "=" in tail:
        params = _parse_params(tail, ref)
    else:
        body, params = rest, {}
    # Scheme-only refs like "bigcore@scale=2" arrive with the params in
    # the scheme token; re-split.
    if "@" in scheme:
        scheme, _, tail = scheme.partition("@")
        params = _parse_params(tail, ref)
    factory = _SCHEMES.get(scheme)
    if factory is None:
        raise DesignRefError(
            f"unknown design scheme {scheme!r} in {ref!r}; have {sorted(_SCHEMES)}"
        )
    for key, value in overrides.items():
        if value is not None:
            params[str(key)] = str(value)
    return factory(body, params, ref)
