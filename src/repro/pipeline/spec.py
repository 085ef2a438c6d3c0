"""Declarative run-specs: one document describing a whole analysis run.

A run-spec names the design, the workloads, the SART environment, the
sweep axes, and the campaign settings; the runner
(:mod:`repro.pipeline.runner`) executes whatever composition of stages
the spec declares. Every CLI subcommand now builds one of these from its
flags, and ``repro-sart run <spec.toml>`` executes one straight from
disk — the same flow either way.

TOML example (``docs/ARCHITECTURE.md`` documents every key)::

    design = "tinycore:fib"

    [sart]
    loop_pavf = 0.3

    [sfi]
    injections = 100
    seed = 1

    [campaign]
    workers = 2

JSON files with the same shape are accepted (``.json`` extension).
Sections present select the stages to run: ``[sart]`` (or a bare design
with no other section) produces the per-FUB report, ``[sweep]`` the
Figure-8 loop sweep, ``[sfi]``/``[beam]`` the campaigns, ``[export]`` a
netlist export, ``[derating]`` the per-flop logic-derating analysis.
Unknown sections and keys are rejected, and each section checks its
values against their declared types and ranges when it is built.
"""

from __future__ import annotations

import json
import reprlib
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Mapping

from repro.errors import SpecError
from repro.pipeline.registry import resolve_design


class _Section:
    """Base of every spec section: its values are checked on construction.

    A spec file, an HTTP body and the CLI flags all build sections, so a
    bad value raises :class:`SpecError` naming ``[section] key`` before
    anything runs, whichever front end supplied it.
    """

    def __post_init__(self) -> None:
        _check_values(self)


@dataclass(frozen=True)
class WorkloadsSpec(_Section):
    """The bigcore ACE workload suite (``[workloads]``)."""

    per_class: int = 2
    length: int = 4000


@dataclass(frozen=True)
class SartSpec(_Section):
    """SART environment knobs (``[sart]``)."""

    loop_pavf: float = 0.3


@dataclass(frozen=True)
class SweepSpec(_Section):
    """Loop-boundary pAVF sweep (``[sweep]``, Figure 8).

    Every sweep point is evaluated in one multi-workload matrix pass
    (:mod:`repro.core.batched`).
    """

    points: int = 11


@dataclass(frozen=True)
class SfiSpec(_Section):
    """Statistical fault-injection campaign (``[sfi]``)."""

    injections: int = 378
    seed: int = 1
    per_node: bool = False


@dataclass(frozen=True)
class BeamSpec(_Section):
    """Simulated accelerated beam test (``[beam]``)."""

    flux: float = 2e-5
    exposures: int = 252
    seed: int = 2024
    include_arrays: bool = False
    parity: bool = False


@dataclass(frozen=True)
class CampaignSpec(_Section):
    """Execution substrate shared by sfi/beam (``[campaign]``)."""

    workers: int = 1
    lanes_per_pass: int | None = None
    max_retries: int = 3
    pass_timeout: float | None = None
    checkpoint: str | None = None
    resume: str | None = None
    max_pool_restarts: int = 3


@dataclass(frozen=True)
class DeratingSpec(_Section):
    """Logic-derating analysis (``[derating]``).

    The analytic per-flop derating pass always runs; ``mc_trials > 0``
    additionally validates it with the Monte-Carlo masking estimator on
    the gate-level core (tinycore designs only).
    """

    mc_trials: int = 0
    mc_seed: int = 11


@dataclass(frozen=True)
class ExportSpec(_Section):
    """Netlist export (``[export]``)."""

    output: str
    format: str = "exlif"


@dataclass(frozen=True)
class EcoSpec(_Section):
    """Incremental re-solve against a baseline design (``[eco]``).

    ``baseline`` is a design reference; the runner solves it first (its
    ACE suite and plan come from the artifact store when one is
    configured), diffs the two compiled plans, and warm-starts the main
    design's SART solve from the baseline so only the FUBs the edit
    actually influences re-solve — bit-identical to a cold run.
    ``check`` additionally runs the cold solve and verifies the
    equivalence, for CI smoke and debugging.
    """

    baseline: str
    check: bool = False


@dataclass(frozen=True)
class RunSpec:
    """A complete declarative description of one analysis run."""

    design: str
    workloads: WorkloadsSpec | None = None
    ports_file: str | None = None
    sart: SartSpec | None = None
    sweep: SweepSpec | None = None
    sfi: SfiSpec | None = None
    beam: BeamSpec | None = None
    campaign: CampaignSpec = field(default_factory=CampaignSpec)
    export: ExportSpec | None = None
    eco: EcoSpec | None = None
    derating: DeratingSpec | None = None

    def to_mapping(self) -> dict[str, Any]:
        """Canonical JSON-safe document (round-trips via
        :func:`spec_from_mapping`).

        Section defaults are materialized, so two spec files that only
        differ in which defaults they spell out map to the same
        document — the normalization the serve-layer deduplication
        keys on.
        """
        doc: dict[str, Any] = {"design": self.design}
        if self.ports_file:
            doc["ports"] = {"file": self.ports_file}
        for name in _SECTIONS:
            value = getattr(self, name)
            if value is not None:
                doc[name] = asdict(value)
        return doc

    def stages(self) -> list[str]:
        """The stage compositions this spec declares, in run order."""
        out = []
        if self.export:
            out.append("export")
        if (self.sart or self.eco or self.derating
                or not (self.sweep or self.sfi or self.beam or self.export)):
            out.append("sart")
        if self.derating:
            out.append("derating")
        if self.sweep:
            out.append("sweep")
        if self.sfi:
            out.append("sfi")
        if self.beam:
            out.append("beam")
        return out


_SECTIONS = {
    "workloads": WorkloadsSpec,
    "sart": SartSpec,
    "sweep": SweepSpec,
    "sfi": SfiSpec,
    "beam": BeamSpec,
    "campaign": CampaignSpec,
    "export": ExportSpec,
    "eco": EcoSpec,
    "derating": DeratingSpec,
}
_SECTION_NAMES = {cls: name for name, cls in _SECTIONS.items()}

_TYPES = {"int": int, "float": (int, float), "bool": bool, "str": str}

# What each declared type requires beyond the type itself: integers are
# counts, strings are non-empty.
_TYPE_RULES = {
    "int": (lambda v: v >= 1, "an integer >= 1"),
    "float": (lambda v: v == v, "a number"),
    "bool": (lambda v: True, "true or false"),
    "str": (lambda v: v != "", "a non-empty string"),
}

# Knobs whose rule differs from their type's.
_FIELD_RULES = {
    "loop_pavf": (lambda v: 0.0 <= v <= 1.0, "a number in [0, 1]"),
    "flux": (lambda v: 0.0 < v <= 1.0, "a number in (0, 1]"),
    "pass_timeout": (lambda v: v > 0, "a number > 0"),
    "seed": (lambda v: True, "an integer"),
    "mc_seed": (lambda v: True, "an integer"),
    "mc_trials": (lambda v: v >= 0, "an integer >= 0"),
    "max_pool_restarts": (lambda v: v >= 0, "an integer >= 0"),
    "format": (lambda v: v in ("exlif", "verilog"), "'exlif' or 'verilog'"),
}


def _check_values(section) -> None:
    """Check every value of *section* against its declared type and rule.

    Types are required, never coerced: a bool is not an integer, and an
    integer is the only other type a float field accepts. Fields
    declared ``| None`` also accept None.
    """
    for f in fields(section):
        value = getattr(section, f.name)
        kind, _, optional = f.type.partition(" | ")
        if value is None and optional:
            continue
        test, what = _FIELD_RULES.get(f.name) or _TYPE_RULES[kind]
        typed = (isinstance(value, _TYPES[kind])
                 and (kind == "bool" or not isinstance(value, bool)))
        if not (typed and test(value)):
            # reprlib bounds the echo of a huge or deeply nested value.
            raise SpecError(f"[{_SECTION_NAMES[type(section)]}] {f.name} "
                            f"must be {what}, got {reprlib.repr(value)}")


def _section(cls, data: Mapping[str, Any], name: str):
    if not isinstance(data, Mapping):
        raise SpecError(f"[{name}] must be a table/object, got {type(data).__name__}")
    known = {f.name for f in fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise SpecError(
            f"unknown key(s) {sorted(unknown)} in [{name}]; have {sorted(known)}"
        )
    try:
        return cls(**data)
    except TypeError as exc:
        raise SpecError(f"bad [{name}] section: {exc}")


def spec_from_mapping(data: Mapping[str, Any]) -> RunSpec:
    """Build a validated :class:`RunSpec` from a parsed TOML/JSON document."""
    if not isinstance(data, Mapping):
        raise SpecError("run-spec root must be a table/object")
    data = dict(data)
    design = data.pop("design", None)
    if isinstance(design, Mapping):
        extra = set(design) - {"ref"}
        if extra:
            raise SpecError(f"unknown key(s) {sorted(extra)} in [design]; have ['ref']")
        design = design.get("ref")
    if not isinstance(design, str) or not design:
        raise SpecError("run-spec needs a design reference: design = \"tinycore:fib\"")
    resolve_design(design)  # a bad ref raises here, before anything runs
    ports_file = data.pop("ports", None)
    if isinstance(ports_file, Mapping):
        extra = set(ports_file) - {"file"}
        if extra:
            raise SpecError(
                f"unknown key(s) {sorted(extra)} in [ports]; have ['file']"
            )
        ports_file = ports_file.get("file")
    if ports_file is not None and not (isinstance(ports_file, str) and ports_file):
        raise SpecError("[ports] must be a table with a 'file' key or a "
                        f"non-empty string, got {reprlib.repr(ports_file)}")
    sections: dict[str, Any] = {}
    for name, cls in _SECTIONS.items():
        raw = data.pop(name, None)
        if raw is not None:
            sections[name] = _section(cls, raw, name)
    if data:
        raise SpecError(
            f"unknown section(s) {sorted(data)}; "
            f"have {sorted(_SECTIONS) + ['design', 'ports']}"
        )
    if "eco" in sections:
        resolve_design(sections["eco"].baseline)
    return RunSpec(
        design=design,
        workloads=sections.get("workloads"),
        ports_file=ports_file,
        sart=sections.get("sart"),
        sweep=sections.get("sweep"),
        sfi=sections.get("sfi"),
        beam=sections.get("beam"),
        campaign=sections.get("campaign", CampaignSpec()),
        export=sections.get("export"),
        eco=sections.get("eco"),
        derating=sections.get("derating"),
    )


# Campaign knobs that place or pace the execution without being able to
# change its result: the runtime's determinism contract makes outcomes
# bit-identical at any worker count, retry budget, or checkpoint split.
_EXECUTION_ONLY_CAMPAIGN_KEYS = (
    "workers", "max_retries", "pass_timeout",
    "checkpoint", "resume", "max_pool_restarts",
)


def spec_fingerprint(spec: RunSpec) -> str:
    """Content fingerprint of the *result* a run-spec describes.

    Execution-placement knobs (worker counts, retry/timeout budgets,
    checkpoint paths) are excluded: they cannot change what is computed,
    only how, so two requests for the same analysis deduplicate even
    when their QoS settings differ.
    """
    from repro.pipeline.fingerprint import fingerprint

    doc = spec.to_mapping()
    campaign = dict(doc.get("campaign") or {})
    for key in _EXECUTION_ONLY_CAMPAIGN_KEYS:
        campaign.pop(key, None)
    doc["campaign"] = campaign
    return fingerprint("runspec", doc)


def load_spec(path: str) -> RunSpec:
    """Load a run-spec file (TOML by default, JSON for ``.json``)."""
    try:
        if str(path).endswith(".json"):
            with open(path) as handle:
                data = json.load(handle)
        else:
            import tomllib

            with open(path, "rb") as handle:
                data = tomllib.load(handle)
    except OSError as exc:
        raise SpecError(f"cannot read run-spec {path!r}: {exc}")
    except (json.JSONDecodeError, ValueError) as exc:
        raise SpecError(f"malformed run-spec {path!r}: {exc}")
    return spec_from_mapping(data)
