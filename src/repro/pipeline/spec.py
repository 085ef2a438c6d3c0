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
    monolithic = true

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
Unknown sections and keys are rejected.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Mapping

from repro.errors import SpecError


@dataclass(frozen=True)
class WorkloadsSpec:
    """The bigcore ACE workload suite (``[workloads]``)."""

    per_class: int = 2
    length: int = 4000


@dataclass(frozen=True)
class SartSpec:
    """SART environment knobs (``[sart]``).

    Validated on construction, so a spec file, an HTTP body and the CLI
    flags all fail the same way: a bad value raises :class:`SpecError`
    before anything runs.
    """

    loop_pavf: float = 0.3
    iterations: int = 20
    monolithic: bool = False

    def __post_init__(self) -> None:
        loop = self.loop_pavf
        if (isinstance(loop, bool) or not isinstance(loop, (int, float))
                or not 0.0 <= loop <= 1.0):
            raise SpecError(
                f"[sart] loop_pavf must be a number in [0, 1], got {loop!r}")
        its = self.iterations
        if isinstance(its, bool) or not isinstance(its, int) or its < 1:
            raise SpecError(
                f"[sart] iterations must be an integer >= 1, got {its!r}")


@dataclass(frozen=True)
class SweepSpec:
    """Loop-boundary pAVF sweep (``[sweep]``, Figure 8).

    Every sweep point is evaluated in one multi-workload matrix pass
    (:mod:`repro.core.batched`). Validated on construction, like
    :class:`SartSpec`.
    """

    points: int = 11

    def __post_init__(self) -> None:
        points = self.points
        if isinstance(points, bool) or not isinstance(points, int) or points < 1:
            raise SpecError(
                f"[sweep] points must be an integer >= 1, got {points!r}")


@dataclass(frozen=True)
class SfiSpec:
    """Statistical fault-injection campaign (``[sfi]``)."""

    injections: int = 378
    seed: int = 1
    per_node: bool = False


@dataclass(frozen=True)
class BeamSpec:
    """Simulated accelerated beam test (``[beam]``)."""

    flux: float = 2e-5
    exposures: int = 252
    seed: int = 2024
    include_arrays: bool = False
    parity: bool = False


@dataclass(frozen=True)
class CampaignSpec:
    """Execution substrate shared by sfi/beam (``[campaign]``)."""

    workers: int = 1
    lanes_per_pass: int | None = None
    max_retries: int = 3
    pass_timeout: float | None = None
    checkpoint: str | None = None
    resume: str | None = None
    max_pool_restarts: int = 3


@dataclass(frozen=True)
class DeratingSpec:
    """Logic-derating analysis (``[derating]``).

    The analytic per-flop derating pass always runs; ``mc_trials > 0``
    additionally validates it with the Monte-Carlo masking estimator on
    the gate-level core (tinycore designs only).
    """

    mc_trials: int = 0
    mc_seed: int = 11


@dataclass(frozen=True)
class ExportSpec:
    """Netlist export (``[export]``)."""

    output: str
    format: str = "exlif"


@dataclass(frozen=True)
class EcoSpec:
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
_BOOLEANS = {"monolithic", "per_node", "include_arrays", "parity", "check"}


def _section(cls, data: Mapping[str, Any], name: str):
    if not isinstance(data, Mapping):
        raise SpecError(f"[{name}] must be a table/object, got {type(data).__name__}")
    known = {f.name for f in fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise SpecError(
            f"unknown key(s) {sorted(unknown)} in [{name}]; have {sorted(known)}"
        )
    kwargs = dict(data)
    for key in sorted(_BOOLEANS & set(kwargs)):
        if not isinstance(kwargs[key], bool):
            raise SpecError(
                f"[{name}] {key} must be true or false, got {kwargs[key]!r}")
    try:
        return cls(**kwargs)
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
    ports = data.pop("ports", None)
    ports_file = None
    if ports is not None:
        if isinstance(ports, Mapping):
            extra = set(ports) - {"file"}
            if extra:
                raise SpecError(
                    f"unknown key(s) {sorted(extra)} in [ports]; have ['file']"
                )
            ports_file = ports.get("file")
        elif isinstance(ports, str):
            ports_file = ports
        else:
            raise SpecError("[ports] must be a table with a 'file' key or a string")
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
