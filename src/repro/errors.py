"""Exception hierarchy for the repro package.

Every error raised by this library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class NetlistError(ReproError):
    """Structural problem in a netlist (bad connection, duplicate name...)."""


class ExlifParseError(NetlistError):
    """Malformed EXLIF text input."""

    def __init__(self, message: str, line_number: int | None = None):
        self.line_number = line_number
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)


class ValidationError(NetlistError):
    """A netlist failed structural validation (lint)."""


class SimulationError(ReproError):
    """Gate-level simulation could not proceed (e.g. combinational loop)."""


class AssemblerError(ReproError):
    """Error while assembling a tinycore program."""


class TraceError(ReproError):
    """Malformed workload trace for the performance model."""


class AceError(ReproError):
    """Error in ACE analysis (inconsistent events, unknown structure...)."""


class SartError(ReproError):
    """Error in the sequential-AVF resolution flow."""


class MappingError(SartError):
    """ACE-structure bit could not be mapped to an RTL bit."""


class CampaignError(ReproError):
    """Fault-injection campaign misconfiguration or unrecoverable failure."""


class CheckpointError(CampaignError):
    """A campaign checkpoint file could not be used.

    Raised when the file named by ``resume=`` is missing, unreadable, or
    corrupt beyond its final (possibly torn) record, when its versioned
    header does not match the runtime's checkpoint format version, when
    its fingerprint belongs to a different campaign configuration, or
    when a fresh campaign would overwrite an existing checkpoint.
    """


class PipelineError(ReproError):
    """Error in the staged analysis pipeline (registry, store, runner)."""


class SpecError(PipelineError):
    """A declarative run-spec file is malformed or inconsistent."""


class DesignRefError(SpecError):
    """A design reference could not be resolved to a provider.

    References take the form ``tinycore:<program>``,
    ``bigcore[@scale=...,seed=...]``, or ``exlif:<path>[@top=...]``;
    this is raised for unknown schemes, unknown programs, malformed
    parameter lists, sizes above the generators' node ceiling, and
    missing EXLIF files. A bad reference is a bad spec: the job server
    answers it with a 400.
    """


class CacheDegradedWarning(UserWarning):
    """The artifact store degraded to a cache miss instead of failing.

    Emitted when a cached entry is corrupt (and dropped) or when the
    cache directory cannot be written (and the result is computed
    without being persisted). The run's correctness is unaffected; only
    reuse across runs is lost, which is worth a visible warning.
    """


class WarmStartDegradedWarning(UserWarning):
    """An incremental (ECO) solve fell back to a cold solve.

    Emitted when a warm-started relaxation exhausts its iteration
    budget before quiescing: a truncated warm trajectory is not
    comparable to a truncated cold one, so the solve restarts cold to
    keep results bit-identical with non-ECO runs. Correctness is
    unaffected; only the incremental speedup is lost.
    """


class ServeError(ReproError):
    """Error in the AVF job server (admission, journal, scheduling)."""


class JobJournalError(ServeError):
    """The server's job journal could not be used.

    Raised when the journal file named by the server's state directory
    has an unreadable or mismatched header, or is corrupt anywhere
    before its final (possibly torn) record: the reader of
    :mod:`repro.jsonlog`, which campaign checkpoints share.
    """


class QueueFullError(ServeError):
    """Job admission rejected: the bounded queue is at capacity.

    ``retry_after`` is the backpressure hint (seconds) that the HTTP
    layer surfaces as a 429 response with a ``Retry-After`` header.
    """

    def __init__(self, message: str, retry_after: float = 1.0):
        super().__init__(message)
        self.retry_after = retry_after


class ServerDrainingError(ServeError):
    """Job admission rejected: the server is draining for shutdown."""
