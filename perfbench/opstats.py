"""Small statistics and accounting helpers shared by every workload."""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

# A tail percentile is reported only with at least this many samples
# beyond it; fewer make it an estimate of the maximum.
TAIL_MIN_BEYOND = 10
TAIL_LEVELS = (99.9, 99.0, 95.0, 90.0)


def percentile(values, q: float) -> float:
    """The *q*-th percentile (0..100) by linear interpolation."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    pos = q / 100.0 * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def samples_beyond(n: int, q: float) -> int:
    """How many of *n* samples lie strictly above the *q*-th percentile."""
    return n - (int(q / 100.0 * (n - 1)) + 1)


def tail_level(n: int) -> float | None:
    """The highest level in :data:`TAIL_LEVELS` with enough samples beyond."""
    for q in TAIL_LEVELS:
        if samples_beyond(n, q) >= TAIL_MIN_BEYOND:
            return q
    return None


def median(values, default: float = 0.0) -> float:
    values = list(values)
    return statistics.median(values) if values else default


@dataclass
class OpLedger:
    """Attempted and failed ops, with one reason per failure.

    A failure is anything that keeps an op from delivering a checked
    result: an exception, a non-2xx response, a failed job, a timeout
    or an output that does not match its reference.
    """

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def record(self, error: str | None) -> None:
        """Count one attempted op; *error* is None when it succeeded."""
        self.attempted += 1
        if error is not None:
            self.failures.append(error)
