"""Host speed, gauged by a fixed reference loop timed between ops.

The benchmark runs on a few cores of a shared host whose speed drifts by
up to 1.6x over minutes, while the process's CPU time tracks its wall
time (the slowdown is per instruction, not time taken away). A fixed
piece of pure-Python work slows with the host and not with the program,
so an op's time divided by the reference loop's time next to it, times
the loop's nominal time, reads the op at one fixed host speed.

:class:`HostGauge` times the loop at checkpoints between ops. The span
from one checkpoint to the next is a segment; its ops are scaled by the
mean of the loop times at its two ends. Checkpoints (a garbage
collection and the loop) are not part of the timed phase.
"""

from __future__ import annotations

import gc
import random
import time

# The reference loop's time on the host the figures were recorded on
# (nproc 2, Python 3.11.7), so scaled times read in seconds on that host.
NOMINAL_S = 0.0115
REPEATS = 3


class _Node:
    __slots__ = ("a", "b", "weight")

    def __init__(self, a: int, b: int, weight: float):
        self.a, self.b, self.weight = a, b, weight


def reference_loop(n: int = 4000, sweeps: int = 8) -> float:
    """The work the host is gauged with: relaxation over an object graph,
    grouping in a dict, sorting and string formatting, the kinds of work
    the program does. Inputs are fixed, so the work never changes."""
    rng = random.Random(7)
    nodes = [_Node(rng.randrange(n), rng.randrange(n), rng.random())
             for _ in range(n)]
    values = [0.0] * n
    for _ in range(sweeps):
        values = [0.5 * (values[node.a] + values[node.b]) + 0.25 * node.weight
                  for node in nodes]
    groups: dict = {}
    for i, node in enumerate(nodes):
        groups.setdefault((node.a % 97, node.b % 89), []).append(i)
    ordered = sorted(groups.items(), key=lambda kv: (len(kv[1]), kv[0]))
    text = ",".join(f"{k[0]}:{k[1]}:{len(v)}" for k, v in ordered)
    return sum(values) + len(text)


def time_reference_loop() -> float:
    """The fastest of :data:`REPEATS` timings: a timing the scheduler
    interrupted reads slow, an uninterrupted one never reads fast."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        reference_loop()
        best = min(best, time.perf_counter() - t0)
    return best


class HostGauge:
    """Reference-loop times at checkpoints and the timed wall between."""

    def __init__(self) -> None:
        self.refs: list[float] = []     # loop time at each checkpoint
        self.walls: list[float] = []    # timed wall of each closed segment
        self._opened: float | None = None

    @property
    def segment(self) -> int:
        """The open segment, which the next op falls in."""
        return len(self.refs) - 1

    def checkpoint(self) -> None:
        """Close the open segment, collect garbage and time the loop."""
        now = time.perf_counter()
        if self._opened is not None:
            self.walls.append(now - self._opened)
        gc.collect()
        self.refs.append(time_reference_loop())
        gc.collect()
        self._opened = time.perf_counter()

    def since_checkpoint(self) -> float:
        return time.perf_counter() - self._opened

    def scale(self, segment: int) -> float:
        """Factor taking a time in *segment* to the nominal host speed."""
        ref = (self.refs[segment] + self.refs[segment + 1]) / 2
        return NOMINAL_S / ref

    @property
    def wall(self) -> float:
        return sum(self.walls)

    @property
    def scaled_wall(self) -> float:
        return sum(w * self.scale(i) for i, w in enumerate(self.walls))
