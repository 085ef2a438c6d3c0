"""Simulated accelerated beam testing.

Runs the gate-level core repeatedly while injecting Poisson-distributed
single-bit upsets into *all* storage — every flip-flop and every bit of
the register file and data memory — at an accelerated flux, and measures
the rate of silent data corruption at the program outputs. The paper's
physical equivalent was "a 200 MeV proton beam with variable flux" at the
Indiana University Cyclotron; the statistical structure of the
measurement (Poisson event counts, hence sqrt(N) error bars) is the same.

Each simulator pass exposes a batch of independent "devices" (fault
lanes) to the beam while lane 0 stays golden; a device shows SDC when its
output stream (or halt behaviour) diverges. All strikes are planned up
front from the seed — one (cycle, target, bit) plan per device — so the
measurement is deterministic no matter how passes are grouped, where
they start or how many worker processes execute them. Devices are
batched by their earliest strike, unstruck devices last. The measured
rate comes with a Poisson confidence interval — Figure 10's "statistical
error of the measured value".
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass

from repro.designs.tinycore.core import TinycoreNetlist, build_tinycore
from repro.designs.tinycore.harness import run_gate_level
from repro.errors import CampaignError
from repro.netlist.graph import extract_graph
from repro.sfi.campaign import (
    DEFAULT_FAULT_LANES,
    DUE,
    SDC,
    UNKNOWN,
    resolve_lanes_per_pass,
)
from repro.sfi.lanes import (
    CampaignRuntime,
    LanePass,
    LanePayload,
    lane_verdicts,
    run_lane_passes,
)
from repro.sfi.runtime import RuntimeOptions


@dataclass
class BeamConfig:
    """Beam-run parameters."""

    flux: float = 2e-5          # upset probability per storage bit per cycle
    exposures: int = 252        # device-runs under the beam (4 passes of 63)
    seed: int = 2024
    lanes_per_pass: int | None = DEFAULT_FAULT_LANES  # None selects it too
    max_cycles: int = 100_000
    # Arrays are parity/ECC protected in the modelled product (their
    # strikes become DUE, not SDC) — matching the paper's setup, which
    # deliberately minimized array contributions to the beam SDC signal.
    # The program ROM is never struck: it is assumed hardened/reloadable.
    include_arrays: bool = False
    # Build the parity-protected core: array strikes raise DUE instead of
    # silently corrupting data (enable include_arrays to exercise it).
    parity: bool = False


@dataclass
class BeamResult(CampaignRuntime):
    """Measured beam statistics.

    The devices of a pass that failed permanently are excluded from
    ``exposures`` and from ``outcomes``, which holds the other devices'
    verdicts in exposure order.
    """

    sdc_events: int = 0
    due_events: int = 0
    exposures: int = 0
    cycles_per_run: int = 0
    strikes: int = 0
    storage_bits: int = 0
    flux: float = 0.0
    outcomes: tuple[str, ...] = ()

    @property
    def sdc_rate_per_cycle(self) -> float:
        """Measured SDC events per device-cycle."""
        total_cycles = self.exposures * self.cycles_per_run
        return self.sdc_events / total_cycles if total_cycles else 0.0

    @property
    def due_rate_per_cycle(self) -> float:
        """Measured DUE events per device-cycle (parity variant)."""
        total_cycles = self.exposures * self.cycles_per_run
        return self.due_events / total_cycles if total_cycles else 0.0

    def rate_interval(self, z: float = 1.96) -> tuple[float, float]:
        """Poisson (sqrt-N) interval on the per-cycle SDC rate."""
        total_cycles = self.exposures * self.cycles_per_run
        if total_cycles == 0:
            return (0.0, 0.0)
        n = self.sdc_events
        margin = z * math.sqrt(max(n, 1))
        return (max(0.0, (n - margin)) / total_cycles, (n + margin) / total_cycles)

    def to_summary(self) -> dict:
        """Machine-readable beam summary (shared result-emission layer)."""
        lo, hi = self.rate_interval()
        return {
            "kind": "beam",
            "exposures": self.exposures,
            "cycles_per_run": self.cycles_per_run,
            "strikes": self.strikes,
            "storage_bits": self.storage_bits,
            "flux": self.flux,
            "sdc_events": self.sdc_events,
            "due_events": self.due_events,
            "sdc_rate_per_cycle": self.sdc_rate_per_cycle,
            "sdc_rate_interval": [lo, hi],
            "due_rate_per_cycle": self.due_rate_per_cycle,
            "elapsed_seconds": self.elapsed_seconds,
            "failed_passes": len(self.failures),
            "pool_restarts": self.pool_restarts,
            "degraded": self.degraded,
            "resumed_passes": self.resumed_passes,
        }


@dataclass(frozen=True)
class BeamStrike:
    """One planned particle strike in one device's exposure."""

    cycle: int
    kind: str        # "flop" or "mem"
    target: str      # net name (flop) or MEM instance name
    addr: int = 0    # mem only
    bit: int = 0     # mem only


def plan_beam_exposures(
    config: BeamConfig,
    targets: list[tuple[str, str]],
    weights: list[int],
    mem_sizes: dict[str, tuple[int, int]],
    storage_bits: int,
    cycles_per_run: int,
) -> list[list[BeamStrike]]:
    """Sample every device's strikes up front from the seed.

    Each device draws a Poisson number of strikes for the whole exposure
    and every strike is fully resolved (cycle, target, and for arrays the
    struck word and bit) at plan time, so execution order — batching,
    workers — cannot perturb the measurement.
    """
    rng = random.Random(config.seed)
    expected = config.flux * storage_bits * cycles_per_run
    plans: list[list[BeamStrike]] = []
    for _ in range(config.exposures):
        strikes = []
        for _ in range(_poisson(rng, expected)):
            cycle = rng.randrange(max(1, cycles_per_run - 1))
            kind, target = rng.choices(targets, weights)[0]
            if kind == "mem":
                depth, width = mem_sizes[target]
                strikes.append(BeamStrike(cycle, kind, target,
                                          rng.randrange(depth), rng.randrange(width)))
            else:
                strikes.append(BeamStrike(cycle, kind, target))
        plans.append(strikes)
    return plans


def _run_beam_pass(
    payload: LanePayload, run, lane_pass: LanePass
) -> list[str]:
    """Expose one batch of devices; return each device's verdict."""
    strikes_by_cycle: dict[int, list[tuple[BeamStrike, int]]] = {}
    for lane, strikes in enumerate(lane_pass.trials, 1):
        for s in strikes:
            strikes_by_cycle.setdefault(s.cycle, []).append((s, lane))

    def strike(simulator, cycle: int) -> None:
        for s, lane in strikes_by_cycle.get(cycle, ()):
            if s.kind == "flop":
                simulator.flip(s.target, 1 << lane)
            else:
                simulator.mems[s.target].flip_bit(lane, s.addr, s.bit)

    return lane_verdicts(run(strike))


def _first_strike(strikes: list[BeamStrike]) -> int | None:
    return min((s.cycle for s in strikes), default=None)


def run_beam_test(
    program: list[int],
    dmem_init: list[int] | None,
    config: BeamConfig | None = None,
    *,
    netlist: TinycoreNetlist | None = None,
    workers: int = 1,
    runtime: RuntimeOptions | None = None,
) -> BeamResult:
    """Expose the core to the simulated beam and measure the SDC rate.

    *workers* > 1 fans the independent passes out across processes; for
    a fixed seed the counts are identical at any worker count. *runtime*
    enables the fault-tolerant execution layer — checkpoint/resume,
    bounded retry, pool respawn with serial degradation, soft pass
    timeouts (see docs/ROBUSTNESS.md); a resumed measurement is
    bit-identical to an uninterrupted one.
    """
    config = config or BeamConfig()
    if config.flux <= 0:
        raise CampaignError("flux must be positive")
    lanes_per_pass = resolve_lanes_per_pass(config.lanes_per_pass)
    started = time.perf_counter()
    if netlist is None:
        netlist = build_tinycore(program, dmem_init, parity=config.parity)
    graph = extract_graph(netlist.module)
    seq_nets = graph.seq_nets()

    # Enumerate strikable storage bits: (kind, target) tuples.
    targets: list[tuple[str, str]] = [("flop", net) for net in seq_nets]
    bits = len(seq_nets)
    if config.include_arrays:
        for inst, mem in graph.mems.items():
            if inst == "u_irom":
                continue
            targets.append(("mem", inst))
            bits += mem.depth * mem.width
    mem_sizes = {
        inst: (m.depth, m.width) for inst, m in graph.mems.items()
    }
    # Selection weights: each memory counts as depth*width bits.
    weights = [1] * len(seq_nets) + [
        mem_sizes[t][0] * mem_sizes[t][1]
        for kind, t in targets[len(seq_nets):]
    ]

    result = BeamResult(flux=config.flux, storage_bits=bits)
    golden = run_gate_level(program, dmem_init, netlist=netlist)
    result.cycles_per_run = golden.cycles

    exposures = plan_beam_exposures(
        config, targets, weights, mem_sizes, bits, golden.cycles
    )
    result.strikes = sum(len(p) for p in exposures)
    lanes = run_lane_passes(
        "beam", _run_beam_pass, program, dmem_init, netlist, exposures,
        _first_strike,
        (config.flux, config.exposures, config.seed, config.max_cycles,
         config.include_arrays, config.parity),
        lanes_per_pass=lanes_per_pass, max_cycles=config.max_cycles,
        workers=workers, runtime=runtime,
    )
    result.outcomes = tuple(v for v in lanes.verdicts if v is not None)
    # Continuous beam operation: corruption still in architectural state
    # when a run ends is consumed by subsequent runs, so it counts as SDC.
    result.sdc_events = sum(v in (SDC, UNKNOWN) for v in result.outcomes)
    result.due_events = result.outcomes.count(DUE)
    result.exposures = len(result.outcomes)
    result.absorb(lanes.report, started)
    return result


def _poisson(rng: random.Random, lam: float) -> int:
    """Knuth sampling (lam is small here: a handful of strikes per run)."""
    if lam <= 0:
        return 0
    threshold = math.exp(-lam)
    k, p = 0, 1.0
    while True:
        p *= rng.random()
        if p <= threshold:
            return k
        k += 1
        if k > 10_000:  # numeric guard for absurd fluxes
            return k
