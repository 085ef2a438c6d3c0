"""Logic derating: combinational masking between a flop and its sinks.

A particle strike in a flip-flop only matters if the flipped value
survives the combinational logic between that flop and a capture point —
another flop's data input, a structure write port, or a primary output.
The probability that it does is the flop's **logic derating factor**
(Asadi & Tahoori); the derated per-flop soft error rate is then

    FIT = AVF x intrinsic rate x logic derating

with the derating factor multiplying the sequential AVF the SART model
already provides (:func:`repro.ser.fit.FitModel.add` takes it as the
``derating`` argument).

Two estimators live here:

:func:`analytic_derating`
    One reverse pass over the node graph. Every net gets an
    *observability*: the probability, under uniformly random inputs,
    that flipping the net flips at least one capture point this cycle.
    Per-pin gate sensitization comes from exact truth-table enumeration
    of the cell library (:func:`repro.netlist.cells.input_sensitivities`)
    and composes along paths as ``obs(net) = 1 - prod over sinks of
    (1 - s_sink * t_sink)``, where ``t`` is the consumer's own
    observability (combinational consumer) or a terminal capture factor
    (flop / memory / output sink). The pass is O(edges) and memoized, so
    it scales to the mega-node designs the compiled engine handles.

:func:`measure_masking_mc`
    The Monte-Carlo validation estimator on the gate-level tinycore:
    flip a random flop at a random cycle of a real program run and
    observe whether the machine's state, memories, or outputs diverge
    one cycle later. Every trial is planned up front from the seed and
    executed on the fault-tolerant lane-parallel runtime, so results are
    bit-identical at any lane width and worker count.

Terminal capture factors (uniform-input model, documented so the MC
estimator and the oracles agree on what is being predicted): a plain DFF
``d`` pin captures with probability 1; an enabled DFF captures through
``d`` with probability 1/2 (enable high), observes an ``en`` flip with
probability 1/2 (d != q), and *retains* a corrupted ``q`` through its
hold path with probability 1/2 (enable low) — retention counts because
the corrupted value is still live state next cycle, which is exactly
what the MC estimator sees. Memory write-data/address/enable pins and
read-address pins capture with probability 1/2; primary outputs with
probability 1.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from operator import attrgetter
from typing import Mapping

from repro.designs.tinycore.core import build_tinycore
from repro.designs.tinycore.harness import run_gate_level
from repro.errors import ReproError
from repro.netlist.cells import input_sensitivities
from repro.netlist.graph import NetGraph, NodeKind, extract_graph
from repro.sfi.campaign import DEFAULT_FAULT_LANES
from repro.sfi.lanes import CampaignRuntime, LanePass, LanePayload, run_lane_passes
from repro.sfi.runtime import RuntimeOptions

# Capture probability of the "coin flip" terminals under uniform inputs:
# enabled-DFF d/en/hold paths and every memory pin.
_HALF = 0.5


@dataclass(frozen=True)
class DeratingResult:
    """Per-flop logic derating factors of one design."""

    flop_derating: Mapping[str, float]

    def factor(self, net: str) -> float:
        return self.flop_derating.get(net, 1.0)

    def mean(self) -> float:
        values = self.flop_derating.values()
        return sum(values) / len(values) if values else 0.0

    def to_summary(self) -> dict:
        """JSON-safe summary (count + distribution landmarks)."""
        values = sorted(self.flop_derating.values())
        n = len(values)
        return {
            "flops": n,
            "mean": self.mean(),
            "min": values[0] if values else 0.0,
            "p50": values[n // 2] if values else 0.0,
            "max": values[-1] if values else 0.0,
        }


def analytic_derating(design) -> DeratingResult:
    """Compute every flop's logic derating factor analytically.

    *design* is a :class:`~repro.netlist.graph.NetGraph` or a flattened
    :class:`~repro.netlist.netlist.Module` (extracted on the fly).
    """
    graph = design if isinstance(design, NetGraph) else extract_graph(design)
    obs = _observabilities(_build_sinks(graph))
    return DeratingResult(flop_derating={
        net: min(1.0, max(0.0, value))
        for net, kind, value in zip(graph.names, graph.kinds, obs)
        if kind == NodeKind.SEQ
    })


def _build_sinks(graph: NetGraph) -> list[list]:
    """Node id -> sink list: ``("f", factor)`` terminals and
    ``("c", consumer_id, sensitization)`` combinational consumers."""
    ids, ptr, ix, cells = graph.ids, graph.fanin_ptr, graph.fanin_ix, graph.cells
    sinks: list[list] = [[] for _ in ids]

    def terminal(net: str, factor: float) -> None:
        nid = ids.get(net)
        if nid is not None:
            sinks[nid].append(("f", factor))

    for nid, kind in enumerate(graph.kinds):
        lo, hi = ptr[nid], ptr[nid + 1]
        if kind == NodeKind.COMB:
            sens = input_sensitivities(cells[nid], hi - lo)
            # A net feeding several pins of one gate contributes through
            # each pin; the independent composition below is the same
            # noisy-or the path model uses everywhere else.
            for pos, src in enumerate(ix[lo:hi]):
                if sens[pos] > 0.0:
                    sinks[src].append(("c", nid, sens[pos]))
        elif kind == NodeKind.SEQ:
            has_en = hi - lo == 3
            sinks[ix[lo]].append(("f", _HALF if has_en else 1.0))  # d
            if has_en:
                sinks[ix[lo + 1]].append(("f", _HALF))             # en
                sinks[ix[lo + 2]].append(("f", _HALF))             # hold path

    for mem in graph.mems.values():
        for net in mem.wdata:
            terminal(net, _HALF)
        for net in mem.waddr:
            terminal(net, _HALF)
        terminal(mem.wen, _HALF)
        for port in mem.read_ports:
            for net in port.addr:
                terminal(net, _HALF)

    for net in graph.outputs:
        terminal(net, 1.0)
    return sinks


def _observabilities(sinks: list[list]) -> list[float]:
    """Memoized reverse pass: ``obs = 1 - prod(1 - s * t)`` over sinks.

    Iterative post-order over the consumer DAG (combinational logic is
    acyclic in a synchronous design — the only cycles run through flops,
    which are terminals here). A node still being resolved when revisited
    would indicate a combinational loop; it contributes 0 rather than
    recursing forever.
    """
    obs: list[float | None] = [None] * len(sinks)
    visiting = bytearray(len(sinks))
    for root in range(len(sinks)):
        if obs[root] is not None:
            continue
        stack = [root]
        while stack:
            nid = stack[-1]
            if obs[nid] is not None:
                stack.pop()
                continue
            visiting[nid] = 1
            pending = [
                entry[1] for entry in sinks[nid]
                if entry[0] == "c" and obs[entry[1]] is None
                and not visiting[entry[1]]
            ]
            if pending:
                stack.extend(pending)
                continue
            survive = 1.0
            for entry in sinks[nid]:
                if entry[0] == "f":
                    survive *= 1.0 - entry[1]
                else:
                    survive *= 1.0 - entry[2] * (obs[entry[1]] or 0.0)
            obs[nid] = 1.0 - survive
            visiting[nid] = 0
            stack.pop()
    return obs


# ----------------------------------------------------------------------
# Monte-Carlo validation estimator (gate-level tinycore)
# ----------------------------------------------------------------------

@dataclass
class MaskingConfig:
    """Monte-Carlo masking measurement parameters."""

    trials: int = 256
    seed: int = 11
    lanes_per_pass: int | None = DEFAULT_FAULT_LANES  # None selects it too
    max_cycles: int = 100_000


@dataclass(frozen=True)
class MaskTrial:
    """One planned flip: which flop, which cycle of the golden run."""

    index: int
    net: str
    cycle: int


@dataclass
class MaskingResult(CampaignRuntime):
    """Measured propagation statistics plus per-trial outcomes.

    ``outcomes`` is ordered by trial index and holds one bool per trial
    (did the flip reach a capture point one cycle later) — the unit the
    lane-width and worker-count bit-identity tests compare.
    """

    trials: int = 0
    propagated: int = 0
    outcomes: tuple[bool, ...] = ()
    cycles: int = 0

    def rate(self) -> float:
        """Measured propagation probability (1 - masking rate)."""
        return self.propagated / self.trials if self.trials else 0.0

    def to_summary(self) -> dict:
        return {
            "trials": self.trials,
            "propagated": self.propagated,
            "rate": self.rate(),
            "cycles": self.cycles,
            "elapsed_seconds": self.elapsed_seconds,
        }


def plan_mask_trials(
    config: MaskingConfig, seq_nets: list[str], cycles: int
) -> list[MaskTrial]:
    """Sample every trial (flop, cycle) up front from the seed."""
    rng = random.Random(config.seed)
    window = max(1, cycles - 1)
    return [
        MaskTrial(index=i, net=seq_nets[rng.randrange(len(seq_nets))],
                  cycle=rng.randrange(window))
        for i in range(config.trials)
    ]


def _run_mask_pass(
    payload: LanePayload, run, lane_pass: LanePass
) -> list[bool]:
    """Run one batch of trials; return whether each one propagated.

    Lane 0 stays golden; each trial owns one fault lane. The flip lands
    at the start of its cycle (before the clock edge), the combinational
    output divergence is sampled the same cycle, and the latched state /
    memory divergence is sampled at the next cycle's entry — exactly the
    one-logic-level capture window the analytic model scores. The pass
    ends once its last trial is sampled.
    """
    flips: dict[int, list[tuple[str, int]]] = {}
    checks: dict[int, list[int]] = {}
    for lane, trial in enumerate(lane_pass.trials, 1):
        flips.setdefault(trial.cycle, []).append((trial.net, lane))
        checks.setdefault(trial.cycle + 1, []).append(lane)
    hits = [False] * (len(lane_pass.trials) + 1)  # by lane

    def on_cycle(simulator, cycle: int) -> None:
        pending = checks.get(cycle)
        if pending:
            diverged = simulator.lanes_differing_from(0)
            for lane in pending:
                if lane in diverged:
                    hits[lane] = True
        for net, lane in flips.get(cycle, ()):
            simulator.flip(net, 1 << lane)
            # Combinational capture at a primary output happens within
            # the flip cycle; peeking settles the flipped state.
            for out in payload.extra:  # the primary outputs
                bits = simulator.peek(out)
                if ((bits >> lane) ^ bits) & 1:
                    hits[lane] = True

    run(on_cycle, until=max(checks))
    return hits[1:]


def measure_masking_mc(
    program: list[int],
    dmem_init: list[int] | None,
    config: MaskingConfig | None = None,
    *,
    netlist=None,
    workers: int = 1,
    runtime: RuntimeOptions | None = None,
) -> MaskingResult:
    """Measure the flop-population propagation probability by MC.

    Deterministic for a fixed seed: trials are planned up front and
    folded in submission order, so the measurement is bit-identical at
    any ``workers`` count and any ``lanes_per_pass`` grouping.
    """
    config = config or MaskingConfig()
    if config.trials <= 0:
        raise ReproError("masking measurement needs at least one trial")
    started = time.perf_counter()
    if netlist is None:
        netlist = build_tinycore(program, dmem_init)
    graph = extract_graph(netlist.module)
    seq_nets = graph.seq_nets()
    golden = run_gate_level(program, dmem_init, netlist=netlist)
    trials = plan_mask_trials(config, seq_nets, golden.cycles)
    lanes = run_lane_passes(
        "masking", _run_mask_pass, program, dmem_init, netlist, trials,
        attrgetter("cycle"), (config.trials, config.seed, config.max_cycles),
        lanes_per_pass=config.lanes_per_pass, max_cycles=config.max_cycles,
        workers=workers, runtime=runtime, extra=tuple(graph.outputs),
    )
    result = MaskingResult(cycles=golden.cycles)
    result.outcomes = tuple(v for v in lanes.verdicts if v is not None)
    result.trials = len(result.outcomes)
    result.propagated = sum(result.outcomes)
    result.absorb(lanes.report, started)
    return result
