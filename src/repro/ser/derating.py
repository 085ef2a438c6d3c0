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
from dataclasses import dataclass, field
from typing import Mapping

from repro.errors import ReproError
from repro.netlist.cells import input_sensitivities
from repro.netlist.graph import NetGraph, NodeKind, extract_graph
from repro.rtlsim.simulator import Simulator
from repro.sfi.campaign import DEFAULT_FAULT_LANES, resolve_lanes_per_pass
from repro.sfi.results import PassFailure
from repro.sfi.runtime import RuntimeOptions, campaign_fingerprint, run_passes

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
    sinks = _build_sinks(graph)
    obs = _observabilities(sinks)
    return DeratingResult(flop_derating={
        net: min(1.0, max(0.0, obs.get(net, 0.0))) for net in graph.seq_nets()
    })


def _build_sinks(graph: NetGraph) -> dict[str, list]:
    """Net -> sink list: ``("f", factor)`` terminals and
    ``("c", consumer_net, sensitization)`` combinational consumers."""
    sinks: dict[str, list] = {net: [] for net in graph.nodes}

    def terminal(net: str, factor: float) -> None:
        entry = sinks.get(net)
        if entry is not None:
            entry.append(("f", factor))

    for node in graph.nodes.values():
        if node.kind == NodeKind.COMB:
            sens = input_sensitivities(node.cell, len(node.fanin))
            # A net feeding several pins of one gate contributes through
            # each pin; the independent composition below is the same
            # noisy-or the path model uses everywhere else.
            for pos, src in enumerate(node.fanin):
                if sens[pos] > 0.0:
                    sinks[src].append(("c", node.net, sens[pos]))
        elif node.kind == NodeKind.SEQ:
            has_en = len(node.fanin) == 3
            terminal(node.fanin[0], _HALF if has_en else 1.0)  # d
            if has_en:
                terminal(node.fanin[1], _HALF)                 # en
                terminal(node.fanin[2], _HALF)                 # hold path

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


def _observabilities(sinks: Mapping[str, list]) -> dict[str, float]:
    """Memoized reverse pass: ``obs = 1 - prod(1 - s * t)`` over sinks.

    Iterative post-order over the consumer DAG (combinational logic is
    acyclic in a synchronous design — the only cycles run through flops,
    which are terminals here). A net still being resolved when revisited
    would indicate a combinational loop; it contributes 0 rather than
    recursing forever.
    """
    obs: dict[str, float] = {}
    visiting: set[str] = set()
    for root in sinks:
        if root in obs:
            continue
        stack = [root]
        while stack:
            net = stack[-1]
            if net in obs:
                stack.pop()
                continue
            visiting.add(net)
            pending = [
                entry[1] for entry in sinks[net]
                if entry[0] == "c" and entry[1] not in obs
                and entry[1] not in visiting
            ]
            if pending:
                stack.extend(pending)
                continue
            survive = 1.0
            for entry in sinks[net]:
                if entry[0] == "f":
                    survive *= 1.0 - entry[1]
                else:
                    survive *= 1.0 - entry[2] * obs.get(entry[1], 0.0)
            obs[net] = 1.0 - survive
            visiting.discard(net)
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
class MaskingResult:
    """Measured propagation statistics plus per-trial outcomes.

    ``outcomes`` is ordered by trial index and holds one bool per trial
    (did the flip reach a capture point one cycle later) — the unit the
    lane-width and worker-count bit-identity tests compare.
    """

    trials: int = 0
    propagated: int = 0
    outcomes: tuple[bool, ...] = ()
    cycles: int = 0
    elapsed_seconds: float = 0.0
    failures: list[PassFailure] = field(default_factory=list)
    pool_restarts: int = 0
    degraded: bool = False
    resumed_passes: int = 0

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


@dataclass
class _MaskPayload:
    """Everything a worker needs to run masking passes on its own."""

    program: list[int]
    dmem_init: list[int] | None
    netlist: object            # TinycoreNetlist
    max_cycles: int
    output_nets: tuple[str, ...]


class _MaskContext:
    def __init__(self, payload: _MaskPayload):
        self.payload = payload
        self._sims: dict[int, Simulator] = {}

    def sim_for(self, lanes: int) -> Simulator:
        sim = self._sims.get(lanes)
        if sim is None:
            sim = Simulator(self.payload.netlist.module, lanes=lanes)
            self._sims[lanes] = sim
        return sim


_MASK_CTX: _MaskContext | None = None


def _init_mask_worker(payload: _MaskPayload) -> None:
    global _MASK_CTX
    _MASK_CTX = _MaskContext(payload)


def _run_mask_pass(group: list[MaskTrial]) -> list[list]:
    """Run one batch of trials; return ``[index, propagated]`` pairs.

    Lane 0 stays golden; each trial owns one fault lane. The flip lands
    at the start of its cycle (before the clock edge), the combinational
    output divergence is sampled the same cycle, and the latched state /
    memory divergence is sampled at the next cycle's entry — exactly the
    one-logic-level capture window the analytic model scores.
    """
    from repro.designs.tinycore.harness import run_gate_level

    ctx = _MASK_CTX
    assert ctx is not None, "worker used before initialization"
    payload = ctx.payload
    lanes = len(group) + 1
    sim = ctx.sim_for(lanes)
    flips: dict[int, list[tuple[MaskTrial, int]]] = {}
    checks: dict[int, list[tuple[MaskTrial, int]]] = {}
    for offset, trial in enumerate(group):
        flips.setdefault(trial.cycle, []).append((trial, offset + 1))
        checks.setdefault(trial.cycle + 1, []).append((trial, offset + 1))
    hits: dict[int, bool] = {}

    def on_cycle(simulator: Simulator, cycle: int) -> None:
        pending = checks.get(cycle)
        if pending:
            diverged = simulator.lanes_differing_from(0)
            for trial, lane in pending:
                if lane in diverged:
                    hits[trial.index] = True
        for trial, lane in flips.get(cycle, ()):
            hits.setdefault(trial.index, False)
            simulator.flip(trial.net, 1 << lane)
            # Combinational capture at a primary output happens within
            # the flip cycle; peeking settles the flipped state.
            for net in payload.output_nets:
                bits = simulator.peek(net)
                if ((bits >> lane) ^ bits) & 1:
                    hits[trial.index] = True

    run_gate_level(
        payload.program, payload.dmem_init, netlist=payload.netlist,
        sim=sim, max_cycles=payload.max_cycles, on_cycle=on_cycle,
    )
    return [[trial.index, bool(hits.get(trial.index, False))]
            for trial in group]


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
    from repro.designs.tinycore.core import build_tinycore
    from repro.designs.tinycore.harness import run_gate_level

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
    lanes_per_pass = resolve_lanes_per_pass(config.lanes_per_pass)
    groups = [
        trials[i:i + lanes_per_pass]
        for i in range(0, len(trials), lanes_per_pass)
    ]
    payload = _MaskPayload(
        program=list(program),
        dmem_init=list(dmem_init) if dmem_init is not None else None,
        netlist=netlist,
        max_cycles=config.max_cycles,
        output_nets=tuple(graph.outputs),
    )
    fingerprint = campaign_fingerprint(
        "masking", payload.program, payload.dmem_init, config.trials,
        config.seed, config.max_cycles, [len(g) for g in groups],
    )
    report = run_passes(
        _run_mask_pass, _init_mask_worker, payload, groups,
        workers=workers, options=runtime, fingerprint=fingerprint,
    )
    result = MaskingResult(cycles=golden.cycles)
    outcome_by_index: dict[int, bool] = {}
    for pass_result in report.results:
        if pass_result is None:
            continue  # recorded in result.failures
        for index, propagated in pass_result:
            outcome_by_index[int(index)] = bool(propagated)
    result.outcomes = tuple(
        outcome_by_index[i] for i in sorted(outcome_by_index)
    )
    result.trials = len(result.outcomes)
    result.propagated = sum(result.outcomes)
    result.failures = report.failures
    result.pool_restarts = report.pool_restarts
    result.degraded = report.degraded
    result.resumed_passes = report.resumed
    result.elapsed_seconds = time.perf_counter() - started
    return result
