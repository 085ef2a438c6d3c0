"""Loop characterization — the paper's loop solution 2 (Section 4.3).

"RTL simulations can determine the probability of loops retaining values
versus passing values. This probability can be the pAVF for the loop."

The paper rejected this for their flow because it "defeats the purpose of
our technique by requiring RTL simulations" at their scale; at tinycore
scale a single golden run is cheap, so we provide it as the refinement
path for loop-heavy designs: a loop node's *pass rate* — the fraction of
cycles its stored value changes — is the measured per-node alternative to
the static injected constant (solution 3).

The measured rates plug into :class:`~repro.core.sart.SartConfig` via
``loop_pavf_per_net``, which binds each loop atom individually (exact
bindings take precedence over the kind-level static value).
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.errors import SartError
from repro.rtlsim.simulator import Simulator


def measure_activity(
    sim: Simulator,
    nets: Iterable[str],
    *,
    cycles: int,
    stimulus=None,
) -> dict[str, float]:
    """Per-net value-change rate over a *cycles*-long simulation.

    ``stimulus(sim, cycle)`` may drive primary inputs each cycle. The
    simulator is reset first and lane 0 is observed. Returns net ->
    changes / cycles in [0, 1].
    """
    nets = list(nets)
    if cycles < 1:
        raise SartError("measure_activity needs at least one cycle")
    sim.reset()
    previous = {net: sim.peek_lane(net, 0) for net in nets}
    changes = {net: 0 for net in nets}
    for cycle in range(cycles):
        if stimulus is not None:
            stimulus(sim, cycle)
        sim.step()
        for net in nets:
            value = sim.peek_lane(net, 0)
            if value != previous[net]:
                changes[net] += 1
                previous[net] = value
    return {net: changes[net] / cycles for net in nets}


def characterize_loops(
    sim: Simulator,
    loop_nets: Iterable[str],
    *,
    cycles: int,
    stimulus=None,
    floor: float = 0.02,
) -> dict[str, float]:
    """Measured per-loop-node pAVF values (solution 2).

    The pass rate is floored (default 2 %) so that a node that happened
    to hold still during the observation window never gets written off
    entirely — mirroring the conservative spirit of the static injection.
    """
    rates = measure_activity(sim, loop_nets, cycles=cycles, stimulus=stimulus)
    return {net: max(floor, rate) for net, rate in rates.items()}


def tinycore_loop_rates(
    program: list[int],
    dmem_init: list[int] | None,
    loop_nets: Iterable[str],
    *,
    floor: float = 0.02,
    max_cycles: int = 100_000,
) -> dict[str, float]:
    """Solution-2 characterization for tinycore: one golden program run."""
    from repro.designs.tinycore.core import build_tinycore
    from repro.designs.tinycore.harness import run_gate_level

    netlist = build_tinycore(program, dmem_init)
    golden = run_gate_level(program, dmem_init, netlist=netlist)
    sim = Simulator(netlist.module, lanes=1)
    return characterize_loops(
        sim, loop_nets, cycles=golden.cycles, floor=floor
    )


def summarize_rates(rates: Mapping[str, float]) -> dict[str, float]:
    """Aggregate statistics of a characterization (for reports)."""
    values = sorted(rates.values())
    if not values:
        return {"count": 0, "mean": 0.0, "p50": 0.0, "max": 0.0}
    return {
        "count": len(values),
        "mean": sum(values) / len(values),
        "p50": values[len(values) // 2],
        "max": values[-1],
    }
