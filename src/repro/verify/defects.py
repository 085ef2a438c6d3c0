"""Deliberately broken engine variants for mutation-kill testing.

An oracle that never fires is indistinguishable from an oracle that
stopped looking. Each entry here is a *seeded defect*: a corruption of
exactly one seam the matching oracle reads through — a perturbed
dataflow engine, an out-of-range resolver, a bit-flipping wide
simulator, an optimistic analytic model, a tampered golden. The
mutation-kill suite (``tests/verify/test_mutation_kill.py``) and
``repro-sart verify --inject-defect <name>`` both prove the oracle
catches its defect, so the harness's sensitivity is itself under test.

Defects are intentionally *small* (one node nudged, one bit flipped):
an oracle that only catches gross corruption would pass a mutation-kill
test with a sledgehammer defect but miss real regressions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.core.resolve import NodeAvf, ROLE_CTRL, ROLE_STRUCT
from repro.core.sart import SartResult

if TYPE_CHECKING:
    from repro.pipeline.runner import RunOutcome


@dataclass(frozen=True)
class Defect:
    """One seeded defect and the oracle that must catch it."""

    name: str
    oracle: str                 # oracle name expected to fire
    description: str
    # Seam hooks; each defect sets exactly the one its oracle reads.
    mutate_sart: Callable[[str, SartResult], SartResult] | None = None
    make_sim: Callable | None = None
    analytic: Callable[[RunOutcome], float] | None = None
    corrupt_corpus: Callable[[dict], dict] | None = None
    corrupt_deadlines: Callable[[dict], dict] | None = None
    derated: Callable[[RunOutcome], float] | None = None


def _replace_node(result: SartResult, net: str, **changes) -> SartResult:
    node_avfs = dict(result.node_avfs)
    node_avfs[net] = node_avfs[net]._replace(**changes)
    out = SartResult(**{**result.__dict__, "node_avfs": node_avfs})
    return out


def _pick(result: SartResult, predicate) -> str | None:
    """Deterministically pick one node satisfying *predicate*."""
    for net in sorted(result.node_avfs):
        if predicate(result.node_avfs[net]):
            return net
    return None


# ----------------------------------------------------------------------
# the individual defects
# ----------------------------------------------------------------------

def _cross_engine_mutation(engine: str, result: SartResult) -> SartResult:
    if engine != "dataflow":
        return result
    net = _pick(result, lambda n: n.role not in (ROLE_STRUCT,))
    if net is None:
        return result
    node = result.node_avfs[net]
    nudged = min(1.0, node.avf + 1e-6) if node.avf < 0.5 else max(0.0, node.avf - 1e-6)
    return _replace_node(result, net, avf=nudged)


def _relaxation_fixpoint_mutation(engine: str, result: SartResult) -> SartResult:
    # The fault a merge by value makes: a boundary whose true set sums
    # to 1.0 stays TOP, so a node behind it reads as unvisited.
    if engine != "relaxed":
        return result
    net = _pick(result, lambda n: n.visited)
    if net is None:
        return result
    return _replace_node(result, net, visited=False)


def _range_mutation(engine: str, result: SartResult) -> SartResult:
    if engine != "compiled":
        return result
    net = _pick(result, lambda n: True)
    return _replace_node(result, net, avf=1.0000001)


def _min_resolution_mutation(engine: str, result: SartResult) -> SartResult:
    if engine != "compiled":
        return result
    net = _pick(
        result,
        lambda n: n.role not in (ROLE_STRUCT, ROLE_CTRL, "loop")
        and min(n.forward, n.backward) <= 0.9,
    )
    if net is None:
        return result
    node = result.node_avfs[net]
    bound = min(node.forward, node.backward)
    return _replace_node(result, net, avf=min(1.0, bound + 0.05))


def _ctrl_mutation(engine: str, result: SartResult) -> SartResult:
    if engine != "compiled":
        return result
    net = _pick(result, lambda n: n.role == ROLE_CTRL)
    if net is None:
        return result
    return _replace_node(result, net, avf=0.5)


def _loop_monotonicity_mutation(engine: str, result: SartResult) -> SartResult:
    # Scale non-structure AVFs by a factor *decreasing* in the injected
    # loop pAVF: the Figure 8 sweep then slopes the wrong way.
    factor = 1.0 - 0.4 * result.config.loop_pavf
    node_avfs = {}
    changed = False
    for net, node in result.node_avfs.items():
        if node.role == ROLE_STRUCT:
            node_avfs[net] = node
            continue
        node_avfs[net] = node._replace(avf=node.avf * factor)
        changed = changed or node.avf > 0.0
    if not changed:
        return result
    return SartResult(**{**result.__dict__, "node_avfs": node_avfs})


class _BitrotSimulator:
    """Delegating simulator wrapper that flips one lane bit mid-run."""

    def __init__(self, inner, trip_cycle: int = 2):
        self._inner = inner
        self._steps = 0
        self._trip = trip_cycle

    def __getattr__(self, attr):
        return getattr(self._inner, attr)

    def step(self) -> None:
        self._inner.step()
        self._steps += 1
        if self._steps == self._trip and self._inner.lanes >= 2:
            victim = None
            for inst in self._inner.module.instances.values():
                if inst.kind == "DFF":
                    victim = inst.conn["q"]
                    break
            if victim is not None:
                self._inner.flip(victim, 1 << 1)


def _bitrot_make_sim(module, lanes=1):
    from repro.rtlsim.simulator import Simulator

    return _BitrotSimulator(Simulator(module, lanes=lanes))


def _optimistic_analytic(run: RunOutcome) -> float:
    return 0.001  # far below any real tinycore SFI interval


def _inflate_deadline_bin(summaries: dict) -> dict:
    """Nudge one histogram bin weight up by one bit-cycle.

    The smallest corruption a buggy accumulator could produce — one
    segment double-counted — which breaks mass conservation against the
    structure's ACE bit-cycle total without touching the quantiles.
    """
    corrupted = {name: dict(s) for name, s in summaries.items()}
    for name in sorted(corrupted):
        if corrupted[name].get("events"):
            corrupted[name]["mass_cycles"] = (
                float(corrupted[name].get("mass_cycles", 0.0)) + 1.0)
            break
    return corrupted


def _underderated_rate(run: RunOutcome) -> float:
    return 1e-9  # masking model derates everything away: far below any beam


def _corrupt_corpus_entry(entry: dict) -> dict:
    corrupted = dict(entry)
    expected = dict(corrupted.get("expected", {}))
    expected["weighted_seq_avf"] = (
        float(expected.get("weighted_seq_avf", 0.0)) + 0.1)
    corrupted["expected"] = expected
    return corrupted


DEFECTS: dict[str, Defect] = {
    d.name: d
    for d in (
        Defect(
            name="cross-engine",
            oracle="cross-engine",
            description="dataflow engine nudges one node AVF by 1e-6",
            mutate_sart=_cross_engine_mutation,
        ),
        Defect(
            name="relaxation-fixpoint",
            oracle="relaxation-fixpoint",
            description="relaxed result leaves one visited node unvisited",
            mutate_sart=_relaxation_fixpoint_mutation,
        ),
        Defect(
            name="range",
            oracle="range",
            description="compiled resolver emits an AVF of 1.0000001",
            mutate_sart=_range_mutation,
        ),
        Defect(
            name="min-resolution",
            oracle="min-resolution",
            description="resolver returns min(f, b) + 0.05 for one node",
            mutate_sart=_min_resolution_mutation,
        ),
        Defect(
            name="ctrl-pinned",
            oracle="ctrl-pinned",
            description="one control register resolves to 0.5, not 1.0",
            mutate_sart=_ctrl_mutation,
        ),
        Defect(
            name="loop-monotonicity",
            oracle="loop-monotonicity",
            description="AVFs scaled by a factor decreasing in loop pAVF",
            mutate_sart=_loop_monotonicity_mutation,
        ),
        Defect(
            name="lane-isolation",
            oracle="lane-isolation",
            description="wide simulator flips one lane bit after 2 cycles",
            make_sim=_bitrot_make_sim,
        ),
        Defect(
            name="sfi-consistency",
            oracle="sfi-consistency",
            description="analytic model reports a near-zero sequential AVF",
            analytic=_optimistic_analytic,
        ),
        Defect(
            name="golden-corpus",
            oracle="golden-corpus",
            description="stored golden weighted_seq_avf shifted by +0.1",
            corrupt_corpus=_corrupt_corpus_entry,
        ),
        Defect(
            name="deadline-sanity",
            oracle="deadline-sanity",
            description="one deadline histogram bin gains a bit-cycle "
                        "of mass (conservation broken)",
            corrupt_deadlines=_inflate_deadline_bin,
        ),
        Defect(
            name="derated-ser",
            oracle="derated-ser",
            description="derated SER model reports a near-zero rate",
            derated=_underderated_rate,
        ),
    )
}


def get_defect(name: str) -> Defect:
    try:
        return DEFECTS[name]
    except KeyError:
        raise ValueError(
            f"unknown defect {name!r}; available: {sorted(DEFECTS)}"
        ) from None
