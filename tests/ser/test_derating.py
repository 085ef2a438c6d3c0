"""Unit and determinism tests for logic derating (`ser/derating.py`).

Three layers: the per-pin gate sensitization closed forms, the analytic
observability pass on hand-built modules with known answers, and the MC
estimator's determinism contract — trials planned up front from the
seed, so outcomes are bit-identical at any ``--workers`` count and any
lane width.
"""

from __future__ import annotations

import pytest

from repro.designs.tinycore.programs import default_dmem, program
from repro.errors import ReproError
from repro.netlist.builder import ModuleBuilder
from repro.netlist.cells import input_sensitivities
from repro.ser.derating import (
    DeratingResult,
    MaskingConfig,
    analytic_derating,
    measure_masking_mc,
    plan_mask_trials,
)

# ----------------------------------------------------------------------
# gate sensitization
# ----------------------------------------------------------------------

def test_sensitivities_basic_cells():
    assert input_sensitivities("NOT", 1) == (1.0,)
    assert input_sensitivities("BUF", 1) == (1.0,)
    assert input_sensitivities("AND", 2) == (0.5, 0.5)
    assert input_sensitivities("NOR", 2) == (0.5, 0.5)
    assert input_sensitivities("XOR", 2) == (1.0, 1.0)
    assert input_sensitivities("XNOR", 3) == (1.0, 1.0, 1.0)
    # AND-family sensitization halves with every extra input.
    assert input_sensitivities("AND", 4) == (0.125,) * 4
    # MUX2: each data pin is seen when selected (p=1/2); the select pin
    # matters when the data pins differ (p=1/2).
    assert input_sensitivities("MUX2", 3) == (0.5, 0.5, 0.5)


def test_sensitivities_closed_forms_match_enumeration():
    # Arity 12 is the last enumerated width, 13 the first closed form;
    # both must sit on the same 2^(1-k) / 1.0 curves.
    assert input_sensitivities("OR", 12) == (2.0 ** -11,) * 12
    assert input_sensitivities("OR", 13) == (2.0 ** -12,) * 13
    assert input_sensitivities("XOR", 13) == (1.0,) * 13


def test_sensitivities_reject_sequential_cells():
    with pytest.raises(ValueError, match="DFF"):
        input_sensitivities("DFF", 2)


# ----------------------------------------------------------------------
# analytic observability on hand-built modules
# ----------------------------------------------------------------------

def _single_flop(shape: str):
    """One flop whose Q reaches (or misses) a capture point via *shape*."""
    b = ModuleBuilder("t")
    a = b.input("a")
    q = b.dff(a, name="ff")
    if shape == "buf-to-output":
        b.output("y")
        b.gate("BUF", [q], out="y")
    elif shape == "and-to-output":
        b.output("y")
        b.gate("AND", [q, b.input("b")], out="y")
    elif shape == "to-dff":
        b.dff(q, name="ff2")
    elif shape == "to-enabled-dff":
        b.dff(q, en=b.input("en"), name="ff2")
    elif shape == "dangling":
        pass
    else:  # pragma: no cover - guard against typo'd parametrization
        raise AssertionError(shape)
    return b.done(), q


@pytest.mark.parametrize("shape, expected", [
    ("buf-to-output", 1.0),      # fully observable
    ("and-to-output", 0.5),      # one 2-input AND masks half the time
    ("to-dff", 1.0),             # plain DFF d-pin always captures
    ("dangling", 0.0),           # no sink: strike can never matter
])
def test_analytic_derating_known_topologies(shape, expected):
    module, q = _single_flop(shape)
    result = analytic_derating(module)
    assert result.factor(q) == pytest.approx(expected)


def test_analytic_derating_enabled_dff_capture():
    # d (1/2, enable high) + hold path (1/2, enable low) at the sink
    # flop; the struck flop's Q only feeds d, so it derates to 1/2.
    module, q = _single_flop("to-enabled-dff")
    assert analytic_derating(module).factor(q) == pytest.approx(0.5)


def test_analytic_derating_noisy_or_over_sinks():
    # Q fans out to two independent half-observable paths:
    # 1 - (1 - 1/2)(1 - 1/2) = 3/4.
    b = ModuleBuilder("fan")
    q = b.dff(b.input("a"), name="ff")
    b.output("y0")
    b.gate("AND", [q, b.input("b")], out="y0")
    b.output("y1")
    b.gate("OR", [q, b.input("c")], out="y1")
    assert analytic_derating(b.done()).factor(q) == pytest.approx(0.75)


def test_derating_result_helpers():
    result = DeratingResult(flop_derating={"a": 0.25, "b": 0.75})
    assert result.factor("a") == 0.25
    assert result.factor("missing") == 1.0   # conservative default
    assert result.mean() == pytest.approx(0.5)
    summary = result.to_summary()
    assert summary["flops"] == 2
    assert summary["min"] == 0.25 and summary["max"] == 0.75
    empty = DeratingResult(flop_derating={})
    assert empty.mean() == 0.0
    assert empty.to_summary()["flops"] == 0


# ----------------------------------------------------------------------
# MC estimator determinism
# ----------------------------------------------------------------------

def test_plan_mask_trials_deterministic_and_in_range():
    config = MaskingConfig(trials=64, seed=9)
    nets = [f"ff{i}.q" for i in range(5)]
    plan = plan_mask_trials(config, nets, cycles=40)
    again = plan_mask_trials(config, nets, cycles=40)
    assert plan == again
    assert [t.index for t in plan] == list(range(64))
    assert all(t.net in nets and 0 <= t.cycle < 39 for t in plan)
    shifted = plan_mask_trials(MaskingConfig(trials=64, seed=10), nets, 40)
    assert shifted != plan


def test_measure_masking_rejects_zero_trials():
    with pytest.raises(ReproError, match="at least one trial"):
        measure_masking_mc(program("fib"), default_dmem("fib"),
                           MaskingConfig(trials=0))


def test_masking_mc_worker_count_is_bit_identical():
    # Trials are planned up front and folded in submission order, so the
    # outcome vector must not depend on how passes were scheduled.
    config = MaskingConfig(trials=48, seed=5, lanes_per_pass=16)
    prog, dmem = program("fib"), default_dmem("fib")
    serial = measure_masking_mc(prog, dmem, config, workers=1)
    parallel = measure_masking_mc(prog, dmem, config, workers=2)
    assert serial.trials == parallel.trials == 48
    assert serial.outcomes == parallel.outcomes
    assert serial.rate() == parallel.rate()


def test_masking_outcomes_survive_lane_width_changes():
    # lanes_per_pass reshapes the pass grouping, not the trial plan;
    # every grouping must land on one vector.
    from repro.designs.tinycore.core import build_tinycore

    prog, dmem = program("fib"), default_dmem("fib")
    netlist = build_tinycore(prog, dmem)
    narrow, wide = (
        measure_masking_mc(prog, dmem, MaskingConfig(trials=32, seed=17,
                                                     lanes_per_pass=lanes),
                           netlist=netlist)
        for lanes in (7, 31)
    )
    assert narrow.trials == wide.trials == 32
    assert narrow.outcomes == wide.outcomes


def test_masking_mc_agrees_with_analytic_mean():
    # The MC propagation rate is the population mean the analytic pass
    # predicts; with modest trials we only pin a loose band (the fib
    # anchors are analytic 0.638 vs MC 0.656 at 64 trials).
    from repro.designs.tinycore.core import build_tinycore

    prog, dmem = program("fib"), default_dmem("fib")
    netlist = build_tinycore(prog, dmem)
    analytic = analytic_derating(netlist.module).mean()
    mc = measure_masking_mc(prog, dmem,
                            MaskingConfig(trials=64, seed=11),
                            netlist=netlist)
    assert mc.trials == 64
    assert abs(mc.rate() - analytic) < 0.2
    summary = mc.to_summary()
    assert summary["propagated"] == mc.propagated
    assert 0.0 <= summary["rate"] <= 1.0
