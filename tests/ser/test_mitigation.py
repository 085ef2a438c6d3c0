"""Mitigation-selection tests (the paper's motivating application)."""

import pytest

from repro.core.graphmodel import StructurePorts
from repro.core.sart import run_sart
from repro.errors import ReproError
from repro.netlist.builder import ModuleBuilder
from repro.ser.mitigation import (
    BISER,
    SEUT,
    HardeningOption,
    candidate_flops,
    compare_selections,
    select_cells,
)


@pytest.fixture(scope="module")
def result():
    """A design with a wide AVF spread: hot path at 0.8, cold at 0.05."""
    b = ModuleBuilder("mix")
    tie = b.input("tie_in")
    hot_src = b.dff(tie, name="hs", attrs={"struct": "H", "bit": "0"})
    cold_src = b.dff(tie, name="cs", attrs={"struct": "C", "bit": "0"})
    cur = hot_src
    for i in range(5):
        cur = b.dff(cur, name=f"hot{i}")
    b.dff(cur, name="hk", attrs={"struct": "HK", "bit": "0"})
    cur = cold_src
    for i in range(15):
        cur = b.dff(cur, name=f"cold{i}")
    b.dff(cur, name="ck", attrs={"struct": "CK", "bit": "0"})
    structs = {
        "H": StructurePorts("H", pavf_r=0.8, pavf_w=0.0, avf=0.8),
        "C": StructurePorts("C", pavf_r=0.05, pavf_w=0.0, avf=0.05),
        "HK": StructurePorts("HK", pavf_r=0.0, pavf_w=1.0, avf=0.8),
        "CK": StructurePorts("CK", pavf_r=0.0, pavf_w=1.0, avf=0.05),
    }
    return run_sart(b.done(), structs)


def test_candidates_exclude_structures(result):
    flops = candidate_flops(result)
    assert len(flops) == 20  # 5 hot + 15 cold; struct bits excluded
    assert all(n.role != "struct" for n in flops)


def test_greedy_picks_hot_path_first(result):
    plan = select_cells(result, target_reduction=0.5, option=SEUT)
    assert plan.met_target
    # The greedy order exhausts hot flops before touching any cold one,
    # and stops as soon as the target falls (4 hot cells suffice here).
    assert all(n.avf > 0.5 for n in plan.selected)
    assert len(plan.selected) <= 5
    assert plan.reduction >= 0.5
    assert plan.total_cost == pytest.approx(len(plan.selected) * SEUT.area_cost)


def test_stronger_option_needs_fewer_cells(result):
    weak = select_cells(result, target_reduction=0.6,
                        option=HardeningOption("weak", residual=0.3))
    strong = select_cells(result, target_reduction=0.6, option=BISER)
    assert len(strong.selected) <= len(weak.selected)


def test_infeasible_target_raises(result):
    with pytest.raises(ReproError, match="unreachable"):
        select_cells(result, target_reduction=0.99,
                     option=HardeningOption("weak", residual=0.6))


def test_target_validation(result):
    with pytest.raises(ReproError):
        select_cells(result, target_reduction=0.0)
    with pytest.raises(ReproError):
        select_cells(result, target_reduction=1.0)


def test_option_validation():
    with pytest.raises(ReproError):
        HardeningOption("bad", residual=1.0)
    with pytest.raises(ReproError):
        HardeningOption("bad", residual=0.1, area_cost=0)


def test_sart_beats_flat_proxy(result):
    # The whole point: per-node AVFs concentrate hardening on the few
    # flops that matter; a flat proxy must harden proportionally many.
    plan, proxy_cells = compare_selections(
        result, flat_avf=0.8, target_reduction=0.5, option=SEUT
    )
    assert len(plan.selected) < proxy_cells
