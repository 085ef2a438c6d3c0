"""Resident artifacts: one object shared by every run of a store.

A store hands every warm run the artifact object it already holds, so a
plan solves many configs in turn and the other artifacts are read by
many runs. Sharing is safe only if a plan's solves do not depend on what
it solved before, and no stage changes the artifacts it reads.
"""

import pickle
import random
from dataclasses import replace

import pytest

from repro.core.sart import SartConfig, run_sart
from repro.pipeline import (
    ArtifactStore,
    BeamSpec,
    CampaignSpec,
    DeratingSpec,
    RunSpec,
    SartSpec,
    SfiSpec,
    WorkloadsSpec,
    execute,
)
from repro.pipeline.delta import diff_plans, warm_start_from_result
from repro.verify.reference import run_relaxation


@pytest.fixture(scope="module")
def fib_plan_blob():
    plan = execute(RunSpec(design="tinycore:fib", sart=SartSpec())).plan.plan
    return pickle.dumps(plan, protocol=pickle.HIGHEST_PROTOCOL)


def _observed(result):
    """What a solve shows: AVFs, trace, report, sets and equations."""
    trace = result.trace
    closed = result.closed_form()
    return {
        "node_avfs": result.node_avfs,
        "trace": None if trace is None else (
            trace.iterations, trace.max_delta, trace.fub_avg),
        "table": result.report.table(),
        "f_sets": dict(result.f_sets.items()),
        "b_sets": dict(result.b_sets.items()),
        "equations": [closed.equation_for(net) for net in result.node_avfs],
    }


def test_a_shared_plan_solves_like_a_fresh_one(fib_plan_blob):
    shared = pickle.loads(fib_plan_blob)
    rng = random.Random(28)
    for _ in range(30):
        config = SartConfig(loop_pavf=round(rng.random(), 6))
        # A cold relaxation on the shared plan in between, or not: it
        # fills the union memo a monolithic solve empties.
        iterations = rng.choice((None, 1, 2, 3, 20))

        def solve(plan):
            if iterations is None:
                return run_sart(plan=plan, config=config)
            return run_relaxation(plan, config, iterations=iterations)

        fresh = pickle.loads(fib_plan_blob)
        assert _observed(solve(shared)) == _observed(solve(fresh)), \
            (config, iterations)


def test_a_monolithic_solve_drops_its_union_memo():
    workloads = WorkloadsSpec(per_class=1, length=400)
    base = execute(RunSpec(design="bigcore@scale=0.1", workloads=workloads))
    edit = execute(RunSpec(design="bigcore@scale=0.1,edit=LSU",
                           workloads=workloads))
    blob = pickle.dumps(edit.plan.plan)
    solved = pickle.loads(blob)
    run_sart(plan=solved)
    assert solved._mono_cache and solved._union_memo == {}

    def eco(plan):
        touched = diff_plans(base.plan.plan, plan).touched
        return run_sart(plan=plan, warm_start=warm_start_from_result(
            plan, touched, base.sart.result))

    # The warm relaxation rebuilds the memo it needs and lands where it
    # lands on a plan that never solved.
    warm, fresh = eco(solved), eco(pickle.loads(blob))
    assert warm.trace.warm and warm.trace.converged
    assert warm.node_avfs == fresh.node_avfs
    assert dict(warm.f_sets) == dict(fresh.f_sets)
    assert dict(warm.b_sets) == dict(fresh.b_sets)
    # The artifact store's pickle of a solved plan carries neither cache.
    assert solved._union_memo
    state = solved.__getstate__()
    assert state["_union_memo"] == {} and state["_mono_cache"] == {}


@pytest.mark.parametrize("spec, stages", [
    (RunSpec(design="tinycore:fib", sart=SartSpec(loop_pavf=0.2),
             derating=DeratingSpec(mc_trials=4),
             sfi=SfiSpec(injections=12, seed=1),
             beam=BeamSpec(flux=5e-5, exposures=8, seed=2),
             campaign=CampaignSpec(lanes_per_pass=8)),
     {"golden", "ports", "sfi", "beam", "derating"}),
    (RunSpec(design="bigcore@scale=0.1", sart=SartSpec(loop_pavf=0.2),
             workloads=WorkloadsSpec(per_class=1, length=400)),
     {"ace"}),
], ids=["tinycore", "bigcore"])
def test_no_stage_changes_a_resident_artifact(tmp_path, spec, stages):
    store = ArtifactStore(tmp_path / "cache")
    execute(spec, store=store)
    held = {key: store.load(*key) for key in store.entries()
            if key[0] != "plan"}   # a plan grows as it solves, by design
    assert {stage for stage, _ in held} == stages
    before = {key: pickle.dumps(obj) for key, obj in held.items()}
    # The same spec again, then a new loop_pavf (derating then misses).
    for sart in (spec.sart, SartSpec(loop_pavf=0.9)):
        execute(replace(spec, sart=sart), store=store)
    for key, obj in held.items():
        assert store.load(*key) is obj
        assert pickle.dumps(obj) == before[key], key
