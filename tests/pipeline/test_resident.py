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
        config = SartConfig(
            loop_pavf=round(rng.random(), 6),
            iterations=rng.choice((1, 2, 3, 20)),
            partition_by_fub=rng.random() < 0.7,
        )
        fresh = pickle.loads(fib_plan_blob)
        assert (_observed(run_sart(plan=shared, config=config))
                == _observed(run_sart(plan=fresh, config=config))), config


def test_the_cold_sweep_cache_stays_out_of_the_pickle(fib_plan_blob):
    plan = pickle.loads(fib_plan_blob)
    run_sart(plan=plan, config=SartConfig())
    assert plan._sweep_cache
    state = plan.__getstate__()
    assert "_sweep_cache" not in state
    assert state["_union_memo"] == {} and state["_mono_cache"] == {}
    assert pickle.loads(pickle.dumps(plan))._sweep_cache == {}


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
