"""Batched multi-workload evaluation: one matrix pass, W workloads.

The batched path must be indistinguishable from running the per-point
compiled flow once per environment — same per-node AVFs, same Figure-9
reports — with and without numpy. These tests pin that equivalence on a
design that exercises every resolution mode: measured structures
(Table 1 row 2), injected control/loop atoms (row 3), and plain MIN
(row 1).
"""

import pytest

from repro.core.batched import (
    HAVE_NUMPY,
    BatchedEvaluator,
    solve_batched,
    sweep_batched,
)
from repro.core.compiled import SetEvaluator
from repro.core.graphmodel import StructurePorts
from repro.core.report import fub_report
from repro.core.resolve import ROLE_CTRL, ROLE_LOOP
from repro.core.sart import SartConfig, build_env, build_plan, run_sart
from repro.designs.bigcore.systolic import SystolicConfig, build_systolic

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy unavailable")

# Two measured structures, two left to conservative defaults: both
# branches of the structure override run in every batched pass.
STRUCTS = {
    "WBUF_T0_0": StructurePorts("WBUF_T0_0", pavf_r=0.3, pavf_w=0.1, avf=0.45),
    "WBUF_T1_1": StructurePorts("WBUF_T1_1", pavf_r=0.6, pavf_w=0.0, avf=0.2),
}

SWEEP = [0.0, 0.25, 0.5, 1.0]


@pytest.fixture(scope="module")
def module():
    cfg = SystolicConfig(rows=4, cols=4, data_width=2, acc_width=4, tile=2)
    return build_systolic(cfg).module


@pytest.fixture(scope="module")
def plan(module):
    return build_plan(module, STRUCTS)


def _per_point_reports(plan):
    reports = []
    loop_bits = plan.role_l.count(ROLE_LOOP)
    ctrl_bits = plan.role_l.count(ROLE_CTRL)
    for value in SWEEP:
        cfg = SartConfig(
            loop_pavf=value
        )
        result = run_sart(plan=plan, config=cfg)
        reports.append(
            fub_report(
                result.node_avfs, loop_bits=loop_bits, ctrl_bits=ctrl_bits
            )
        )
    return reports


class TestSweepEquivalence:
    def test_reports_match_per_point_flow(self, plan):
        batched = sweep_batched(
            plan, SWEEP, SartConfig()
        )
        expected = _per_point_reports(plan)
        assert batched.width == len(SWEEP)
        for w in range(batched.width):
            got, want = batched.report(w), expected[w]
            assert got.fubs == want.fubs, SWEEP[w]
            assert got.weighted_seq_avf == want.weighted_seq_avf, SWEEP[w]

    def test_node_avfs_hook_matches_run_sart(self, plan):
        batched = sweep_batched(
            plan, SWEEP, SartConfig()
        )
        for w, value in enumerate(SWEEP):
            cfg = SartConfig(
                loop_pavf=value
            )
            result = run_sart(plan=plan, config=cfg)
            assert batched.node_avfs(w) == result.node_avfs, value

    @needs_numpy
    def test_fallback_path_identical_to_numpy_path(self, plan):
        cfg = SartConfig()
        fast = sweep_batched(plan, SWEEP, cfg, use_numpy=True)
        slow = sweep_batched(plan, SWEEP, cfg, use_numpy=False)
        for w in range(len(SWEEP)):
            assert fast.report(w).fubs == slow.report(w).fubs
            assert (
                fast.report(w).weighted_seq_avf
                == slow.report(w).weighted_seq_avf
            )

    def test_empty_environment_list(self, plan):
        result = solve_batched(plan, [])
        assert result.width == 0
        assert result.reports == []


class TestBatchedEvaluator:
    @pytest.fixture(scope="class")
    def envs(self, plan):
        return [
            build_env(plan, SartConfig(loop_pavf=value))
            for value in SWEEP
        ]

    @needs_numpy
    def test_matrix_columns_bitwise_match_scalar_evaluator(self, plan, envs):
        # Warm the interner with the solve's sets, then compare every id.
        f_ids, b_ids = plan.solve_monolithic("unace")
        sids = sorted({int(s) for s in list(f_ids) + list(b_ids) if s >= 0})
        bev = BatchedEvaluator(plan.interner, envs)
        grid = bev.matrix(sids)
        for w, env in enumerate(envs):
            scalar = SetEvaluator(plan.interner, env)
            for i, sid in enumerate(sids):
                assert grid[i, w] == scalar.value(sid), (sid, w)

    @needs_numpy
    def test_unvisited_ids_evaluate_to_one(self, plan, envs):
        bev = BatchedEvaluator(plan.interner, envs)
        assert (bev.matrix([-1, -5]) == 1.0).all()

    def test_sorted_atoms_follow_the_atom_order(self, plan):
        # Rows are integer sorts against the plan's atom ranking; this
        # pins them to the (kind, name, bit) order atoms compare by, on
        # every set of a solved plan.
        plan.solve_monolithic("unace")
        interner = plan.interner
        for sid in range(len(interner)):
            atoms = interner.sorted_atoms(sid)
            assert atoms == tuple(sorted(set(atoms)))

    @needs_numpy
    def test_matrix_keeps_values_as_the_interner_grows(self, plan, envs):
        import pickle

        import numpy as np

        from repro.core.pavf import LOOP, Atom

        copy = pickle.loads(pickle.dumps(plan))
        interner = copy.interner
        f_ids, b_ids = copy.solve_monolithic("unace")
        bev = BatchedEvaluator(interner, envs)
        before = bev.matrix(f_ids)
        # New sets with atoms the table has not seen, after the fill.
        grown = [
            interner.id_of({*interner.sorted_atoms(sid), Atom(LOOP, f"extra{i}")})
            for i, sid in enumerate(sorted({s for s in b_ids if s >= 0})[:50])
        ]
        after = bev.matrix(list(f_ids) + grown)
        assert np.array_equal(after[: len(f_ids)], before)
        for w, env in enumerate(envs):
            scalar = SetEvaluator(interner, env, use_numpy=False)
            for i, sid in enumerate(grown):
                assert after[len(f_ids) + i, w] == scalar.value(sid), (sid, w)
