"""Compiled propagation core: CSR kernels, SolvePlan reuse, relaxation.

The compiled engine must be indistinguishable from the dict-based
reference solver — same annotation sets monolithically, same per-node
AVFs (within 1e-9) under partitioned relaxation, same relaxation trace —
while being reusable across environments.
"""

import pytest

from repro.core.compiled import HAVE_NUMPY, SetEvaluator, SolvePlan, resolve_ids
from repro.core.graphmodel import StructurePorts
from repro.core.pavf import Atom, LOOP, PavfEnv
from repro.core.sart import SartConfig, build_env, build_plan, run_sart
from repro.errors import SartError
from repro.netlist.builder import ModuleBuilder
from repro.netlist.graph import extract_graph
from repro.verify.reference import run_reference


def _pipeline(n_fubs=4, stages_per_fub=3, fan=2):
    """Multi-FUB pipeline with fan-out and a hold loop in the middle."""
    b = ModuleBuilder("pipe")
    tie = b.input("tie_in")
    en = b.input("en_in")
    cur = b.dff(tie, name="src", attrs={"struct": "SRC", "bit": "0", "fub": "FUB0"})
    for f in range(n_fubs):
        fub = f"FUB{f}"
        for s in range(stages_per_fub):
            nxt = b.dff(cur, name=f"f{f}s{s}", attrs={"fub": fub})
            if s == 1 and fan > 1:
                side = b.and_(cur, nxt, attrs={"fub": fub})
                nxt = b.or_(nxt, side, attrs={"fub": fub})
            cur = nxt
        if f == 1:
            # enabled flop: self edge after extraction -> loop boundary
            cur = b.dff(cur, en=en, name=f"hold{f}", attrs={"fub": fub})
    b.dff(cur, name="snk",
          attrs={"struct": "SNK", "bit": "0", "fub": f"FUB{n_fubs - 1}"})
    return b.done()


STRUCTS = {
    "SRC": StructurePorts("SRC", pavf_r=0.3, pavf_w=0.0, avf=0.5),
    "SNK": StructurePorts("SNK", pavf_r=0.0, pavf_w=0.1, avf=0.5),
}


@pytest.fixture(scope="module")
def tinycore_module():
    from repro.designs.tinycore.core import build_tinycore
    from repro.designs.tinycore.programs import default_dmem, program

    words, dmem = program("fib"), default_dmem("fib")
    return build_tinycore(words, dmem).module


@pytest.fixture(scope="module")
def bigcore_half_graph():
    from repro.designs.bigcore import BigcoreConfig, build_bigcore

    design = build_bigcore(BigcoreConfig(scale=0.5, seed=42))
    return extract_graph(design.module)


def _assert_results_match(a, b, tol=1e-9):
    assert a.node_avfs.keys() == b.node_avfs.keys()
    for net, na in a.node_avfs.items():
        nb = b.node_avfs[net]
        assert abs(na.avf - nb.avf) <= tol, net
        assert abs(na.forward - nb.forward) <= tol, net
        assert abs(na.backward - nb.backward) <= tol, net
        assert na.visited == nb.visited, net
        assert na.role == nb.role and na.kind == nb.kind and na.fub == nb.fub


class TestEquivalence:
    def test_monolithic_sets_identical(self, tinycore_module):
        cfg = dict(partition_by_fub=False)
        a = run_reference(tinycore_module, config=SartConfig(**cfg))
        b = run_sart(tinycore_module, config=SartConfig(**cfg))
        # Not just values: the interned annotation sets are the same sets.
        assert a.f_sets == b.f_sets
        assert a.b_sets == b.b_sets
        _assert_results_match(a, b)

    def test_partitioned_avfs_and_trace(self, tinycore_module):
        a = run_reference(tinycore_module)
        b = run_sart(tinycore_module)
        _assert_results_match(a, b)
        assert b.trace is not None
        assert b.trace.iterations == a.trace.iterations
        assert b.trace.converged == a.trace.converged
        assert b.trace.max_delta == pytest.approx(a.trace.max_delta)
        for fub, avgs in a.trace.fub_avg.items():
            assert b.trace.fub_avg[fub] == pytest.approx(avgs)

    def test_partitioned_bigcore_within_1e9(self, bigcore_half_graph):
        a = run_reference(bigcore_half_graph)
        b = run_sart(bigcore_half_graph)
        _assert_results_match(a, b, tol=1e-9)

    def test_walk_agreement_preserved(self):
        # dangling="top" removes the one refinement walks can't express.
        module = _pipeline()
        cfg = dict(partition_by_fub=False, dangling="top")
        w = run_reference(module, STRUCTS, SartConfig(**cfg), engine="walk")
        c = run_sart(module, STRUCTS, SartConfig(**cfg))
        for net, nw in w.node_avfs.items():
            assert c.node_avfs[net].avf == pytest.approx(nw.avf), net


class TestRelaxation:
    def test_partitioned_matches_monolithic_tinycore(self, tinycore_module):
        mono = run_sart(
            tinycore_module,
            config=SartConfig(partition_by_fub=False),
        )
        part = run_sart(tinycore_module, config=SartConfig())
        assert part.trace.converged
        tol = part.config.tol
        for net, nm in mono.node_avfs.items():
            assert abs(part.node_avfs[net].avf - nm.avf) <= tol, net

    def test_partitioned_matches_monolithic_bigcore(self, bigcore_half_graph):
        mono = run_sart(
            bigcore_half_graph,
            config=SartConfig(partition_by_fub=False),
        )
        part = run_sart(bigcore_half_graph, config=SartConfig())
        assert part.trace.converged
        tol = part.config.tol
        for net, nm in mono.node_avfs.items():
            assert abs(part.node_avfs[net].avf - nm.avf) <= tol, net


class TestSolvePlan:
    def test_plan_reuse_matches_fresh_runs(self, tinycore_module):
        plan = build_plan(tinycore_module)
        for loop_pavf in (0.0, 0.3, 1.0):
            cfg = SartConfig(loop_pavf=loop_pavf)
            fresh = run_sart(tinycore_module, config=cfg)
            reused = run_sart(tinycore_module, config=cfg, plan=plan)
            _assert_results_match(fresh, reused, tol=0.0)
            assert reused.stats["plan_reused"] == 1.0
            assert fresh.stats["plan_reused"] == 0.0

    def test_monolithic_reuse_is_cached(self, tinycore_module):
        plan = build_plan(tinycore_module)
        cfg = dict(partition_by_fub=False)
        run_sart(tinycore_module, config=SartConfig(**cfg), plan=plan)
        sets_before = len(plan.interner)
        run_sart(
            tinycore_module, config=SartConfig(loop_pavf=0.7, **cfg), plan=plan
        )
        # The second environment re-evaluated cached vectors: no new sets.
        assert len(plan.interner) == sets_before

    def test_structural_mismatch_rejected(self, tinycore_module):
        plan = build_plan(tinycore_module)
        with pytest.raises(SartError, match="structural"):
            run_sart(
                tinycore_module,
                config=SartConfig(detect_ctrl=False),
                plan=plan,
            )

    def test_environment_knobs_are_free(self, tinycore_module):
        plan = build_plan(tinycore_module)
        cfg = SartConfig(
            loop_pavf=0.9,
            ctrl_pavf=0.5,
            const_pavf=0.2,
            iterations=5,
            max_terms=64,
            dangling="top",
            partition_by_fub=False,
        )
        res = run_sart(tinycore_module, config=cfg, plan=plan)
        assert 0.0 <= res.report.weighted_seq_avf <= 1.0


class TestSetEvaluator:
    def _random_env_and_sets(self):
        import random

        rng = random.Random(7)
        plan = SolvePlan()  # bare interner holder
        interner = plan.interner
        atoms = [Atom(LOOP, f"n{i}") for i in range(40)]
        env = PavfEnv(unbound_default=1.0)
        for a in atoms:
            env.bind(a, rng.random() * 0.1)
        sids = [
            interner.id_of(frozenset(rng.sample(atoms, rng.randint(1, 12))))
            for _ in range(200)
        ]
        return interner, env, sids

    @pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")
    def test_numpy_and_python_paths_bit_identical(self):
        interner, env, sids = self._random_env_and_sets()
        py = SetEvaluator(interner, env, use_numpy=False)
        np_ = SetEvaluator(interner, env, use_numpy=True)
        py.fill(sids)
        np_.fill(sids)
        for sid in sids:
            # Bit-identical, not approx: both sum the same sorted atoms
            # left to right (reduceat applies the ufunc sequentially).
            assert py.value(sid) == np_.value(sid)

    def test_values_cap_at_one(self):
        interner, env, sids = self._random_env_and_sets()
        ev = SetEvaluator(interner, env)
        big = interner.id_of(frozenset(Atom(LOOP, f"m{i}") for i in range(30)))
        assert ev.value(big) == 1.0  # 30 unbound atoms at 1.0 each, capped
        for sid in sids:
            assert 0.0 <= ev.value(sid) <= 1.0


def test_resolve_ids_matches_resolve(tinycore_module):
    from repro.core.resolve import resolve

    plan = build_plan(tinycore_module)
    env = build_env(plan.model, SartConfig())
    f_ids, b_ids = plan.solve_monolithic()
    got = resolve_ids(plan, f_ids, b_ids, env)
    want = resolve(plan.model, plan.sets_dict(f_ids), plan.sets_dict(b_ids), env)
    assert got.keys() == want.keys()
    for net, nw in want.items():
        ng = got[net]
        assert ng.avf == pytest.approx(nw.avf)
        assert ng.forward == pytest.approx(nw.forward)
        assert ng.backward == pytest.approx(nw.backward)
        assert (ng.kind, ng.fub, ng.role, ng.visited) == (
            nw.kind,
            nw.fub,
            nw.role,
            nw.visited,
        )
