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
            # Bit-identical, not approx: both sum the same row of atoms
            # through the same pairwise tree.
            assert py.value(sid) == np_.value(sid)

    def test_values_cap_at_one(self):
        interner, env, sids = self._random_env_and_sets()
        ev = SetEvaluator(interner, env)
        big = interner.id_of(frozenset(Atom(LOOP, f"m{i}") for i in range(30)))
        assert ev.value(big) == 1.0  # 30 unbound atoms at 1.0 each, capped
        for sid in sids:
            assert 0.0 <= ev.value(sid) <= 1.0

    SIZES = (0, 1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 33)

    @pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")
    @pytest.mark.parametrize("width", [1, 4])
    def test_kernel_matches_python_value_at_every_padded_width(self, width):
        import random

        import numpy as np

        from repro.core.compiled import AtomTable
        from repro.core.pavf import BOUNDARY, CTRL, READ, TOP, SetInterner

        rng = random.Random(width)
        interner = SolvePlan().interner
        pool = [Atom(kind, f"n{i % 7}", i) for i, kind in enumerate(
            (READ, LOOP, CTRL, BOUNDARY) * 20)]
        envs = [PavfEnv(kind_defaults={LOOP: 0.01 * w, BOUNDARY: 0.02})
                for w in range(width)]
        for env in envs:
            for atom in pool[::2]:  # odd atoms read their kind default
                env.bind(atom, rng.random() * 0.05)
        early = [interner.id_of(frozenset(rng.sample(pool[:40], k)))
                 for k in self.SIZES]
        table = AtomTable(interner, envs)
        first = table.values(np.asarray(early + [SetInterner.TOP_ID]))
        early_rows = [interner.sorted_atoms(sid) for sid in early]
        # Intern more sets over the whole pool: the atom table grows and
        # must not reorder the rows built above.
        late = [interner.id_of(frozenset(rng.sample(pool, k)))
                for k in self.SIZES]
        sids = early + late + [SetInterner.TOP_ID]
        got = table.values(np.asarray(sids))
        assert [interner.sorted_atoms(sid) for sid in early] == early_rows
        assert interner.sorted_atoms(SetInterner.TOP_ID) == (TOP,)
        for w, env in enumerate(envs):
            ref = SetEvaluator(interner, env, use_numpy=False)
            for i, sid in enumerate(sids):
                assert got[i, w] == ref.value(sid), (sid, w)
            for i, sid in enumerate(early + [SetInterner.TOP_ID]):
                assert first[i, w] == ref.value(sid), (sid, w)
        if width == 1:
            fast = SetEvaluator(interner, envs[0], use_numpy=True)
            fast.fill(sids)
            assert [fast.value(sid) for sid in sids] == got[:, 0].tolist()

    def test_interner_pickled_with_old_sorted_cache_evaluates_identically(self):
        import pickle

        interner, env, sids = self._random_env_and_sets()
        restored = pickle.loads(_pickle_with_sorted_cache(interner))
        again = pickle.loads(pickle.dumps(restored))
        for copy in (restored, again):
            assert copy.sets == interner.sets
            for use_numpy in (False, HAVE_NUMPY):
                want = SetEvaluator(interner, env, use_numpy=use_numpy)
                got = SetEvaluator(copy, env, use_numpy=use_numpy)
                got.fill(sids)
                assert [got.value(s) for s in sids] == [want.value(s) for s in sids]

    def test_plan_pickle_round_trip_evaluates_identically(self, tinycore_module):
        import pickle

        plan = build_plan(tinycore_module)
        env = build_env(plan.model, SartConfig())
        f_ids, b_ids = plan.solve_monolithic()
        sids = sorted({s for s in f_ids + b_ids if s >= 0})
        want = SetEvaluator(plan.interner, env)
        want.fill(sids)
        for blob in (pickle.dumps(plan), _pickle_with_sorted_cache(plan)):
            copy = pickle.loads(blob)
            got = SetEvaluator(copy.interner, env)
            got.fill(sids)
            assert [got.value(s) for s in sids] == [want.value(s) for s in sids]


def test_union_ids_and_rows_on_ranked_bare_and_late_interners(tinycore_module):
    """``union_ids`` is ``union`` then ``collapse_if_large``, interned, and
    TOP absorbs; every row, written when its set was interned, is the set
    in atom order, whether ids follow a ranking or first sight."""
    import pickle
    import random

    from repro.core.pavf import BOUNDARY, SetInterner, collapse_if_large, union

    solved = build_plan(tinycore_module)
    solved.solve_monolithic()
    ranked = solved.interner
    # Never ranked: atom ids in first-seen order, here a shuffled one.
    bare = SolvePlan().interner
    order = list(ranked.sets)
    random.Random(3).shuffle(order)
    for atoms in order:
        bare.id_of(atoms)
    # Ranked, then handed an atom the ranking lacks: it takes the next id
    # but sorts before every ranked atom, so its rows sort by atom.
    late = build_plan(tinycore_module).interner
    stranger = Atom(BOUNDARY, "")
    for atoms in ranked.sets[2:40]:
        late.id_of(atoms | {stranger})
    assert late.atoms[-1] == stranger
    restored = pickle.loads(pickle.dumps(late))  # re-ranks, rewrites rows

    rng = random.Random(11)
    top = SetInterner.TOP_ID
    for label, interner in (("ranked", ranked), ("bare", bare), ("late", late),
                            ("restored", restored)):
        sets = interner.sets
        for _ in range(300):
            key = tuple(rng.randrange(len(sets)) for _ in range(rng.randint(1, 5)))
            for max_terms in (0, 3):
                want = collapse_if_large(union(*(sets[s] for s in key)), max_terms)
                assert interner.union_ids(key, max_terms) == interner.id_of(want), (
                    label, key, max_terms)
                assert interner.union_ids(key + (top,), max_terms) == top
        assert len(interner.row_start) == len(interner.row_len) == len(sets)
        for sid, atoms in enumerate(sets):
            lo = interner.row_start[sid]
            row = interner.row_ids[lo:lo + interner.row_len[sid]].tolist()
            assert row == [interner.atom_id(a) for a in sorted(atoms)], (label, sid)


def _pickle_with_sorted_cache(obj) -> bytes:
    """Pickle *obj* the way interners were pickled before the row columns:
    slot state ``sets``, ``_ids`` and the per-set ``_sorted`` tuple cache
    (only EMPTY and TOP filled, as on a freshly cached plan)."""
    import copyreg
    import io
    import pickle

    from repro.core.pavf import TOP, SetInterner

    class OldPickler(pickle.Pickler):
        def reducer_override(self, value):
            if type(value) is not SetInterner:
                return NotImplemented
            cached = [(), (TOP,)] + [None] * (len(value) - 2)
            state = {"sets": value.sets, "_ids": value._ids, "_sorted": cached}
            return copyreg.__newobj__, (SetInterner,), (None, state)

    buf = io.BytesIO()
    OldPickler(buf, protocol=pickle.DEFAULT_PROTOCOL).dump(obj)
    return buf.getvalue()


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
