"""Compiled propagation core: CSR kernels, SolvePlan reuse, relaxation.

The compiled engine must be indistinguishable from the dict-based
reference solver — the same annotation sets and per-node AVFs, whether
it solves monolithically or relaxes per FUB — while being reusable
across environments.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.compiled import HAVE_NUMPY, SetEvaluator, SolvePlan, resolve_ids
from repro.core.graphmodel import StructurePorts
from repro.core.pavf import BOUNDARY, CONST, CTRL, LOOP, READ, WRITE, Atom, PavfEnv
from repro.core.sart import SartConfig, SetMap, build_env, build_plan, run_sart
from repro.errors import SartError
from repro.netlist.builder import ModuleBuilder
from repro.netlist.graph import extract_graph
from repro.verify.reference import run_reference, run_relaxation


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
        a = run_reference(tinycore_module)
        b = run_sart(tinycore_module)
        # Not just values: the interned annotation sets are the same sets.
        assert a.f_sets == b.f_sets
        assert a.b_sets == b.b_sets
        _assert_results_match(a, b)

    def test_partitioned_avfs_and_trace(self, tinycore_module):
        a = run_reference(tinycore_module)
        b = run_relaxation(build_plan(tinycore_module))
        _assert_results_match(a, b)
        assert b.f_sets == a.f_sets and b.b_sets == a.b_sets
        trace = b.trace
        assert trace.converged and trace.max_delta[-1] == 0.0
        assert len(trace.max_delta) == trace.iterations
        # Each FUB's last recorded average is the reference's average
        # MIN(f, b) over its non-structure sequential nodes.
        seq: dict[str, list[float]] = {}
        for node in a.node_avfs.values():
            if node.kind == "seq" and node.role != "struct":
                seq.setdefault(node.fub, []).append(min(node.forward, node.backward))
        for fub, avgs in trace.fub_avg.items():
            assert len(avgs) == trace.iterations
            vals = seq.get(fub, [])
            want = sum(vals) / len(vals) if vals else 0.0
            assert avgs[-1] == pytest.approx(want), fub

    def test_partitioned_bigcore_within_1e9(self, bigcore_half_graph):
        a = run_reference(bigcore_half_graph)
        b = run_relaxation(build_plan(bigcore_half_graph))
        _assert_results_match(a, b, tol=1e-9)

    def test_walk_agreement_preserved(self):
        # dangling="top" removes the one refinement walks can't express.
        module = _pipeline()
        cfg = SartConfig(dangling="top")
        w = run_reference(module, STRUCTS, cfg, engine="walk")
        c = run_sart(module, STRUCTS, cfg)
        for net, nw in w.node_avfs.items():
            assert c.node_avfs[net].avf == pytest.approx(nw.avf), net


def _assert_relaxation_is_the_solve(plan):
    mono = run_sart(plan=plan)
    part = run_relaxation(plan)
    assert part.trace.converged
    # The same sets, not sets of the same value: visited follows.
    assert part.node_avfs == mono.node_avfs
    assert part.f_sets.ids == mono.f_sets.ids
    assert part.b_sets.ids == mono.b_sets.ids


class TestRelaxation:
    def test_partitioned_matches_monolithic_tinycore(self, tinycore_module):
        _assert_relaxation_is_the_solve(build_plan(tinycore_module))

    def test_partitioned_matches_monolithic_bigcore(self, bigcore_half_graph):
        _assert_relaxation_is_the_solve(build_plan(bigcore_half_graph))


class TestSolvePlan:
    def test_plan_reuse_matches_fresh_runs(self, tinycore_module):
        plan = build_plan(tinycore_module)
        for loop_pavf in (0.0, 0.3, 1.0):
            cfg = SartConfig(loop_pavf=loop_pavf)
            fresh = run_sart(tinycore_module, config=cfg)
            reused = run_sart(plan=plan, config=cfg)
            _assert_results_match(fresh, reused, tol=0.0)
            assert reused.plan is plan

    def test_plan_or_design_never_both(self, tinycore_module):
        # A plan carries its design and structures: a second copy of
        # either would be ignored.
        plan = build_plan(tinycore_module)
        structures = {"rf": StructurePorts("rf", pavf_r=0.5, pavf_w=0.5)}
        with pytest.raises(SartError, match="not both"):
            run_sart(tinycore_module, structures, plan=plan)
        with pytest.raises(SartError, match="not both"):
            run_sart(structures=structures, plan=plan)
        with pytest.raises(SartError, match="not both"):
            run_sart(tinycore_module, plan=plan)
        with pytest.raises(SartError, match="needs a design or a plan"):
            run_sart()

    def test_monolithic_reuse_is_cached(self, tinycore_module):
        plan = build_plan(tinycore_module)
        run_sart(plan=plan)
        sets_before = len(plan.interner)
        run_sart(plan=plan, config=SartConfig(loop_pavf=0.7))
        # The second environment re-evaluated cached vectors: no new sets.
        assert len(plan.interner) == sets_before

    def test_environment_knobs_are_free(self, tinycore_module):
        plan = build_plan(tinycore_module)
        cfg = SartConfig(
            loop_pavf=0.9,
            boundary_in_pavf=0.5,
            dangling="top",
        )
        res = run_sart(plan=plan, config=cfg)
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

    @pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")
    def test_chunked_gather_equals_one_shot_at_every_padded_width(self, monkeypatch):
        import random

        import numpy as np

        from repro.core import compiled
        from repro.core.compiled import gather_halve

        rng = random.Random(2)
        interner = SolvePlan().interner
        pool = [Atom(LOOP, f"n{i}") for i in range(70)]
        sids = np.asarray([interner.id_of(rng.sample(pool, k))
                           for k in self.SIZES for _ in range(9)] + [0, 1])
        envs = [PavfEnv(kind_defaults={LOOP: 0.003 * (w + 1)}) for w in range(3)]
        for atom in pool[::3]:
            envs[1].bind(atom, rng.random() * 0.05)
        table = np.array([[env.lookup(atom) for env in envs] for atom in interner.atoms]
                         + [[0.0] * len(envs)])
        monkeypatch.setattr(compiled, "_GATHER_CHUNK", 1 << 40)
        whole = gather_halve(interner, sids, table)
        for chunk in (1, 7, 100, 1 << 18):
            monkeypatch.setattr(compiled, "_GATHER_CHUNK", chunk)
            assert np.array_equal(gather_halve(interner, sids, table), whole)
        ref = [SetEvaluator(interner, env, use_numpy=False) for env in envs]
        assert whole.tolist() == [[ev.value(sid) for ev in ref] for sid in sids.tolist()]

    def test_plan_pickle_round_trip_evaluates_identically(self, tinycore_module):
        import pickle

        plan = build_plan(tinycore_module)
        env = build_env(plan, SartConfig())
        f_ids, b_ids = plan.solve_monolithic()
        sids = sorted({s for s in f_ids + b_ids if s >= 0})
        want = SetEvaluator(plan.interner, env)
        want.fill(sids)
        copy = pickle.loads(pickle.dumps(plan))
        got = SetEvaluator(copy.interner, env)
        got.fill(sids)
        assert [got.value(s) for s in sids] == [want.value(s) for s in sids]
        # The pickle holds the atom table and the rows; the index rebuilt
        # from them finds every set again instead of adding a copy.
        interner = copy.interner
        assert interner.atoms == plan.interner.atoms
        assert interner.row_ids == plan.interner.row_ids
        for sid in range(len(interner)):
            assert interner.id_of(interner.sorted_atoms(sid)) == sid
        assert len(interner) == len(plan.interner)


_POOL = [Atom(kind, f"n{i % 5}", i) for i, kind in enumerate(
    (READ, WRITE, LOOP, CTRL, BOUNDARY, CONST) * 4)]


@given(data=st.data())
def test_union_ids_and_rows_on_ranked_bare_and_late_interners(data):
    """``union_ids`` merges rows into exactly ``union``, interned: TOP
    absorbs, and a row is its set in atom order whether its atoms were
    ranked, first seen after a ranking (late) or never ranked (bare)."""
    import pickle

    from repro.core.pavf import TOP, TOP_SET, SetInterner, union

    interner = SetInterner()
    ranked = data.draw(st.sets(st.sampled_from(_POOL)), label="ranked")
    if ranked:
        interner.rank(ranked)
    sets = data.draw(st.lists(
        st.frozensets(st.sampled_from(_POOL + [TOP]), max_size=8),
        min_size=1, max_size=12), label="sets")
    sids = [interner.id_of(atoms) for atoms in sets]
    restored = pickle.loads(pickle.dumps(interner))
    keys = data.draw(st.lists(st.lists(
        st.integers(0, len(sets) - 1), min_size=1, max_size=4)), label="keys")
    for table in (interner, restored):
        for atoms, sid in zip(sets, sids):
            assert table.id_of(atoms) == sid
        for key in keys:
            want = union(*(sets[i] for i in key))
            got = table.union_ids(tuple(sids[i] for i in key))
            assert got == table.id_of(want)
            assert frozenset(table.sorted_atoms(got)) == want
            assert (got == SetInterner.TOP_ID) == (want == TOP_SET)
        assert len(table.row_start) == len(table.row_len) == len(table)
        for sid in range(len(table)):
            atoms = table.sorted_atoms(sid)
            assert list(atoms) == sorted(set(atoms))
            assert TOP not in atoms or sid == SetInterner.TOP_ID
            lo = table.row_start[sid]
            row = table.row_ids[lo:lo + table.row_len[sid]].tolist()
            assert row == [table.atom_id(a) for a in atoms]


def test_interner_holds_rows_only_within_a_storage_budget():
    """A solved plan's interner keeps each set as its row of atom ids and
    the row index, no ``frozenset``, at a bounded cost per atom entry."""
    from repro.designs.bigcore.systolic import SystolicConfig, build_systolic

    plan = build_plan(build_systolic(SystolicConfig(rows=8, cols=8)).module)
    plan.solve_monolithic()
    interner = plan.interner
    for slot in type(interner).__slots__:
        value = getattr(interner, slot)
        held = [*value, *value.values()] if isinstance(value, dict) else (
            value if isinstance(value, list) else [value])
        assert not any(isinstance(item, (set, frozenset)) for item in held), slot
    entries = len(interner.row_ids)
    assert entries > 50_000
    assert interner.nbytes() <= 20 * entries


def test_interner_nbytes_does_not_depend_on_the_hash_seed():
    """The row index is keyed by salted ``hash()`` values, so ``nbytes()``
    counts each index entry at a fixed size: a solved plan reads the
    same under every ``PYTHONHASHSEED``."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parents[2] / "src"
    code = ("from repro.pipeline import RunSpec, execute\n"
            "run = execute(RunSpec('tinycore:fib'))\n"
            "print(run.plan.plan.interner.nbytes())\n")
    readings = set()
    for seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=str(src) + os.pathsep + os.environ.get("PYTHONPATH", ""))
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        readings.add(int(done.stdout))
    assert len(readings) == 1, readings


@pytest.mark.parametrize(
    "ref", ["tinycore:fib", "systolic@rows=4,cols=4", "bigcore@scale=0.3"])
def test_solved_plan_pickles_no_frozenset(ref):
    """A plan carries arrays only: its fixed sets are set-id columns, and
    the name-keyed frozenset tables exist only where the reference
    engines build them, so the pickle the artifact store writes holds no
    frozenset."""
    import pickle
    import pickletools

    from repro.pipeline.registry import resolve_design

    plan = build_plan(resolve_design(ref).build().module)
    run_sart(plan=plan)
    blob = pickle.dumps(plan, protocol=pickle.HIGHEST_PROTOCOL)
    opcodes = {op.name for op, _, _ in pickletools.genops(blob)}
    assert "FROZENSET" not in opcodes


def test_rows_whose_hashes_collide_intern_apart(monkeypatch):
    # The index keys rows by hash; a row whose hash is taken probes on
    # and is told apart by its bytes. Make every row of one length collide.
    import pickle
    import random

    from repro.core import pavf
    from repro.core.pavf import SetInterner, union

    monkeypatch.setattr(pavf, "hash", len, raising=False)
    rng = random.Random(5)
    sets = [frozenset(rng.sample(_POOL, rng.randint(0, 4))) for _ in range(80)]
    interner = SetInterner()
    interner.rank(_POOL[::2])
    sids = [interner.id_of(atoms) for atoms in sets]
    # Five row lengths give five hashes for every row: most collide.
    assert len(interner) > 5
    restored = pickle.loads(pickle.dumps(interner))
    for table in (interner, restored):
        assert len(table) == len(set(sets)) + (frozenset() not in sets) + 1
        for atoms, sid in zip(sets, sids):
            assert table.id_of(atoms) == sid
            assert frozenset(table.sorted_atoms(sid)) == atoms
        for _ in range(50):
            key = rng.sample(range(len(sets)), 3)
            got = table.union_ids([sids[i] for i in key])
            assert frozenset(table.sorted_atoms(got)) == union(*(sets[i] for i in key))


def test_resolve_ids_matches_resolve(tinycore_module):
    from repro.verify.reference import resolve

    plan = build_plan(tinycore_module)
    env = build_env(plan, SartConfig())
    f_ids, b_ids = plan.solve_monolithic()
    got = resolve_ids(plan, f_ids, b_ids, env)
    want = resolve(plan, SetMap(plan, f_ids), SetMap(plan, b_ids), env)
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
