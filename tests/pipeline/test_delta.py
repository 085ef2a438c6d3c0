"""Design deltas and per-FUB incremental re-solve (ECO mode).

The contract under test: a warm-started solve of an edited design is
bit-identical — node AVFs *and* annotation sets — to a cold solve of
the same design, while re-solving only the FUBs the edit can actually
influence. Store keys must invalidate exactly the edited FUB plus its
per-direction reachable set.
"""

import dataclasses

import pytest

from repro.core.graphmodel import StructurePorts
from repro.core.relaxation import WarmStart
from repro.core.sart import SartConfig, build_plan, run_sart
from repro.pipeline.delta import (
    DesignDelta,
    FubSolution,
    diff_plans,
    dirty_fub_indices,
    eco_context_fingerprint,
    extract_fub_solutions,
    fub_closures,
    fub_fingerprints,
    fub_solution_keys,
    save_fub_solutions,
    warm_start_from_result,
    warm_start_from_store,
)
from repro.pipeline.store import ArtifactStore

STRUCTS = {
    "SRC": StructurePorts("SRC", pavf_r=0.3, pavf_w=0.0, avf=0.5),
    "SNK": StructurePorts("SNK", pavf_r=0.0, pavf_w=0.1, avf=0.5),
}

CFG = SartConfig(partition_by_fub=True, iterations=20)


def _design(
    edit=None,
    value_edit=None,
    rewire_b=False,
    c_name="C",
    with_d=True,
    ctrl_fub="B",
):
    """A FUB chain A -> B -> C plus an independent FUB D.

    *edit* inserts a double inverter (numerically neutral) inside the
    named FUB; *value_edit* mixes the raw input into the named FUB's
    datapath (changes downstream values); *rewire_b* feeds B straight
    from the input (raises B's exports to the TOP value, exercising the
    saturation rule of the optimistic merge); *ctrl_fub* places the
    control register (a ``cfg``-named flop) in that FUB.
    """
    from repro.netlist.builder import ModuleBuilder

    b = ModuleBuilder("eco")
    tie = b.input("tie_in")
    cur = b.dff(tie, q="src_q", name="src",
                attrs={"struct": "SRC", "bit": "0", "fub": "A"})
    for fub in ("A", "B", c_name):
        logical = "C" if fub == c_name else fub
        for s in range(2):
            d = cur
            if rewire_b and logical == "B" and s == 0:
                d = tie
            cur = b.dff(d, q=f"{logical}_s{s}", name=f"{logical}_r{s}",
                        attrs={"fub": fub})
            if edit == logical and s == 0:
                eco1 = b.not_(cur, out=f"{logical}_eco1",
                              name=f"{logical}_i1", attrs={"fub": fub})
                cur = b.not_(eco1, out=f"{logical}_eco2",
                             name=f"{logical}_i2", attrs={"fub": fub})
            if value_edit == logical and s == 0:
                cur = b.and_(cur, tie, out=f"{logical}_mix",
                             name=f"{logical}_mixer", attrs={"fub": fub})
        if logical == "B":
            gate = b.dff(cur, q="cfg_gate", name="cfg_gate_reg",
                         attrs={"fub": ctrl_fub})
            cur = b.and_(cur, gate, out="B_gated", name="B_gater",
                         attrs={"fub": fub})
    b.dff(cur, q="snk_q", name="snk",
          attrs={"struct": "SNK", "bit": "0", "fub": c_name})
    if with_d:
        d_in = b.input("d_in")
        q = b.dff(d_in, q="D_s0", name="D_r0", attrs={"fub": "D"})
        b.dff(q, q="D_s1", name="D_r1", attrs={"fub": "D"})
    return b.done()


def _plan(module):
    return build_plan(module, STRUCTS, CFG)


def _solve(module, plan=None, warm_start=None, config=CFG):
    return run_sart(module, STRUCTS, config,
                    plan=plan or _plan(module), warm_start=warm_start)


def _assert_identical(warm, cold):
    assert warm.node_avfs == cold.node_avfs
    assert warm.f_sets == cold.f_sets
    assert warm.b_sets == cold.b_sets
    assert warm.report == cold.report


def _idx(plan, fub):
    return plan.fub_names.index(fub)


# ----------------------------------------------------------------------
# per-FUB fingerprints
# ----------------------------------------------------------------------

class TestFingerprints:
    def test_stable_across_rebuilds(self):
        fps_a = fub_fingerprints(_plan(_design()))
        fps_b = fub_fingerprints(_plan(_design()))
        assert fps_a == fps_b

    def test_internal_edit_changes_only_the_edited_fub(self):
        base = fub_fingerprints(_plan(_design()))
        edited = fub_fingerprints(_plan(_design(edit="B")))
        assert base.keys() == edited.keys()
        changed = {f for f in base if base[f] != edited[f]}
        assert changed == {"B"}

    def test_neighbor_fub_is_part_of_the_interface(self):
        # Moving a node to another FUB (no renames!) changes both FUBs'
        # fingerprints *and* those of neighbors reading the moved node,
        # because which side of the partition a fan-in sits on decides
        # whether it is read locally or through a FUBIO boundary.
        base = fub_fingerprints(_plan(_design()))
        moved = fub_fingerprints(_plan(_design(ctrl_fub="C")))
        assert base["B"] != moved["B"]
        assert base["C"] != moved["C"]
        assert base["A"] == moved["A"]
        assert base["D"] == moved["D"]


# ----------------------------------------------------------------------
# dependency closures and dirty sets
# ----------------------------------------------------------------------

class TestClosures:
    def test_chain_closures_follow_the_dataflow(self):
        plan = _plan(_design())
        f_clo, b_clo = fub_closures(plan)
        a, b, c, d = (_idx(plan, f) for f in "ABCD")
        # Forward: C depends on everything upstream, A on nothing below.
        assert {a, b, c} <= f_clo[c]
        assert b in f_clo[b] and a in f_clo[b]
        assert b not in f_clo[a] and c not in f_clo[a]
        # Backward mirrors it.
        assert {a, b, c} <= b_clo[a]
        assert a not in b_clo[c] and b not in b_clo[c]
        # D is disconnected from the chain in both directions.
        assert f_clo[d] == {d} == b_clo[d]
        for f in (a, b, c):
            assert d not in f_clo[f] and d not in b_clo[f]

    def test_dirty_fub_indices_are_per_direction(self):
        plan = _plan(_design())
        a, b, c, d = (_idx(plan, f) for f in "ABCD")
        f_dirty, b_dirty = dirty_fub_indices(plan, {b})
        assert b in f_dirty and c in f_dirty and a not in f_dirty
        assert b in b_dirty and a in b_dirty and c not in b_dirty
        assert d not in f_dirty and d not in b_dirty


# ----------------------------------------------------------------------
# diff_plans
# ----------------------------------------------------------------------

class TestDiff:
    def test_noop_diff(self):
        delta = diff_plans(_plan(_design()), _plan(_design()))
        assert delta.is_noop()
        assert not delta.dirty and not delta.touched
        assert delta.dirty_fraction == 0.0

    def test_internal_edit(self):
        plan_a, plan_b = _plan(_design()), _plan(_design(edit="B"))
        delta = diff_plans(plan_a, plan_b, ref_a="base", ref_b="edit")
        assert delta.changed == ("B",)
        assert not delta.added and not delta.removed
        assert delta.touched == {"B"}
        # Static dirtiness unions both directions: the whole chain, but
        # never the disconnected FUB D.
        assert {"A", "B", "C"} <= set(delta.dirty)
        assert "D" not in delta.dirty

    def test_renamed_fub_is_removed_plus_added(self):
        delta = diff_plans(_plan(_design()), _plan(_design(c_name="C2")))
        assert delta.added == ("C2",)
        assert delta.removed == ("C",)
        # B reads/feeds the renamed FUB, so its interface changed too.
        assert "B" in delta.changed

    def test_removed_fub(self):
        delta = diff_plans(_plan(_design()), _plan(_design(with_d=False)))
        assert delta.removed == ("D",)
        assert not delta.added
        # D's input pin vanished with it, so the top-level FUB changed;
        # the chain FUBs are untouched.
        assert set(delta.changed) <= {""}
        assert {"A", "B", "C"} <= set(delta.unchanged)
        assert delta.is_noop() is False

    def test_ctrl_reg_moved_across_fubs(self):
        delta = diff_plans(_plan(_design()), _plan(_design(ctrl_fub="C")))
        assert {"B", "C"} <= set(delta.changed)
        assert "A" not in delta.changed and "D" not in delta.changed

    def test_table_and_mapping(self):
        delta = diff_plans(
            _plan(_design()), _plan(_design(edit="B")),
            ref_a="base", ref_b="edit",
        )
        text = delta.table()
        assert "changed" in text and "unchanged" in text
        assert "(top)" in text            # the top-level FUB renders
        assert f"dirty set {len(delta.dirty)}/{delta.n_fubs}" in text
        doc = delta.to_mapping()
        assert doc["ref_a"] == "base" and doc["ref_b"] == "edit"
        assert doc["changed"] == ["B"]
        assert doc["n_fubs"] == delta.n_fubs
        assert 0.0 < doc["dirty_fraction"] <= 1.0

    def test_precomputed_fingerprints_are_honored(self):
        plan_a, plan_b = _plan(_design()), _plan(_design(edit="B"))
        fps_a, fps_b = fub_fingerprints(plan_a), fub_fingerprints(plan_b)
        delta = diff_plans(plan_a, plan_b,
                           fingerprints_a=fps_a, fingerprints_b=fps_b)
        assert delta.changed == ("B",)


# ----------------------------------------------------------------------
# optimistic warm start (the delta path)
# ----------------------------------------------------------------------

class TestWarmStartFromResult:
    def _warm_vs_cold(self, base_module, target_module, config=CFG):
        plan_a, plan_b = _plan(base_module), _plan(target_module)
        baseline = _solve(base_module, plan=plan_a, config=config)
        delta = diff_plans(plan_a, plan_b)
        warm_start = warm_start_from_result(plan_b, delta.touched, baseline)
        assert warm_start is not None and warm_start.optimistic
        warm = _solve(target_module, plan=plan_b,
                      warm_start=warm_start, config=config)
        cold = _solve(target_module, plan=plan_b, config=config)
        _assert_identical(warm, cold)
        return warm, cold

    def test_neutral_edit_resolves_only_the_edited_fub(self):
        warm, _ = self._warm_vs_cold(_design(), _design(edit="B"))
        assert warm.trace.warm and warm.trace.converged
        assert warm.trace.resolved_fubs == 1
        assert warm.trace.iterations < 3

    def test_value_edit_is_bit_identical(self):
        warm, cold = self._warm_vs_cold(_design(), _design(value_edit="B"))
        assert warm.trace.warm
        # The value change propagates beyond B but never into D.
        assert warm.trace.resolved_fubs >= 2
        assert warm.trace.resolved_fubs < warm.trace.warm_fubs + \
            warm.trace.dirty_fubs

    def test_saturating_edit_is_bit_identical(self):
        # Rewiring B to the raw input raises its exports to the TOP
        # value: the merge must re-saturate to the canonical TOP set,
        # not keep an equal-valued computed set.
        self._warm_vs_cold(_design(), _design(rewire_b=True))

    def test_refuses_non_converged_baseline(self):
        tight = dataclasses.replace(CFG, iterations=1)
        module = _design()
        baseline = _solve(module, config=tight)
        assert not baseline.trace.converged
        assert warm_start_from_result(_plan(module), set(), baseline) is None

    def test_refuses_baseline_without_boundaries(self):
        module = _design()
        baseline = _solve(module)
        stripped = dataclasses.replace(baseline, f_boundary=None)
        assert warm_start_from_result(_plan(module), set(), stripped) is None
        mono = run_sart(
            module, STRUCTS,
            dataclasses.replace(CFG, partition_by_fub=False),
        )
        assert warm_start_from_result(_plan(module), set(), mono) is None

    def test_uncovered_fub_is_folded_into_the_dirty_set(self):
        # D exists only in the target; the baseline has nothing to seed
        # it with, so it must re-solve even though the delta computed
        # against a D-less baseline never marked it touched.
        base_module = _design(with_d=False)
        target_module = _design()
        plan_b = _plan(target_module)
        baseline = _solve(base_module)
        delta = diff_plans(_plan(base_module), plan_b)
        warm_start = warm_start_from_result(plan_b, delta.touched, baseline)
        assert "D" in warm_start.dirty_fubs
        warm = _solve(target_module, plan=plan_b, warm_start=warm_start)
        _assert_identical(warm, _solve(target_module, plan=plan_b))

    def test_non_convergent_warm_start_falls_back_cold(self):
        from repro.errors import WarmStartDegradedWarning

        base_module, target_module = _design(), _design(value_edit="B")
        plan_b = _plan(target_module)
        baseline = _solve(base_module)
        delta = diff_plans(_plan(base_module), plan_b)
        warm_start = warm_start_from_result(plan_b, delta.touched, baseline)
        # One iteration is not enough for the value change to propagate
        # to quiescence: the optimistic run must not return a truncated
        # warm trajectory, it restarts cold.
        tight = dataclasses.replace(CFG, iterations=1)
        with pytest.warns(WarmStartDegradedWarning, match="restarting cold"):
            warm = _solve(target_module, plan=plan_b,
                          warm_start=warm_start, config=tight)
        cold = _solve(target_module, plan=plan_b, config=tight)
        assert warm.node_avfs == cold.node_avfs
        assert not warm.trace.warm


# ----------------------------------------------------------------------
# per-(FUB, direction) store keys and round trips
# ----------------------------------------------------------------------

class TestStoreKeys:
    def test_edit_invalidates_only_the_reachable_keys(self):
        plan_a, plan_b = _plan(_design()), _plan(_design(edit="B"))
        ctx = eco_context_fingerprint(CFG, None)
        keys_a = fub_solution_keys(plan_a, ctx)
        keys_b = fub_solution_keys(plan_b, ctx)
        # B itself: both directions invalid.
        assert keys_a["B"]["f"] != keys_b["B"]["f"]
        assert keys_a["B"]["b"] != keys_b["B"]["b"]
        # A feeds B: its forward solution is unaffected, its backward
        # solution reads B's exports.
        assert keys_a["A"]["f"] == keys_b["A"]["f"]
        assert keys_a["A"]["b"] != keys_b["A"]["b"]
        # C mirrors A.
        assert keys_a["C"]["f"] != keys_b["C"]["f"]
        assert keys_a["C"]["b"] == keys_b["C"]["b"]
        # D is disconnected: both keys survive.
        assert keys_a["D"] == keys_b["D"]

    def test_context_fingerprint_tracks_solve_knobs(self):
        base = eco_context_fingerprint(CFG, None)
        assert eco_context_fingerprint(dataclasses.replace(CFG), None) == base
        assert eco_context_fingerprint(
            dataclasses.replace(CFG, loop_pavf=0.7), None) != base
        assert eco_context_fingerprint(CFG, "ports-fp") != base

    def test_round_trip_serves_hits_and_stays_identical(self, tmp_path):
        module = _design()
        plan = _plan(module)
        store = ArtifactStore(tmp_path / "cache")
        keys = fub_solution_keys(plan, eco_context_fingerprint(CFG, None))
        cold = _solve(module, plan=plan)
        written = save_fub_solutions(store, plan, cold, keys)
        assert written == 2 * plan.n_fubs

        warm_start, hits, misses, hit_pairs = warm_start_from_store(
            ArtifactStore(tmp_path / "cache"), plan, keys
        )
        assert hits == 2 * plan.n_fubs and misses == 0
        assert not warm_start.dirty_fubs and not warm_start.optimistic
        warm = _solve(module, plan=plan, warm_start=warm_start)
        _assert_identical(warm, cold)
        assert warm.trace.warm and warm.trace.resolved_fubs == 0
        assert warm.trace.iterations == 1

    def test_partial_hits_after_an_edit(self, tmp_path):
        base_module, target_module = _design(), _design(edit="B")
        plan_a, plan_b = _plan(base_module), _plan(target_module)
        ctx = eco_context_fingerprint(CFG, None)
        store = ArtifactStore(tmp_path / "cache")
        save_fub_solutions(
            store, plan_a, _solve(base_module, plan=plan_a),
            fub_solution_keys(plan_a, ctx),
        )

        keys_b = fub_solution_keys(plan_b, ctx)
        warm_start, hits, misses, hit_pairs = warm_start_from_store(
            store, plan_b, keys_b
        )
        # The unreachable halves survive the edit: A forward, C
        # backward, D both, plus the structure-less top FUB.
        assert {("A", "f"), ("C", "b"), ("D", "f"), ("D", "b")} <= set(
            hit_pairs
        )
        assert ("B", "f") not in hit_pairs and ("B", "b") not in hit_pairs
        assert hits + misses == 2 * plan_b.n_fubs
        assert {"A", "B", "C"} <= set(warm_start.dirty_fubs)
        assert "D" not in warm_start.dirty_fubs

        cold = _solve(target_module, plan=plan_b)
        warm = _solve(target_module, plan=plan_b, warm_start=warm_start)
        _assert_identical(warm, cold)
        # Back-filling skips the served hits.
        wrote = save_fub_solutions(store, plan_b, warm, keys_b,
                                   skip=hit_pairs)
        assert wrote == 2 * plan_b.n_fubs - hits

    def test_corrupt_entry_counts_as_miss(self, tmp_path):
        module = _design()
        plan = _plan(module)
        store = ArtifactStore(tmp_path / "cache")
        keys = fub_solution_keys(plan, eco_context_fingerprint(CFG, None))
        save_fub_solutions(store, plan, _solve(module, plan=plan), keys)
        # Overwrite B's forward entry with a blob whose node coverage
        # does not match the plan.
        store.save("fubsol", keys["B"]["f"], FubSolution(
            fub="B", direction="f", sets={"bogus": frozenset()}, boundary={}
        ))
        _, hits, misses, hit_pairs = warm_start_from_store(store, plan, keys)
        assert misses == 1 and ("B", "f") not in hit_pairs

    def test_all_misses_mean_no_warm_start(self, tmp_path):
        plan = _plan(_design())
        keys = fub_solution_keys(plan, eco_context_fingerprint(CFG, None))
        warm_start, hits, misses, hit_pairs = warm_start_from_store(
            ArtifactStore(tmp_path / "cache"), plan, keys
        )
        assert warm_start is None and hits == 0 and not hit_pairs
        assert misses == 2 * plan.n_fubs

    def test_extract_refuses_unusable_results(self):
        module = _design()
        mono = run_sart(module, STRUCTS,
                        dataclasses.replace(CFG, partition_by_fub=False))
        assert extract_fub_solutions(_plan(module), mono) == {}
        part = _solve(module)
        assert extract_fub_solutions(
            _plan(module), dataclasses.replace(part, b_boundary=None)
        ) == {}
