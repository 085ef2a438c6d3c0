"""Design deltas and per-FUB incremental re-solve (ECO mode).

The contract under test: a warm-started solve of an edited design is
bit-identical — node AVFs *and* annotation sets — to a cold solve of
the same design, while re-solving only the FUBs the edit can actually
influence.
"""

import pytest

from repro.core.graphmodel import StructurePorts
from repro.core.relaxation import WarmStart
from repro.core.sart import build_plan, run_sart
from repro.pipeline.delta import (
    DesignDelta,
    diff_plans,
    dirty_fub_indices,
    fub_closures,
    fub_fingerprints,
    warm_start_from_result,
)

STRUCTS = {
    "SRC": StructurePorts("SRC", pavf_r=0.3, pavf_w=0.0, avf=0.5),
    "SNK": StructurePorts("SNK", pavf_r=0.0, pavf_w=0.1, avf=0.5),
}

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
    from the input (raises B's exports to the TOP value); *ctrl_fub*
    places the control register (a ``cfg``-named flop) in that FUB.
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
    return build_plan(module, STRUCTS)


def _long_chain(value_edit=False, n_fubs=24):
    """A chain of *n_fubs* one-flop FUBs from SRC to SNK.

    *value_edit* mixes the raw input into the first FUB, a change that
    crosses one FUB boundary per relaxation iteration.
    """
    from repro.netlist.builder import ModuleBuilder

    b = ModuleBuilder("long")
    tie = b.input("tie_in")
    cur = b.dff(tie, q="src_q", name="src",
                attrs={"struct": "SRC", "bit": "0", "fub": "F0"})
    for f in range(n_fubs):
        cur = b.dff(cur, q=f"F{f}_q", name=f"F{f}_r", attrs={"fub": f"F{f}"})
        if value_edit and f == 0:
            cur = b.and_(cur, tie, out="F0_mix", name="F0_mixer",
                         attrs={"fub": "F0"})
    b.dff(cur, q="snk_q", name="snk",
          attrs={"struct": "SNK", "bit": "0", "fub": f"F{n_fubs - 1}"})
    return b.done()


def _solve(module, plan=None, warm_start=None):
    return run_sart(plan=plan or _plan(module), warm_start=warm_start)


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
        assert not (delta.changed or delta.added or delta.removed)
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


# ----------------------------------------------------------------------
# warm start from a baseline result
# ----------------------------------------------------------------------

class TestWarmStartFromResult:
    def _warm_vs_cold(self, base_module, target_module):
        plan_a, plan_b = _plan(base_module), _plan(target_module)
        baseline = _solve(base_module, plan=plan_a)
        delta = diff_plans(plan_a, plan_b)
        warm_start = warm_start_from_result(plan_b, delta.touched, baseline)
        assert warm_start is not None
        warm = _solve(target_module, plan=plan_b, warm_start=warm_start)
        cold = _solve(target_module, plan=plan_b)
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

    def test_warm_result_closed_form_is_the_solve(self):
        # The baseline's sets a warm result carries over are interned
        # into the new plan, so its closed form evaluates to the solve.
        warm, _ = self._warm_vs_cold(_design(), _design(value_edit="B"))
        assert warm.closed_form().evaluate() == warm.node_avfs

    def test_warm_result_seeds_the_next_warm_start(self):
        # An ECO result is a baseline too: its maps, whose untouched
        # entries are copied from the first baseline when first read,
        # seed the next edit's re-solve, which still lands on cold.
        module_a, module_b = _design(), _design(edit="B")
        module_c = _design(value_edit="C")
        plan_a, plan_b, plan_c = _plan(module_a), _plan(module_b), _plan(module_c)
        first = _solve(module_a, plan=plan_a)
        warm_b = _solve(module_b, plan=plan_b, warm_start=warm_start_from_result(
            plan_b, diff_plans(plan_a, plan_b).touched, first))
        warm_c = _solve(module_c, plan=plan_c, warm_start=warm_start_from_result(
            plan_c, diff_plans(plan_b, plan_c).touched, warm_b))
        assert warm_b.trace.warm and warm_c.trace.warm
        _assert_identical(warm_c, _solve(module_c, plan=plan_c))
        _assert_identical(warm_b, _solve(module_b, plan=plan_b))

    def test_saturating_edit_is_bit_identical(self):
        # Rewiring B to the raw input raises its exports to the TOP
        # value: the merge must take B's new sets, whatever their value.
        self._warm_vs_cold(_design(), _design(rewire_b=True))

    def test_refuses_non_converged_baseline(self):
        from repro.verify.reference import run_relaxation

        module = _design()
        baseline = run_relaxation(_plan(module), iterations=1)
        assert not baseline.trace.converged
        assert warm_start_from_result(_plan(module), set(), baseline) is None
        # Converged, the same relaxation seeds like the monolithic solve.
        relaxed = run_relaxation(_plan(module))
        assert warm_start_from_result(_plan(module), set(), relaxed) is not None

    def test_refuses_baseline_without_boundaries(self):
        # A reference engine's result carries its plan but holds dict
        # sets that were not solved on it, so it has no boundary sets to
        # seed a plan's exports with; any result solved on a plan
        # (run_sart's monolithic one here) seeds.
        from repro.verify.reference import run_reference

        module = _design()
        reference = run_reference(module, STRUCTS)
        assert warm_start_from_result(_plan(module), set(), reference) is None
        mono = _solve(module)
        assert mono.trace is None
        assert warm_start_from_result(_plan(module), set(), mono) is not None

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

        base_module, target_module = _long_chain(), _long_chain(value_edit=True)
        plan_b = _plan(target_module)
        baseline = _solve(base_module)
        delta = diff_plans(_plan(base_module), plan_b)
        warm_start = warm_start_from_result(plan_b, delta.touched, baseline)
        assert warm_start.dirty_fubs <= {"", "F0", "F1"}
        # The edit crosses one FUB boundary per iteration, so 24 FUBs
        # do not settle in the budget of 20: the run must not return a
        # truncated warm trajectory, it restarts cold.
        with pytest.warns(WarmStartDegradedWarning, match="restarting cold"):
            warm = _solve(target_module, plan=plan_b, warm_start=warm_start)
        _assert_identical(warm, _solve(target_module, plan=plan_b))
        assert warm.trace is None

