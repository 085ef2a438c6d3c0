"""The paper's propagation rules: Equations 4-10, Table 1, Figure 7.

Each canonical topology (simple pipeline, logical join, distribution
split) is built as a tiny netlist and run through SART; the resolved AVFs
must match the closed-form equations of Table 1.
"""

import pytest

from repro.core.graphmodel import StructurePorts
from repro.core.sart import SartConfig, run_sart
from repro.netlist.builder import ModuleBuilder
from repro.verify.reference import run_reference
from tests.conftest import FIG7_STRUCTS, make_fig7, make_simple_pipe

CFG = SartConfig()


def _structs(**kv):
    out = {}
    for name, (r, w) in kv.items():
        out[name] = StructurePorts(name, pavf_r=r, pavf_w=w, avf=0.5)
    return out


class TestSimplePipeline:
    """Figure 1 / Equations 4, 8 / Table 1 row 1."""

    @pytest.mark.parametrize("r,w", [(0.10, 0.20), (0.30, 0.10), (0.5, 0.5)])
    def test_avf_is_min_of_ports(self, r, w):
        module, stages = make_simple_pipe(depth=4)
        res = run_sart(module, _structs(S1=(r, 0.0), S2=(0.0, w)), CFG)
        for net in stages:
            assert res.avf(net) == pytest.approx(min(r, w))
            assert res.node_avfs[net].forward == pytest.approx(r)
            assert res.node_avfs[net].backward == pytest.approx(w)


class TestLogicalJoin:
    """Figure 2/5 / Equations 5, 9 / Table 1 row 2."""

    def _build(self):
        b = ModuleBuilder("join")
        tie = b.input("tie_in")
        s1 = b.dff(tie, name="s1", attrs={"struct": "S1", "bit": "0"})
        s2 = b.dff(tie, name="s2", attrs={"struct": "S2", "bit": "0"})
        q1a = b.dff(s1, name="q1a")
        q1b = b.dff(s2, name="q1b")
        g1 = b.nor_(q1a, q1b, name="g1")
        q2a = b.dff(g1, name="q2a")
        b.dff(q2a, name="s3", attrs={"struct": "S3", "bit": "0"})
        return b.done(), q1a, q1b, q2a

    def test_table1_join_row(self):
        r1, r2, w3 = 0.10, 0.02, 0.08
        module, q1a, q1b, q2a = self._build()
        res = run_sart(
            module, _structs(S1=(r1, 0.0), S2=(r2, 0.0), S3=(0.0, w3)), CFG
        )
        assert res.avf(q1a) == pytest.approx(min(r1, w3))
        assert res.avf(q1b) == pytest.approx(min(r2, w3))
        assert res.avf(q2a) == pytest.approx(min(r1 + r2, w3))

    def test_backward_join_copies_output_value(self):
        # Eq 9: both join inputs receive the output's pAVF_W.
        module, q1a, q1b, q2a = self._build()
        res = run_sart(
            module, _structs(S1=(1.0, 0.0), S2=(1.0, 0.0), S3=(0.0, 0.07)), CFG
        )
        assert res.node_avfs[q1a].backward == pytest.approx(0.07)
        assert res.node_avfs[q1b].backward == pytest.approx(0.07)

    def test_forward_union_caps_at_one(self):
        module, q1a, q1b, q2a = self._build()
        res = run_sart(
            module, _structs(S1=(0.8, 0.0), S2=(0.7, 0.0), S3=(0.0, 1.0)), CFG
        )
        assert res.node_avfs[q2a].forward == 1.0


class TestDistributionSplit:
    """Figure 3/6 / Equations 6, 10 / Table 1 row 3."""

    def _build(self):
        b = ModuleBuilder("split")
        tie = b.input("tie_in")
        s1 = b.dff(tie, name="s1", attrs={"struct": "S1", "bit": "0"})
        q1a = b.dff(s1, name="q1a")
        q2a = b.dff(q1a, name="q2a")
        q2b = b.dff(q1a, name="q2b")
        b.dff(q2a, name="s2", attrs={"struct": "S2", "bit": "0"})
        b.dff(q2b, name="s3", attrs={"struct": "S3", "bit": "0"})
        return b.done(), q1a, q2a, q2b

    def test_table1_split_row(self):
        r1, w2, w3 = 0.40, 0.10, 0.05
        module, q1a, q2a, q2b = self._build()
        res = run_sart(
            module, _structs(S1=(r1, 0.0), S2=(0.0, w2), S3=(0.0, w3)), CFG
        )
        assert res.avf(q2a) == pytest.approx(min(r1, w2))
        assert res.avf(q2b) == pytest.approx(min(r1, w3))
        assert res.avf(q1a) == pytest.approx(min(r1, w2 + w3))

    def test_forward_split_copies(self):
        # Eq 6: all split branches carry the source pAVF_R forward.
        module, q1a, q2a, q2b = self._build()
        res = run_sart(
            module, _structs(S1=(0.33, 0.0), S2=(0.0, 1.0), S3=(0.0, 1.0)), CFG
        )
        for net in (q1a, q2a, q2b):
            assert res.node_avfs[net].forward == pytest.approx(0.33)


class TestFigure7:
    """The full worked example, including the idempotent-union step."""

    @pytest.fixture(params=["dataflow", "walk", "compiled"])
    def result(self, request):
        module, nets, structs = make_fig7()[0], make_fig7()[1], dict(FIG7_STRUCTS)
        cfg = SartConfig()
        if request.param == "compiled":
            return run_sart(module, structs, cfg), nets
        return run_reference(module, structs, cfg, engine=request.param), nets

    def test_forward_annotations(self, result):
        res, nets = result
        fwd = {k: res.node_avfs[v].forward for k, v in nets.items()}
        assert fwd["q1a"] == pytest.approx(0.10)
        assert fwd["q2a"] == pytest.approx(0.10)
        assert fwd["q1b"] == pytest.approx(0.02)
        # G1 joins S1 and S2: 0.10 + 0.02
        assert fwd["g1"] == pytest.approx(0.12)
        assert fwd["q3b"] == pytest.approx(0.12)
        # G2 joins pAVF_1 with (pAVF_1 U pAVF_2): union is idempotent,
        # NOT 0.22 — the paper's key simplification.
        assert fwd["g2"] == pytest.approx(0.12)
        assert fwd["q3a"] == pytest.approx(0.12)

    def test_structure_bits_keep_measured_avf(self, result):
        res, nets = result
        assert res.avf(nets["s1"]) == pytest.approx(0.25)
        assert res.avf(nets["s4"]) == pytest.approx(0.25)

    def test_min_reconciliation(self, result):
        res, nets = result
        # backward from S3 (0.05) dominates the Q2a/G2/Q3a path
        assert res.avf(nets["q2a"]) == pytest.approx(0.05)
        assert res.avf(nets["q3a"]) == pytest.approx(0.05)
        # backward from S4 (0.40) leaves the forward estimate in place
        assert res.avf(nets["q3b"]) == pytest.approx(0.12)


def test_engines_agree_on_fig7():
    module, nets = make_fig7()
    cfg = SartConfig()
    a = run_reference(module, dict(FIG7_STRUCTS), cfg, engine="dataflow")
    module2, nets2 = make_fig7()
    b = run_reference(module2, dict(FIG7_STRUCTS), cfg, engine="walk")
    module3, nets3 = make_fig7()
    c = run_sart(module3, dict(FIG7_STRUCTS), cfg)
    for key, net in nets.items():
        assert a.avf(net) == pytest.approx(b.avf(nets2[key])), key
        assert a.avf(net) == pytest.approx(c.avf(nets3[key])), key
