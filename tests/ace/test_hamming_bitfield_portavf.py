"""Hamming-distance-1 analysis, bit fields, and port-AVF extraction."""

import pytest

from repro.ace.bitfield import (
    FieldSpec,
    IQ_FIELDS,
    ROB_FIELDS,
    ace_bits_for,
    total_bits,
)
from repro.ace.hamming import HammingAnalyzer, naive_tag_avf
from repro.ace.portavf import average_ports, ports_from_analysis, suite_ports
from repro.core.graphmodel import StructurePorts
from repro.errors import AceError
from repro.perfmodel.isa import Inst
from repro.workloads.generator import WorkloadSpec, generate_trace


class TestHamming:
    def test_true_hit_makes_all_bits_ace(self):
        h = HammingAnalyzer("tags", entries=2, tag_bits=8)
        h.insert(0, 0xA5, cycle=0)
        assert h.lookup(0xA5, cycle=10) == [0]
        h.evict(0, cycle=50)
        avf = h.finish(100)
        # 8 bits x 10 cycles over 2 entries x 8 bits x 100 cycles
        assert avf == pytest.approx(8 * 10 / (2 * 8 * 100))

    def test_near_miss_marks_single_bit(self):
        h = HammingAnalyzer("tags", entries=1, tag_bits=8)
        h.insert(0, 0b0000_0000, cycle=0)
        h.lookup(0b0000_0100, cycle=20)  # HD-1: bit 2 vulnerable
        h.evict(0, cycle=40)
        avf = h.finish(100)
        assert avf == pytest.approx(20 / (8 * 100))
        assert h.stats()["near_misses"] == 1

    def test_unlooked_tag_is_unace(self):
        h = HammingAnalyzer("tags", entries=1, tag_bits=8)
        h.insert(0, 0xFF, cycle=0)
        h.evict(0, cycle=90)
        assert h.finish(100) == 0.0

    def test_unace_lookup_does_not_accrue(self):
        h = HammingAnalyzer("tags", entries=1, tag_bits=8)
        h.insert(0, 0x0F, cycle=0)
        h.lookup(0x0F, cycle=50, ace=False)
        h.evict(0, cycle=60)
        assert h.finish(100) == 0.0

    def test_refinement_below_naive(self):
        h = HammingAnalyzer("tags", entries=4, tag_bits=16)
        for e in range(4):
            h.insert(e, 0x1000 + e, cycle=0)
        h.lookup(0x1000, cycle=30)
        for e in range(4):
            h.evict(e, cycle=80)
        refined = h.finish(100)
        naive = naive_tag_avf(residency_cycles=4 * 80, entries=4, tag_bits=16, cycles=100)
        assert refined < naive

    def test_errors(self):
        h = HammingAnalyzer("tags", entries=1, tag_bits=4)
        with pytest.raises(AceError):
            h.evict(0, 0)
        with pytest.raises(AceError):
            h.insert(5, 0, 0)
        with pytest.raises(AceError):
            HammingAnalyzer("bad", entries=0, tag_bits=4)


class TestBitFields:
    def test_unace_inst_has_zero_bits(self):
        inst = Inst(seq=0, op="alu", dst=1, ace=False)
        assert ace_bits_for(IQ_FIELDS, inst) == 0

    def test_imm_field_conditional(self):
        with_imm = Inst(seq=0, op="alu", dst=1, imm=True, ace=True)
        without = Inst(seq=0, op="alu", dst=1, imm=False, ace=True)
        assert ace_bits_for(IQ_FIELDS, with_imm) - ace_bits_for(IQ_FIELDS, without) == 16

    def test_branch_fields(self):
        br = Inst(seq=0, op="branch", taken=True, ace=True)
        alu = Inst(seq=0, op="alu", dst=1, ace=True)
        br_bits = ace_bits_for(ROB_FIELDS, br)
        alu_bits = ace_bits_for(ROB_FIELDS, alu)
        # branch needs pc (32) but no dst/result (40); alu the reverse
        assert br_bits != alu_bits

    def test_always_below_total(self):
        for op, kw in [("alu", dict(dst=1)), ("load", dict(dst=1, addr=0)),
                       ("store", dict(addr=0)), ("branch", dict(taken=True))]:
            inst = Inst(seq=0, op=op, ace=True, **kw)
            assert 0 < ace_bits_for(IQ_FIELDS, inst) <= total_bits(IQ_FIELDS)


class TestPortAvf:
    def _result(self, **spec_kw):
        from repro.perfmodel.machine import run_workload

        trace = generate_trace(WorkloadSpec(name="t", length=2500, **spec_kw))
        return run_workload(trace)

    def test_ports_in_range(self):
        res = self._result()
        ports = ports_from_analysis(res.structures)
        for p in ports.values():
            assert 0.0 <= p.pavf_r <= 1.0
            assert 0.0 <= p.pavf_w <= 1.0
            assert 0.0 <= p.avf <= 1.0

    def test_bitwise_refinement_not_higher(self):
        res = self._result()
        plain = ports_from_analysis(res.structures, bitwise=False)
        refined = ports_from_analysis(res.structures, bitwise=True)
        for name in plain:
            assert refined[name].pavf_r <= plain[name].pavf_r + 1e-12

    def test_average_ports(self):
        a = {"s": StructurePorts("s", pavf_r=0.2, pavf_w=0.4, avf=0.1)}
        b = {"s": StructurePorts("s", pavf_r=0.4, pavf_w=0.0, avf=0.3)}
        avg = average_ports([a, b])
        assert avg["s"].pavf_r == pytest.approx(0.3)
        assert avg["s"].pavf_w == pytest.approx(0.2)
        assert avg["s"].avf == pytest.approx(0.2)

    def test_average_ports_mismatch_rejected(self):
        a = {"s": StructurePorts("s")}
        b = {"t": StructurePorts("t")}
        with pytest.raises(AceError):
            average_ports([a, b])
        with pytest.raises(AceError):
            average_ports([])

    def test_suite_ports(self):
        traces = [
            generate_trace(WorkloadSpec(name=f"w{i}", length=1500, seed=i))
            for i in range(3)
        ]
        ports, results = suite_ports(traces)
        assert len(results) == 3
        assert set(ports) == set(results[0].structures)

    def test_dead_code_lowers_pavf(self):
        lively = self._result(dead_fraction=0.0)
        deadly = self._result(dead_fraction=0.6)
        p_live = ports_from_analysis(lively.structures, bitwise=False)
        p_dead = ports_from_analysis(deadly.structures, bitwise=False)
        assert p_dead["rob"].pavf_r < p_live["rob"].pavf_r
