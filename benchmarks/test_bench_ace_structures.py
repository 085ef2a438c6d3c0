"""E10 — the ACE substrate (Eq 3, Little's law, bit fields, HD-1).

Sanity-anchors the performance-model side the pAVFs come from:

* structure AVFs (Eq 3) and port AVFs across the workload suite;
* the Section 4 observation that array structures are latency-dominated
  while ports are throughput-dominated (Little's-law decomposition);
* the Bit Field Analysis refinement lowers control-structure pAVFs;
* the Hamming-distance-1 refinement lowers tag-array AVFs vs naive.
"""

from __future__ import annotations

import pytest

from conftest import print_table
from repro.ace.hamming import HammingAnalyzer, naive_tag_avf
from repro.ace.portavf import ports_from_analysis, suite_ports
from repro.workloads import suite_by_class


def test_bench_suite_structure_avfs(benchmark, model_ports):
    ports, results = model_ports

    def summarize():
        return {name: (p.pavf_r, p.pavf_w, p.avf) for name, p in ports.items()}

    table = benchmark(summarize)
    rows = [[n, r, w, a] for n, (r, w, a) in sorted(table.items())]
    print_table(
        "ACE model — suite-average structure AVFs and port AVFs (Eq 3)",
        ["structure", "pAVF_R", "pAVF_W", "structure AVF"],
        rows,
    )
    for name, (r, w, a) in table.items():
        assert 0.0 <= r <= 1.0 and 0.0 <= w <= 1.0 and 0.0 <= a <= 1.0


def test_bench_latency_vs_throughput(model_ports):
    """"Array structures' AVF is usually dominated by ACE latency while
    the AVF of the ports are dominated by the ACE throughput": for the
    occupancy-holding structures, structure AVF exceeds port AVF."""
    ports, results = model_ports
    rows = []
    holds_data = ["rob", "inst_queue", "fetch_buffer", "load_queue"]
    for name in holds_data:
        p = ports[name]
        rows.append([name, p.avf, p.pavf_r, p.avf / max(p.pavf_r, 1e-9)])
    print_table(
        "Latency vs throughput domination",
        ["structure", "AVF (latency)", "pAVF_R (throughput)", "ratio"],
        rows,
    )
    dominated = sum(1 for name in holds_data if ports[name].avf > ports[name].pavf_r)
    assert dominated >= 3


def test_bench_littles_law():
    """AVF ~ mean ACE latency x ACE throughput / entries (Section 4).

    The identity holds at whole-entry granularity, so the check runs with
    bit-field weighting disabled (with it on, Eq 3 weights each segment
    by its ACE bit count while the latency term does not, and the two
    sides differ by exactly the mean ACE-bit fraction).
    """
    from repro.perfmodel.machine import MachineConfig, run_workload

    config = MachineConfig(use_bitfields=False)
    rows = []
    for trace in suite_by_class("specint", count=2, length=4000):
        result = run_workload(trace, config)
        for name in ("rob", "inst_queue"):
            stats = result.structures[name]
            latency = result.lifetimes[name].mean_ace_latency()
            little = latency * stats.ace_throughput() / stats.entries
            rows.append([result.workload, name, stats.avf(), little])
    print_table(
        "Little's-law check: AVF vs latency x throughput / entries",
        ["workload", "structure", "AVF (Eq 3)", "Little's law"],
        rows,
    )
    for _, _, avf, little in rows:
        # Unknown-residency handling makes Eq 3 slightly larger; the two
        # must agree to first order.
        assert little == pytest.approx(avf, rel=0.25, abs=0.02)


def test_bench_bitfield_refinement(model_ports):
    """Bit Field Analysis lowers control-structure pAVFs (Section 5.1)."""
    _, results = model_ports
    rows = []
    drops = []
    for result in results[:6]:
        refined = ports_from_analysis(result.structures)
        for name in ("inst_queue", "rob"):
            plain = result.structures[name].pavf_r()
            drop = 1 - refined[name].pavf_r / max(plain, 1e-12)
            drops.append(drop)
            rows.append([result.workload, name, plain,
                         refined[name].pavf_r, f"{drop:.0%}"])
    print_table(
        "Bit Field Analysis — pAVF_R before/after (control structures)",
        ["workload", "structure", "plain", "bit-field", "reduction"],
        rows,
    )
    assert all(d >= -1e-9 for d in drops)
    assert sum(drops) / len(drops) > 0.05


def test_bench_hamming_refinement(benchmark):
    """HD-1 analysis vs naive all-residency-ACE tag AVF."""
    def run():
        import random

        rng = random.Random(5)
        h = HammingAnalyzer("tlb_tags", entries=16, tag_bits=20)
        residency = 0.0
        inserted_at: dict[int, int] = {}
        tags: dict[int, int] = {}
        cycle = 0
        for _step in range(4000):
            cycle += 1
            if rng.random() < 0.08 or not tags:
                entry = rng.randrange(16)
                if entry in inserted_at:
                    residency += cycle - inserted_at[entry]
                    h.evict(entry, cycle)
                tags[entry] = rng.randrange(1 << 20)
                h.insert(entry, tags[entry], cycle)
                inserted_at[entry] = cycle
            else:
                roll = rng.random()
                if roll < 0.5:
                    query = tags[rng.choice(list(tags))]  # true hit
                elif roll < 0.75:
                    base = tags[rng.choice(list(tags))]   # HD-1 near miss
                    query = base ^ (1 << rng.randrange(20))
                else:
                    query = rng.randrange(1 << 20)        # far miss
                h.lookup(query, cycle, ace=rng.random() < 0.8)
        for entry, start in inserted_at.items():
            residency += cycle - start
            h.evict(entry, cycle)
        return h.finish(cycle), naive_tag_avf(residency, 16, 20, cycle), h.stats()

    refined, naive, stats = benchmark(run)
    print(f"\ntag-array AVF: naive={naive:.4f} HD-1 refined={refined:.4f} "
          f"({stats['lookups']} lookups, {stats['hits']} hits, "
          f"{stats['near_misses']} HD-1 near misses)")
    assert refined < naive
    assert refined > 0.0
