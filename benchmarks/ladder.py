"""One rung of the systolic scale ladder, in a process of its own.

Run from the root of a checkout::

    PYTHONPATH=src python benchmarks/ladder.py 24

Streams a ``side × side`` systolic array to EXLIF, then times each phase
of the monolithic path on it:

* ``parse`` — read the file back through ``exlif:`` into the columnar graph,
* ``plan`` — lower one :class:`~repro.core.compiled.SolvePlan`,
* ``solve`` — the monolithic forward and backward fixpoints,
* ``resolve_report`` — ``run_sart`` on the solved plan (resolution and
  the per-FUB report),
* ``sweep`` — a 4-point batched loop-pAVF sweep.

Two of the sweep's points are checked against per-point ``run_sart``.
The last line printed is one JSON record: the phase seconds, solve
nodes/s, the interner's set-storage bytes after the solve, and the
process's peak RSS (``ru_maxrss``, which is Linux's VmHWM) after the
solve and at the end. A rung gets a fresh process so that each peak is
its own.
"""

from __future__ import annotations

import json
import resource
import sys
import tempfile
import time
from pathlib import Path

from repro.core.batched import sweep_batched
from repro.core.compiled import HAVE_NUMPY
from repro.core.sart import SartConfig, build_plan, run_sart
from repro.designs.bigcore.systolic import SystolicConfig, node_count, write_systolic_exlif
from repro.pipeline.registry import resolve_design

SWEEP = (0.0, 0.25, 0.5, 1.0)
CHECKED = (0, 3)  # sweep points re-run one at a time


def _vmhwm_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_rung(side: int, workdir: Path) -> dict:
    config = SystolicConfig(rows=side, cols=side)
    nodes = node_count(config)
    path = workdir / f"systolic{side}.exlif"
    record: dict = {"side": side, "nodes": nodes, "numpy": HAVE_NUMPY}

    def timed(phase, fn):
        started = time.perf_counter()
        out = fn()
        record[f"{phase}_seconds"] = round(time.perf_counter() - started, 3)
        return out

    timed("write", lambda: write_systolic_exlif(config, path))
    graph = timed("parse", lambda: resolve_design(f"exlif:{path}").build().graph)
    assert len(graph) == nodes
    plan = timed("plan", lambda: build_plan(graph))
    base = SartConfig(partition_by_fub=False)
    timed("solve", lambda: plan.solve_monolithic(base.dangling))
    record["solve_nodes_per_second"] = round(nodes / record["solve_seconds"])
    record["sets"] = len(plan.interner)
    record["atom_entries"] = len(plan.interner.row_ids)
    record["set_storage_bytes"] = plan.interner.nbytes()
    record["vmhwm_after_solve_mb"] = round(_vmhwm_mb(), 1)
    timed("resolve_report", lambda: run_sart(plan=plan, config=base))
    batch = timed("sweep", lambda: sweep_batched(plan, SWEEP, base))
    record["vmhwm_end_mb"] = round(_vmhwm_mb(), 1)

    # Not timed: the sweep's points equal the per-point flow.
    delta = 0.0
    for w in CHECKED:
        point = run_sart(plan=plan, config=SartConfig(partition_by_fub=False,
                                                      loop_pavf=SWEEP[w]))
        rows_a = {r.fub: r.seq_avg_avf for r in point.report.fubs}
        rows_b = {r.fub: r.seq_avg_avf for r in batch.report(w).fubs}
        assert rows_a.keys() == rows_b.keys()
        delta = max(delta, *(abs(rows_a[f] - rows_b[f]) for f in rows_a))
    assert delta <= 1e-9, delta
    record["max_fub_delta"] = delta
    return record


def main(argv: list[str]) -> int:
    side = int(argv[0])
    with tempfile.TemporaryDirectory() as workdir:
        record = run_rung(side, Path(workdir))
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
