"""Batched multi-workload evaluation of one compiled plan.

The paper's closed-form observation (Section 5.2) is that a new workload
is *just a new environment*: the symbolic annotation sets are workload-
independent, so re-evaluating W workloads shares one monolithic solve.
The per-workload flow still paid an O(nodes) Python resolution pass per
environment (NodeAvf construction plus per-FUB aggregation), which is
what dominates a Figure-8 sweep once the plan is cached.

This module evaluates **all W environments in one matrix pass**:

* :class:`BatchedEvaluator` runs the :class:`~repro.core.compiled.
  SetEvaluator` kernel (:func:`~repro.core.compiled.gather_halve`) with
  one atom-value column per environment — each padded-width bucket
  gathers into a ``(sets, width, W)`` array halved along the middle
  axis. Element-wise IEEE adds keep every column's reduction tree
  identical to the per-environment evaluator's, so values are
  bit-identical per workload by construction.
* :func:`solve_batched` resolves the ``(nodes, W)`` AVF matrix (Table 1
  precedence: MIN / measured-structure / injected-atom) and aggregates
  per-FUB and whole-design averages with masked segment sums, producing
  one :class:`~repro.core.report.DesignReport` per environment.

Without numpy the same API falls back to per-environment
:func:`~repro.core.compiled.resolve_ids` passes — identical results,
no batching speedup.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Sequence

from repro.core.compiled import (
    HAVE_NUMPY,
    _MODE_ATOM,
    _MODE_STRUCT,
    AtomTable,
    SolvePlan,
    resolve_ids,
)
from repro.core.pavf import LOOP, Atom, PavfEnv, SetInterner
from repro.core.report import DesignReport, FubReport, fub_report
from repro.core.resolve import ROLE_CTRL, ROLE_LOOP, ROLE_STRUCT, NodeAvf
from repro.netlist.graph import NodeKind

try:  # pragma: no cover - numpy presence is environment-dependent
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    _np = None

_EMPTY_ID = SetInterner.EMPTY_ID
_TOP_ID = SetInterner.TOP_ID


class BatchedEvaluator:
    """Values of interned sets under W environments at once (numpy only).

    ``matrix(sids)`` returns a ``(len(sids), W)`` float array whose
    column *w* is bit-identical to ``SetEvaluator(interner, envs[w])``
    values for the same ids: both run :func:`~repro.core.compiled.
    gather_halve`, here with one table column per environment. Ids below
    0 evaluate to 1.0, matching the unvisited convention of
    :func:`~repro.core.compiled.resolve_ids`.
    """

    def __init__(self, interner: SetInterner, envs: Sequence[PavfEnv]):
        self.interner = interner
        self.envs = list(envs)
        self.width = len(self.envs)
        self._table = AtomTable(interner, self.envs)
        # One dense row of W values per set id, valid where filled;
        # EMPTY and TOP are seeded like SetEvaluator's.
        self._vals = _np.zeros((len(interner), self.width), dtype=_np.float64)
        self._vals[_TOP_ID] = 1.0
        self._filled = _np.zeros(len(interner), dtype=bool)
        self._filled[[_EMPTY_ID, _TOP_ID]] = True

    def _fill(self, sids) -> None:
        grow = len(self.interner) - len(self._filled)
        if grow > 0:
            self._vals = _np.concatenate(
                (self._vals, _np.zeros((grow, self.width), dtype=_np.float64))
            )
            self._filled = _np.concatenate((self._filled, _np.zeros(grow, dtype=bool)))
        wanted = _np.zeros(len(self._filled), dtype=bool)
        wanted[sids[sids >= 0]] = True
        pending = _np.flatnonzero(wanted & ~self._filled)
        if len(pending):
            self._vals[pending] = self._table.values(pending)
            self._filled[pending] = True

    def matrix(self, sids: Sequence[int]):
        """``(len(sids), W)`` values of set ids *sids*."""
        sids = _np.asarray(sids, dtype=_np.int64)
        self._fill(sids)
        out = self._vals[_np.maximum(sids, 0)]
        out[sids < 0] = 1.0
        return out


@dataclass
class BatchedResult:
    """W-environment evaluation of one plan's monolithic solve."""

    plan: SolvePlan
    envs: list[PavfEnv]
    f_ids: Sequence[int]
    b_ids: Sequence[int]
    reports: list[DesignReport] = field(default_factory=list)

    @property
    def width(self) -> int:
        return len(self.envs)

    def report(self, w: int) -> DesignReport:
        return self.reports[w]

    def node_avfs(self, w: int) -> dict[str, NodeAvf]:
        """Materialize workload *w*'s full per-node resolution.

        This is the per-workload equivalence hook: it runs the exact
        scalar :func:`resolve_ids` path over the shared solve vectors.
        """
        return resolve_ids(self.plan, self.f_ids, self.b_ids, self.envs[w])


# Aggregation masks and index groups are plan-derived and reusable across
# batched calls; keyed weakly so plans stay picklable and collectable.
_META_CACHE: "weakref.WeakKeyDictionary[SolvePlan, _PlanMeta]" = (
    weakref.WeakKeyDictionary()
)


class _PlanMeta:
    """Vectorized resolution/aggregation metadata for one plan."""

    def __init__(self, plan: SolvePlan) -> None:
        n = plan.n
        kind_l, role_l = plan.kind_l, plan.role_l
        self.all_mask = _np.fromiter(
            (k != NodeKind.INPUT and k != NodeKind.CONST for k in kind_l),
            dtype=bool,
            count=n,
        )
        struct_like = _np.fromiter(
            (
                role_l[i] == ROLE_STRUCT or kind_l[i] == NodeKind.MEM_RDATA
                for i in range(n)
            ),
            dtype=bool,
            count=n,
        )
        self.elig_mask = self.all_mask & ~struct_like
        seq = _np.fromiter((k == NodeKind.SEQ for k in kind_l), dtype=bool, count=n)
        self.seq_mask = self.elig_mask & seq
        self.fub_arr = _np.asarray(plan.fub_of, dtype=_np.int64)
        self.forced = _np.frombuffer(bytes(plan.forced_visited), dtype=_np.uint8).astype(
            bool
        )
        mode_arr = _np.fromiter(plan.mode_l, dtype=_np.int8, count=n)
        struct_groups: dict[str, list[int]] = {}
        for nid in _np.flatnonzero(mode_arr == _MODE_STRUCT).tolist():
            struct_groups.setdefault(plan.special_l[nid], []).append(nid)
        self.struct_groups = {
            sname: _np.asarray(nids, dtype=_np.int64)
            for sname, nids in struct_groups.items()
        }
        atom_groups: dict[Atom, list[int]] = {}
        for nid in _np.flatnonzero(mode_arr == _MODE_ATOM).tolist():
            atom_groups.setdefault(plan.special_l[nid], []).append(nid)
        self.atom_groups = {
            atom: _np.asarray(nids, dtype=_np.int64)
            for atom, nids in atom_groups.items()
        }
        n_fubs = plan.n_fubs
        self.node_counts = _np.bincount(
            self.fub_arr[self.elig_mask], minlength=n_fubs
        )
        self.seq_counts = _np.bincount(self.fub_arr[self.seq_mask], minlength=n_fubs)
        # Report rows: FUBs with at least one eligible node, name order.
        self.row_fubs = sorted(
            _np.flatnonzero(self.node_counts > 0).tolist(),
            key=lambda f: plan.fub_names[f],
        )


def _plan_meta(plan: SolvePlan) -> _PlanMeta:
    meta = _META_CACHE.get(plan)
    if meta is None:
        meta = _META_CACHE[plan] = _PlanMeta(plan)
    return meta


def solve_batched(
    plan: SolvePlan,
    envs: Sequence[PavfEnv],
    *,
    dangling: str = "unace",
    use_numpy: bool | None = None,
) -> BatchedResult:
    """Solve once, resolve and aggregate under every environment.

    Equivalent (to 1e-9 and in practice bit-for-bit per node) to running
    ``run_sart`` monolithically per environment against the same plan;
    the annotation sets are shared, the numeric evaluation and the
    Figure-9 aggregation happen as one ``(nodes, W)`` matrix pass.
    """
    envs = list(envs)
    f_ids, b_ids = plan.solve_monolithic(dangling)
    result = BatchedResult(plan=plan, envs=envs, f_ids=f_ids, b_ids=b_ids)
    if not envs:
        return result
    loop_bits = plan.role_l.count(ROLE_LOOP)
    ctrl_bits = plan.role_l.count(ROLE_CTRL)
    batched = HAVE_NUMPY if use_numpy is None else (use_numpy and HAVE_NUMPY)
    if not batched:
        # Pure-Python fallback: identical results, one pass per env.
        for env in envs:
            node_avfs = resolve_ids(plan, f_ids, b_ids, env)
            result.reports.append(
                fub_report(node_avfs, loop_bits=loop_bits, ctrl_bits=ctrl_bits)
            )
        return result

    meta = _plan_meta(plan)
    bev = BatchedEvaluator(plan.interner, envs)
    f_vals = bev.matrix(f_ids)
    b_vals = bev.matrix(b_ids)
    avf = _np.minimum(f_vals, b_vals)
    for sname, nids in meta.struct_groups.items():
        ports = plan.structures.get(sname)
        measured = ports.avf if ports is not None else None
        if measured is not None:
            avf[nids, :] = measured
    atom_vals = bev._table.atom_values(list(meta.atom_groups))
    for i, nids in enumerate(meta.atom_groups.values()):
        avf[nids, :] = atom_vals[i]

    n_fubs = plan.n_fubs
    width = len(envs)
    seq_sums = _np.zeros((n_fubs, width), dtype=_np.float64)
    _np.add.at(seq_sums, meta.fub_arr[meta.seq_mask], avf[meta.seq_mask, :])
    node_sums = _np.zeros((n_fubs, width), dtype=_np.float64)
    _np.add.at(node_sums, meta.fub_arr[meta.elig_mask], avf[meta.elig_mask, :])

    fs = _np.asarray(f_ids, dtype=_np.int64)
    bs = _np.asarray(b_ids, dtype=_np.int64)
    visited = meta.forced | ~(
        ((fs < 0) | (fs == _TOP_ID)) & ((bs < 0) | (bs == _TOP_ID))
    )
    considered = int(meta.all_mask.sum())
    visited_fraction = (
        float(visited[meta.all_mask].sum()) / considered if considered else 1.0
    )

    seq_total = int(meta.seq_counts.sum())
    node_total = int(meta.node_counts.sum())
    fub_names = plan.fub_names
    for w in range(width):
        rows = []
        # Accumulate design totals linearly in sorted-FUB order — the
        # exact summation fub_report performs, so the batched reports
        # reproduce the scalar path bit for bit (np.add.at applied the
        # same per-FUB additions in the same node order).
        seq_weighted = 0.0
        node_weighted = 0.0
        for f in meta.row_fubs:
            sc = int(meta.seq_counts[f])
            nc = int(meta.node_counts[f])
            fub_seq = float(seq_sums[f, w])
            fub_node = float(node_sums[f, w])
            seq_weighted += fub_seq
            node_weighted += fub_node
            rows.append(
                FubReport(
                    fub=fub_names[f],
                    seq_count=sc,
                    seq_avg_avf=fub_seq / sc if sc else 0.0,
                    node_count=nc,
                    node_avg_avf=fub_node / nc if nc else 0.0,
                )
            )
        result.reports.append(
            DesignReport(
                fubs=tuple(rows),
                seq_count=seq_total,
                weighted_seq_avf=seq_weighted / seq_total if seq_total else 0.0,
                node_count=node_total,
                weighted_node_avf=(
                    node_weighted / node_total if node_total else 0.0
                ),
                visited_fraction=visited_fraction,
                loop_bits=loop_bits,
                ctrl_bits=ctrl_bits,
            )
        )
    return result


def sweep_batched(
    plan: SolvePlan,
    values: Sequence[float],
    config=None,
    *,
    use_numpy: bool | None = None,
) -> BatchedResult:
    """Figure-8 loop-pAVF sweep as one batched evaluation.

    Each sweep point's environment is exactly what the per-point path
    binds (``build_env(plan, SartConfig(loop_pavf=value, ...))``),
    so the batched reports match per-point ``run_sart`` results. The
    points differ only in the LOOP kind default, so the structure and
    boundary bindings are made once and each point re-binds that default
    on a copy.
    """
    from repro.core.sart import SartConfig, build_env

    if config is None:
        config = SartConfig()
    base = build_env(plan, config)
    envs = []
    for value in values:
        env = base.copy()
        env.bind_kind(LOOP, value)
        envs.append(env)
    return solve_batched(
        plan, envs, dangling=config.dangling, use_numpy=use_numpy
    )
