"""Compiled propagation core: CSR graph kernel and reusable solve plans.

The dict-based reference solver (:mod:`repro.verify.dataflow`) re-extracts
the dependency structure (indegrees, dependents, topological order) from
string-keyed maps on every solve — once per FUB per relaxation iteration.
This module lowers the annotated model **once** into integer form:

* net names are interned to dense node ids,
* fan-in/fan-out become CSR ``(indptr, indices)`` arrays,
* annotation sets are interned to dense set ids
  (:class:`repro.core.pavf.SetInterner`), each held only as its row of
  atom ids in (kind, name, bit) order, and joined by a memoized union
  kernel that merges rows (:meth:`~repro.core.pavf.SetInterner.union_ids`),
* the forward and backward topological orders are computed once and
  per-FUB schedules are derived from them by bucketing.

The model itself (structure bits, control registers, loop boundaries)
comes from :func:`~repro.core.graphmodel.build_model`, whose loop finder
runs over the same fan-in CSR the plan shares with the graph.

A :class:`SolvePlan` bundles all of that and is reusable across many
:class:`~repro.core.pavf.PavfEnv` bindings: monolithic solves are purely
structural, so their set-id vectors are cached and a new environment (a
Figure 8 sweep point, a ``loop_pavf_per_net`` study) is a re-evaluation,
not a re-solve. Partitioned relaxation re-runs per-FUB kernels against the
cached schedules, in the calling process, re-solving only FUBs whose
imported boundary values changed in the previous merge; its first sweep,
every FUB against TOP boundaries, is structural too and cached the same
way.

Numeric evaluation of interned sets (:class:`SetEvaluator`) is the
index-based kernel shared by resolution, FUBIO merging and the relaxation
trace. With the ``[numpy]`` extra installed it runs :func:`gather_halve`,
which gathers atom values through the interner's sorted atom-id rows and
halves them pairwise (the batched sweep runs the same kernel with one
column per environment); otherwise a pure-Python loop reads the same rows
and sums the same atoms through the same tree, with bit-identical
results.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.errors import SartError
from repro.core.graphmodel import AvfModel, StructurePorts, build_model
from repro.core.pavf import Atom, CTRL, LOOP, PavfEnv, SetInterner
from repro.core.relaxation import RelaxationTrace, WarmStart
from repro.core.resolve import (
    NodeAvf,
    ROLE_CONST,
    ROLE_CTRL,
    ROLE_INPUT,
    ROLE_LOGIC,
    ROLE_LOOP,
    ROLE_MEM,
    ROLE_STRUCT,
)
from repro.netlist.graph import NetGraph, NodeKind, extract_graph
from repro.netlist.netlist import Module

try:  # the [numpy] extra is optional; every kernel has a pure-Python path
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    _np = None

HAVE_NUMPY = _np is not None

# Layout version of the SolvePlans the artifact store pickles, recorded on
# every PlanArtifact. Bump it, and STAGE_VERSIONS["plan"] with it (that is
# what invalidates cached plans), when the SolvePlan fields change.
PLAN_FORMAT = 6  # v6: interner rows only; v5: no structural knobs

_EMPTY_ID = SetInterner.EMPTY_ID
_TOP_ID = SetInterner.TOP_ID

# avf-source modes per node, fixed at plan build time (resolve precedence).
_MODE_MIN = 0      # AVF = MIN(forward, backward)
_MODE_STRUCT = 1   # measured structure AVF when available, else MIN
_MODE_ATOM = 2     # injected atom value (loop boundaries, control regs)

# Gathered values per step of gather_halve: bounds its temporaries.
_GATHER_CHUNK = 1 << 18


def gather_halve(interner: SetInterner, sids, table):
    """Capped tree sums of sets *sids* under the columns of *table*.

    *sids* is an int64 array of set ids; *table* is an ``(atoms + 1, W)``
    float array of atom values whose last row is zeros. Sets are grouped
    by padded width (their size, rounded up to a power of two); each
    group gathers its atom values through the row columns into an
    ``(n, width, W)`` array, zero-padded by pointing the spare slots at
    the last table row, and halves it pairwise down to one value per set
    and column. A group is walked in steps of about ``_GATHER_CHUNK``
    gathered values, so the temporary arrays stay bounded whatever the
    batch. Returns ``(len(sids), W)`` values capped at 1.0.
    """
    n_env = table.shape[1]
    out = _np.empty((len(sids), n_env), dtype=_np.float64)
    zero = len(table) - 1
    # Views of the row columns live only inside this call: an ``array``
    # that exports its buffer cannot grow.
    starts = _np.frombuffer(interner.row_start, dtype=_np.int64)[sids]
    lens = _np.frombuffer(interner.row_len, dtype=_np.int32)[sids]
    flat = _np.frombuffer(interner.row_ids, dtype=_np.int32)
    last = len(flat) - 1
    # log2 of the padded width; frexp is exact on these small integers.
    exps = _np.frexp(_np.maximum(lens, 1) - 1)[1]
    for exp in _np.flatnonzero(_np.bincount(exps)).tolist():
        group = _np.flatnonzero(exps == exp)
        cols = _np.arange(1 << exp, dtype=_np.int64)
        step = max(1, _GATHER_CHUNK // (n_env << exp))
        for at in range(0, len(group), step):
            rows = group[at:at + step]
            gather = flat[_np.minimum(starts[rows, None] + cols, last)]
            gather[cols >= lens[rows, None]] = zero
            level = table[gather]
            while level.shape[1] > 1:
                level = level[:, 0::2] + level[:, 1::2]
            out[rows] = _np.minimum(level[:, 0], 1.0)
    return out


class AtomTable:
    """Atom values of W environments, laid out for :func:`gather_halve`.

    Row *i* holds the values of ``interner.atoms[i]`` under each
    environment; the last row is the zero pad. Rows are looked up once
    per distinct atom and appended as the interner's atom table grows.
    """

    def __init__(self, interner: SetInterner, envs: Sequence[PavfEnv]):
        self.interner = interner
        self.envs = list(envs)
        self.table = _np.zeros((1, len(self.envs)), dtype=_np.float64)

    def _sync(self):
        have = len(self.table) - 1
        fresh = self.interner.atoms[have:]
        if fresh:
            new = _np.array(
                [list(map(env.lookup, fresh)) for env in self.envs],
                dtype=_np.float64,
            ).reshape(len(self.envs), len(fresh))
            self.table = _np.concatenate((self.table[:have], new.T, self.table[have:]))
        return self.table

    def values(self, sids):
        """``(len(sids), W)`` values of set ids *sids* (all >= 0)."""
        return gather_halve(self.interner, sids, self._sync())

    def atom_values(self, atoms: Sequence[Atom]):
        """``(len(atoms), W)`` values of *atoms* themselves."""
        ids = [self.interner.atom_id(atom) for atom in atoms]
        return self._sync()[_np.asarray(ids, dtype=_np.int64)]


class SetEvaluator:
    """Numeric values of interned pAVF sets under one environment.

    Values are cached per set id, so the cost of an environment is one
    capped sum per *distinct* set rather than per node per use.

    Both code paths reduce a set's sorted atom values through the same
    balanced binary tree (pairwise halving, zero-padded to a power of
    two). Element-wise IEEE additions are exact and ``x + 0.0 == x`` for
    the non-negative values involved, so the tree's rounding is fully
    determined by its shape — the vectorized numpy path
    (:func:`gather_halve` with one environment column) and the
    pure-Python fallback are bit-identical by construction, and a value
    never depends on how ``fill`` batches were formed. (A left-to-right
    ``reduceat`` sum would NOT be reproducible: numpy's reductions use
    SIMD partial accumulators with version-dependent rounding order.)
    """

    def __init__(
        self, interner: SetInterner, env: PavfEnv, *, use_numpy: bool | None = None
    ):
        self.interner = interner
        self.env = env
        self.use_numpy = HAVE_NUMPY if use_numpy is None else (use_numpy and HAVE_NUMPY)
        self._vals: list[float | None] = [0.0, 1.0]  # EMPTY, TOP
        self._atom_vals: list[float] = []  # by atom id, synced on demand
        self._table = AtomTable(interner, (env,)) if self.use_numpy else None

    def value(self, sid: int) -> float:
        """Capped tree-sum value of set *sid* (cached)."""
        vals = self._vals
        if sid >= len(vals):
            vals.extend([None] * (len(self.interner) - len(vals)))
        val = vals[sid]
        if val is None:
            interner, atom_vals = self.interner, self._atom_vals
            if len(atom_vals) < len(interner.atoms):
                atom_vals.extend(map(self.env.lookup, interner.atoms[len(atom_vals):]))
            lo = interner.row_start[sid]
            level = list(map(atom_vals.__getitem__,
                             interner.row_ids[lo:lo + interner.row_len[sid]]))
            k = len(level)
            if k & (k - 1):  # pad to the next power of two with exact zeros
                level.extend([0.0] * ((1 << k.bit_length()) - k))
                k = len(level)
            while k > 1:
                level = [level[i] + level[i + 1] for i in range(0, k, 2)]
                k >>= 1
            val = level[0]
            if val > 1.0:
                val = 1.0
            vals[sid] = val
        return val

    def fill(self, sids: Iterable[int]) -> None:
        """Precompute values for *sids* in one batch (numpy when available)."""
        vals = self._vals
        if len(vals) < len(self.interner):
            vals.extend([None] * (len(self.interner) - len(vals)))
        pending = sorted({s for s in sids if s >= 0 and vals[s] is None})
        if not pending:
            return
        if not self.use_numpy:
            for sid in pending:
                self.value(sid)
            return
        got = self._table.values(_np.asarray(pending, dtype=_np.int64))
        for sid, val in zip(pending, got[:, 0].tolist()):
            vals[sid] = val


class SolvePlan:
    """One-time lowering of a design for many propagation solves.

    Build with :meth:`build` (or :func:`repro.core.sart.build_plan`), then
    pass to ``run_sart(plan=plan)`` any number of times. Everything
    that does not depend on the numeric environment — graph extraction,
    loop breaking, control-register detection, FUB partitioning, topo
    order, and the monolithic annotation sets themselves — is computed
    once and reused.
    """

    def __init__(self) -> None:
        self.graph: NetGraph
        self.model: AvfModel
        self.interner = SetInterner()
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.n = 0
        # CSR connectivity.
        self.fanin_ptr: list[int] = [0]
        self.fanin_ix: list[int] = []
        self.fanout_ptr: list[int] = [0]
        self.fanout_ix: list[int] = []
        # Per-node fixed roles as set ids (-1 = not fixed).
        self.fwd_fixed: list[int] = []
        self.through: list[int] = []
        self.sink: list[int] = []
        # Global topological orders and per-FUB schedules.
        self.forder: list[int] = []
        self.border: list[int] = []
        self.fub_names: list[str] = []
        self.fub_of: list[int] = []
        self.fub_forder: list[list[int]] = []
        self.fub_border: list[list[int]] = []
        # FUBIO interconnect: export net ids and the FUBs importing them.
        self.f_exports: list[int] = []
        self.b_exports: list[int] = []
        self.f_importers: dict[int, tuple[int, ...]] = {}
        self.b_importers: dict[int, tuple[int, ...]] = {}
        # Non-structure sequential node ids per FUB (relaxation trace).
        self.fub_seq: list[list[int]] = []
        # Resolution metadata.
        self.kind_l: list[str] = []
        self.fub_l: list[str] = []
        self.role_l: list[str] = []
        self.mode_l: list[int] = []
        self.special_l: list[object] = []  # struct name | injected Atom | None
        # Caches (dropped when the plan is pickled into the artifact store).
        self._union_memo: dict[tuple[int, ...], int] = {}
        self._mono_cache: dict[str, tuple[list[int], list[int]]] = {}
        self._sweep_cache: dict[str, tuple[list[int], list[int]]] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        design: Module | NetGraph,
        structures: Mapping[str, StructurePorts] | None = None,
    ) -> "SolvePlan":
        plan = cls()
        graph = design if isinstance(design, NetGraph) else extract_graph(design)
        plan.graph = graph

        plan._lower_connectivity()
        plan.model = build_model(graph, structures)
        plan._lower_model()
        plan._build_orders()
        plan._build_partition_arrays()
        plan._build_resolution_metadata()
        return plan

    def _lower_connectivity(self) -> None:
        # The plan shares the graph's interned names and fan-in CSR.
        graph = self.graph
        self.names, self.ids = graph.names, graph.ids
        self.fanin_ptr = fanin_ptr = graph.fanin_ptr
        self.fanin_ix = fanin_ix = graph.fanin_ix
        self.n = n = len(graph)
        outdeg = [0] * n
        for sid in fanin_ix:
            outdeg[sid] += 1
        fanout_ptr = self.fanout_ptr
        total = 0
        for d in outdeg:
            total += d
            fanout_ptr.append(total)
        fanout_ix = self.fanout_ix = [0] * total
        cursor = fanout_ptr[:-1].copy()
        for nid in range(n):
            for i in range(fanin_ptr[nid], fanin_ptr[nid + 1]):
                src = fanin_ix[i]
                fanout_ix[cursor[src]] = nid
                cursor[src] += 1

    def _lower_model(self) -> None:
        model, ids, n = self.model, self.ids, self.n
        # Every solve set is a union of these fixed sets, so ranking
        # their atoms once makes every row an integer sort.
        fixed = (model.forward_fixed, model.contrib_through, model.static_sinks)
        self.interner.rank(
            frozenset().union(*(atoms for table in fixed for atoms in table.values()))
        )
        intern = self.interner.id_of
        fwd_fixed = self.fwd_fixed = [-1] * n
        for net, atoms in model.forward_fixed.items():
            fwd_fixed[ids[net]] = intern(atoms)
        through = self.through = [-1] * n
        for net, atoms in model.contrib_through.items():
            through[ids[net]] = intern(atoms)
        sink = self.sink = [-1] * n
        for net, atoms in model.static_sinks.items():
            sink[ids[net]] = intern(atoms)

    def _build_orders(self) -> None:
        n = self.n
        # Forward: fixed nodes both depend on nothing and are not deps.
        # Backward: through-fixed nodes are not deps (their contribution is
        # the fixed set) but their OWN value still comes from consumers.
        self.forder = self._kahn(
            self.fanin_ptr,
            self.fanin_ix,
            self.fanout_ptr,
            self.fanout_ix,
            self.fwd_fixed,
            self.fwd_fixed,
            "forward",
        )
        self.border = self._kahn(
            self.fanout_ptr,
            self.fanout_ix,
            self.fanin_ptr,
            self.fanin_ix,
            self.through,
            None,
            "backward",
        )
        # FUB index per node; schedules are the global orders bucketed by
        # FUB (a topological order of a subgraph is any subsequence of a
        # topological order of the full graph).
        fub_ix: dict[str, int] = {}
        fub_of = self.fub_of = [0] * n
        fub_l = self.fub_l = self.graph.fubs
        for nid, fub in enumerate(fub_l):
            ix = fub_ix.get(fub)
            if ix is None:
                ix = fub_ix[fub] = len(fub_ix)
            fub_of[nid] = ix
        self.fub_names = list(fub_ix)
        n_fubs = len(fub_ix)
        self.fub_forder = [[] for _ in range(n_fubs)]
        for nid in self.forder:
            self.fub_forder[fub_of[nid]].append(nid)
        self.fub_border = [[] for _ in range(n_fubs)]
        for nid in self.border:
            self.fub_border[fub_of[nid]].append(nid)

    def _kahn(
        self,
        dep_ptr: list[int],
        dep_ix: list[int],
        rev_ptr: list[int],
        rev_ix: list[int],
        dep_fixed: list[int],
        self_fixed: list[int] | None,
        label: str,
    ) -> list[int]:
        """Topological order over the ``dep`` CSR; *dep_fixed* nodes don't
        count as dependencies, *self_fixed* nodes additionally have no
        dependencies of their own. ``rev`` is the transposed CSR, walked
        when a finished node releases its dependents (no adjacency lists
        are materialized)."""
        n = self.n
        indeg = [0] * n
        for nid in range(n):
            if self_fixed is not None and self_fixed[nid] >= 0:
                continue
            count = 0
            for i in range(dep_ptr[nid], dep_ptr[nid + 1]):
                if dep_fixed[dep_ix[i]] < 0:
                    count += 1
            indeg[nid] = count
        ready = [nid for nid in range(n) if indeg[nid] == 0]
        order: list[int] = []
        while ready:
            nid = ready.pop()
            order.append(nid)
            if dep_fixed[nid] >= 0:
                continue  # dependents never counted this node
            for i in range(rev_ptr[nid], rev_ptr[nid + 1]):
                dep = rev_ix[i]
                if self_fixed is not None and self_fixed[dep] >= 0:
                    continue
                indeg[dep] -= 1
                if indeg[dep] == 0:
                    ready.append(dep)
        if len(order) != n:
            stuck = [self.names[i] for i in range(n) if indeg[i] > 0][:8]
            raise SartError(f"{label} solve: cyclic dependencies remain at {stuck}")
        return order

    def _build_partition_arrays(self) -> None:
        fanin_ptr, fanin_ix = self.fanin_ptr, self.fanin_ix
        fub_of = self.fub_of
        fwd_fixed, through = self.fwd_fixed, self.through
        f_imp: dict[int, set[int]] = {}
        b_imp: dict[int, set[int]] = {}
        f_exports: set[int] = set()
        b_exports: set[int] = set()
        for nid in range(self.n):
            f = fub_of[nid]
            for i in range(fanin_ptr[nid], fanin_ptr[nid + 1]):
                d = fanin_ix[i]
                if fub_of[d] == f:
                    continue
                f_exports.add(d)
                b_exports.add(nid)
                # Importers are FUBs that actually read the boundary entry:
                # fixed drivers / fixed-through consumers are read from
                # their fixed sets instead, so changes there dirty nobody.
                if fwd_fixed[d] < 0:
                    f_imp.setdefault(d, set()).add(f)
                if through[nid] < 0:
                    b_imp.setdefault(nid, set()).add(fub_of[d])
        self.f_exports = sorted(f_exports)
        self.b_exports = sorted(b_exports)
        self.f_importers = {nid: tuple(sorted(s)) for nid, s in f_imp.items()}
        self.b_importers = {nid: tuple(sorted(s)) for nid, s in b_imp.items()}

        struct_ids = {self.ids[net] for net in self.model.struct_nodes}
        self.fub_seq = [[] for _ in self.fub_names]
        kinds = self.graph.kinds
        for nid in range(self.n):
            if kinds[nid] == NodeKind.SEQ and nid not in struct_ids:
                self.fub_seq[fub_of[nid]].append(nid)

    def _build_resolution_metadata(self) -> None:
        model, names = self.model, self.names
        kind_l = self.kind_l = self.graph.kinds
        role_l = self.role_l = [ROLE_LOGIC] * self.n
        mode_l = self.mode_l = [_MODE_MIN] * self.n
        special_l = self.special_l = [None] * self.n
        # visited is forced True for struct/loop/ctrl/mem nodes.
        self.forced_visited = forced = bytearray(self.n)
        for nid, net in enumerate(names):
            kind = kind_l[nid]
            if net in model.struct_nodes:
                role_l[nid] = ROLE_STRUCT
                mode_l[nid] = _MODE_STRUCT
                special_l[nid] = model.struct_nodes[net][0]
                forced[nid] = 1
            elif net in model.loop_nets:
                role_l[nid] = ROLE_LOOP
                mode_l[nid] = _MODE_ATOM
                special_l[nid] = Atom(LOOP, net)
                forced[nid] = 1
            elif net in model.ctrl_nets:
                role_l[nid] = ROLE_CTRL
                mode_l[nid] = _MODE_ATOM
                special_l[nid] = Atom(CTRL, net)
                forced[nid] = 1
            elif kind == NodeKind.CONST:
                role_l[nid] = ROLE_CONST
            elif kind == NodeKind.INPUT:
                role_l[nid] = ROLE_INPUT
            elif kind == NodeKind.MEM_RDATA:
                role_l[nid] = ROLE_MEM
                forced[nid] = 1

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    @property
    def n_fubs(self) -> int:
        return len(self.fub_names)

    def __getstate__(self):
        state = self.__dict__.copy()
        # A pickled plan (the artifact store's copy) rebuilds its memo and
        # solve caches on demand; only the interner table itself must
        # travel, because the fixed set ids reference it. The first-sweep
        # cache is left out, so the pickle keeps the format-6 fields.
        state["_union_memo"] = {}
        state["_mono_cache"] = {}
        del state["_sweep_cache"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._sweep_cache = {}

    # ------------------------------------------------------------------
    # kernels
    # ------------------------------------------------------------------
    def _forward_pass(
        self,
        order: list[int],
        this_fub: int | None,
        f_bnd: list[int] | None,
        out: list[int],
    ) -> None:
        """Forward fixpoint over *order* (one pass == the fixpoint).

        ``this_fub is None`` solves monolithically; otherwise fan-in nets
        in other FUBs read the *f_bnd* boundary vector (paper Eq 7 FUBIO).
        """
        fanin_ptr, fanin_ix = self.fanin_ptr, self.fanin_ix
        fixed, fub_of = self.fwd_fixed, self.fub_of
        union_ids = self.interner.union_ids
        memo = self._union_memo
        for nid in order:
            sid = fixed[nid]
            if sid >= 0:
                out[nid] = sid
                continue
            lo, hi = fanin_ptr[nid], fanin_ptr[nid + 1]
            if lo == hi:
                out[nid] = _EMPTY_ID
                continue
            if hi - lo == 1:
                d = fanin_ix[lo]
                ds = fixed[d]
                if ds < 0:
                    if this_fub is not None and fub_of[d] != this_fub:
                        ds = f_bnd[d]
                    else:
                        ds = out[d]
                out[nid] = ds
                continue
            key_list = []
            for i in range(lo, hi):
                d = fanin_ix[i]
                ds = fixed[d]
                if ds < 0:
                    if this_fub is not None and fub_of[d] != this_fub:
                        ds = f_bnd[d]
                    else:
                        ds = out[d]
                key_list.append(ds)
            key = tuple(key_list)
            sid = memo.get(key)
            if sid is None:
                sid = memo[key] = union_ids(key)
            out[nid] = sid

    def _backward_pass(
        self,
        order: list[int],
        this_fub: int | None,
        b_bnd: list[int] | None,
        out: list[int],
        dangling: str,
    ) -> None:
        """Backward fixpoint over *order* (consumers pass annotations up)."""
        fanout_ptr, fanout_ix = self.fanout_ptr, self.fanout_ix
        through, fub_of, sink = self.through, self.fub_of, self.sink
        union_ids = self.interner.union_ids
        memo = self._union_memo
        dangling_id = _EMPTY_ID if dangling == "unace" else _TOP_ID
        for nid in order:
            lo, hi = fanout_ptr[nid], fanout_ptr[nid + 1]
            sk = sink[nid]
            if lo == hi and sk < 0:
                out[nid] = dangling_id
                continue
            if hi - lo == 1 and sk < 0:
                c = fanout_ix[lo]
                cs = through[c]
                if cs < 0:
                    if this_fub is not None and fub_of[c] != this_fub:
                        cs = b_bnd[c]
                    else:
                        cs = out[c]
                out[nid] = cs
                continue
            if lo == hi:  # sink only
                out[nid] = sk
                continue
            key_list = []
            for i in range(lo, hi):
                c = fanout_ix[i]
                cs = through[c]
                if cs < 0:
                    if this_fub is not None and fub_of[c] != this_fub:
                        cs = b_bnd[c]
                    else:
                        cs = out[c]
                key_list.append(cs)
            if sk >= 0:
                key_list.append(sk)
            key = tuple(key_list)
            sid = memo.get(key)
            if sid is None:
                sid = memo[key] = union_ids(key)
            out[nid] = sid

    def solve_monolithic(
        self, dangling: str = "unace"
    ) -> tuple[list[int], list[int]]:
        """Whole-graph solve; cached — the sets are environment-free.

        This cache is what turns the Figure 8 sweep into re-evaluations:
        every sweep point shares these exact annotation vectors and only
        re-binds atom values.
        """
        cached = self._mono_cache.get(dangling)
        if cached is None:
            f_out = [-1] * self.n
            self._forward_pass(self.forder, None, None, f_out)
            b_out = [-1] * self.n
            self._backward_pass(self.border, None, None, b_out, dangling)
            cached = self._mono_cache[dangling] = (f_out, b_out)
        return cached

    def cold_sweep(
        self, dangling: str = "unace"
    ) -> tuple[list[int], list[int]]:
        """A cold relaxation's first sweep; cached, never to be mutated.

        Every FUB solves against TOP boundaries, so the sweep's set ids
        depend on the plan and *dangling* alone, like the monolithic
        sets; only the merge that follows reads the environment.
        """
        cached = self._sweep_cache.get(dangling)
        if cached is None:
            top = [_TOP_ID] * self.n
            f_out = [-1] * self.n
            b_out = [-1] * self.n
            for f in range(self.n_fubs):
                self._forward_pass(self.fub_forder[f], f, top, f_out)
                self._backward_pass(self.fub_border[f], f, top, b_out, dangling)
            cached = self._sweep_cache[dangling] = (f_out, b_out)
        return cached


# ----------------------------------------------------------------------
# partitioned relaxation (paper Section 5.2) on the compiled kernels
# ----------------------------------------------------------------------

def relax_compiled(
    plan: SolvePlan,
    env: PavfEnv,
    *,
    evaluator: SetEvaluator | None = None,
    iterations: int = 20,
    tol: float = 1e-9,
    dangling: str = "unace",
    warm_start: WarmStart | None = None,
) -> tuple[list[int], list[int], list[int], list[int], RelaxationTrace]:
    """Jacobi relaxation across FUB partitions on the compiled kernels.

    Matches the dict-based reference :func:`repro.verify.dataflow.relax`
    iteration for iteration (same merges, same trace, same convergence
    decision), except that a FUB is re-solved only when one of the
    boundary values it imports changed in the previous merge: an
    unchanged-input re-solve would reproduce its previous sets verbatim.
    A cold run's first sweep comes from :meth:`SolvePlan.cold_sweep`,
    computed once per plan.

    *warm_start* switches the relaxation to ECO mode: FUBIO boundary
    entries are pre-seeded from a baseline's converged solution
    (:class:`~repro.core.relaxation.WarmStart`) and the initial re-solve
    set shrinks from every FUB to ``warm_start.dirty_fubs``. The seeds
    are the *baseline's* fixpoint, which an edit may have moved in
    either direction, so the merge accepts any boundary whose *value*
    changed — increases included — while still rejecting equal-value
    set churn, exactly as the cold MIN merge keeps the first set to
    reach a value. The re-solve front then expands along the edit's
    actual value influence and the run converges when values quiesce,
    on the same ``tol`` a cold run uses.

    Returns the forward and backward node set ids, the converged FUBIO
    tables as set-id vectors (TOP off ``plan.f_exports`` /
    ``plan.b_exports``) and the trace. Later warm starts need the tables
    verbatim: a boundary entry may hold an older set than the owner's
    final output at the same value (the MIN merge keeps the first set to
    reach a value), and replaying that tie history is what keeps warm
    re-solves bit-identical.
    """
    ev = evaluator or SetEvaluator(plan.interner, env)
    n, n_fubs = plan.n, plan.n_fubs
    f_bnd = [_TOP_ID] * n
    b_bnd = [_TOP_ID] * n
    trace = RelaxationTrace()
    warm = warm_start is not None
    if warm:
        f_out = [-1] * n
        b_out = [-1] * n
        dirty = _apply_warm_start(plan, warm_start, f_bnd, b_bnd)
        trace.warm = True
        trace.dirty_fubs = len(dirty)
        trace.warm_fubs = n_fubs - len(dirty)
    else:
        # The first sweep solves every FUB, and the plan has it cached.
        f_out, b_out = map(list, plan.cold_sweep(dangling))
        dirty = list(range(n_fubs))
    resolved: set[int] = set()

    for iteration in range(iterations):
        resolved.update(dirty)
        if warm or iteration:  # a cold first sweep is already in the outputs
            for f in dirty:
                plan._forward_pass(plan.fub_forder[f], f, f_bnd, f_out)
                plan._backward_pass(plan.fub_border[f], f, b_bnd, b_out, dangling)

        # FUBIO merge, marking the importers of every changed entry
        # dirty for the next iteration. Cold runs apply the MIN rule
        # (values only descend from TOP); warm runs accept any value
        # *change* — seeds are a stale fixpoint, not a lower bound —
        # but both keep the old set on equal-value ties, so the tie
        # history matches a cold run. A cold boundary entry only ever
        # leaves TOP on a strict value decrease, so any cold entry at
        # the TOP value *is* TOP; a warm increase that saturates must
        # therefore store TOP itself, not the computed set, to land on
        # the same representation.
        delta = 0.0
        next_dirty: set[int] = set()
        value = ev.value
        top_val = value(_TOP_ID)
        for nid in plan.f_exports:
            new = f_out[nid]
            old = f_bnd[nid]
            if new == old or new < 0:
                continue
            new_val, old_val = value(new), value(old)
            if new_val < old_val or (warm and new_val > old_val):
                f_bnd[nid] = _TOP_ID if new_val >= top_val else new
                next_dirty.update(plan.f_importers.get(nid, ()))
                if abs(old_val - new_val) > delta:
                    delta = abs(old_val - new_val)
        for nid in plan.b_exports:
            new = b_out[nid]
            old = b_bnd[nid]
            if new == old or new < 0:
                continue
            new_val, old_val = value(new), value(old)
            if new_val < old_val or (warm and new_val > old_val):
                b_bnd[nid] = _TOP_ID if new_val >= top_val else new
                next_dirty.update(plan.b_importers.get(nid, ()))
                if abs(old_val - new_val) > delta:
                    delta = abs(old_val - new_val)

        trace.iterations = iteration + 1
        trace.max_delta.append(delta)
        _record_fub_averages_compiled(
            plan, f_out, b_out, ev, trace, dirty, repeat=not warm)
        if delta <= tol:
            trace.converged = True
            break
        dirty = sorted(next_dirty)
    trace.resolved_fubs = len(resolved)
    trace.resolved_fub_ids = tuple(sorted(resolved))
    return f_out, b_out, f_bnd, b_bnd, trace


def _apply_warm_start(
    plan: SolvePlan,
    warm: WarmStart,
    f_bnd: list[int],
    b_bnd: list[int],
) -> list[int]:
    """Seed the FUBIO boundaries from *warm*; return the initial dirty list.

    Seeds are name-keyed (plan node ids do not survive a rebuild): each
    export of this plan takes the baseline's entry for its name, whose
    atoms are interned here; an export the baseline lacks belongs to a
    dirty FUB and is solved before any merge reads it.
    Node outputs stay unseeded (-1): the merge skips entries whose owner
    never re-solved — an unsolved owner's exports cannot have changed —
    and the final result reuses the baseline's outputs for untouched
    FUBs, so interning every node set would be pure overhead on the path
    whose whole point is to skip O(n) work.
    """
    base, carried = warm.baseline, {}
    base.f_boundary.copy_into(plan, plan.f_exports, f_bnd, carried)
    base.b_boundary.copy_into(plan, plan.b_exports, b_bnd, carried)
    return [f for f, fub in enumerate(plan.fub_names) if fub in warm.dirty_fubs]


def _record_fub_averages_compiled(
    plan: SolvePlan,
    f_out: list[int],
    b_out: list[int],
    ev: SetEvaluator,
    trace: RelaxationTrace,
    fubs: list[int],
    *,
    repeat: bool,
) -> None:
    """Record the average AVF of each FUB in *fubs*, those solved this
    iteration.

    With *repeat* (a cold run) every other FUB repeats its last average:
    its outputs have not changed since. A warm run records *fubs* only:
    untouched FUBs' node outputs are intentionally unseeded there, and
    their converged averages are the baseline's anyway.
    """
    ev.fill(
        [t[nid] for t in (f_out, b_out) for f in fubs for nid in plan.fub_seq[f]]
    )
    vals = ev._vals
    solved = set(fubs)
    for f, fub in enumerate(plan.fub_names):
        if f not in solved:
            if repeat:
                history = trace.fub_avg[fub]
                history.append(history[-1])
            continue
        seq = plan.fub_seq[f]
        if seq:
            total = 0.0
            for nid in seq:
                f_sid, b_sid = f_out[nid], b_out[nid]
                f_val = vals[f_sid] if f_sid >= 0 else 1.0
                b_val = vals[b_sid] if b_sid >= 0 else 1.0
                total += f_val if f_val < b_val else b_val
            avg = total / len(seq)
        else:
            avg = 0.0
        trace.fub_avg.setdefault(fub, []).append(avg)


# ----------------------------------------------------------------------
# resolution (paper Table 1) on set-id vectors
# ----------------------------------------------------------------------

def resolve_ids(
    plan: SolvePlan,
    f_sid: Sequence[int],
    b_sid: Sequence[int],
    env: PavfEnv,
    *,
    evaluator: SetEvaluator | None = None,
    only: Sequence[int] | None = None,
    structures: Mapping[str, StructurePorts] | None = None,
) -> dict[str, NodeAvf]:
    """Final per-node AVFs of a solve's set-id vectors (paper Table 1).

    Structure bits keep their measured AVF from *structures* (the plan's
    table by default), injected nodes their value, the rest get the MIN.

    *only* restricts resolution to those node ids — the incremental
    (ECO) path resolves just the re-solved FUBs' nodes and reuses the
    baseline's resolution for the rest.
    """
    ev = evaluator or SetEvaluator(plan.interner, env)
    if only is None:
        ev.fill(f_sid)
        ev.fill(b_sid)
    else:
        ev.fill([t[nid] for t in (f_sid, b_sid) for nid in only])
    if structures is None:
        structures = plan.model.structures
    vals = ev._vals
    names, kind_l, fub_l = plan.names, plan.kind_l, plan.fub_l
    role_l, mode_l, special_l = plan.role_l, plan.mode_l, plan.special_l
    forced = plan.forced_visited
    lookup = env.lookup
    node_avf = NodeAvf
    out: dict[str, NodeAvf] = {}
    node_ids = range(plan.n) if only is None else only
    for nid in node_ids:
        net = names[nid]
        fs, bs = f_sid[nid], b_sid[nid]
        f_val = vals[fs] if fs >= 0 else 1.0
        b_val = vals[bs] if bs >= 0 else 1.0
        low = f_val if f_val < b_val else b_val
        mode = mode_l[nid]
        if mode == _MODE_MIN:
            avf = low
        elif mode == _MODE_STRUCT:
            ports = structures.get(special_l[nid])
            measured = ports.avf if ports is not None else None
            avf = measured if measured is not None else low
        else:  # _MODE_ATOM: injected loop/ctrl value
            avf = lookup(special_l[nid])
        # Unions absorb TOP, so a set contains TOP iff it *is* TOP_SET.
        visited = bool(forced[nid]) or not (
            (fs < 0 or fs == _TOP_ID) and (bs < 0 or bs == _TOP_ID)
        )
        out[net] = node_avf(
            net, kind_l[nid], fub_l[nid], role_l[nid], avf, f_val, b_val, visited
        )
    return out
