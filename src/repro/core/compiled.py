"""Compiled propagation core: CSR graph kernel and reusable solve plans.

The dict-based reference solver (:mod:`repro.verify.dataflow`) re-extracts
the dependency structure (indegrees, dependents, topological order) from
string-keyed maps on every solve — once per FUB per relaxation iteration.
This module lowers a design **once** into integer form:

* net names are interned to dense node ids,
* fan-in/fan-out become CSR ``(indptr, indices)`` arrays,
* annotation sets are interned to dense set ids
  (:class:`repro.core.pavf.SetInterner`), each held only as its row of
  atom ids in (kind, name, bit) order, and joined by a memoized union
  kernel that merges rows (:meth:`~repro.core.pavf.SetInterner.union_ids`),
* the forward and backward topological orders are computed once and
  per-FUB schedules are derived from them by bucketing.

Every node is classified once, while the plan is built
(:meth:`SolvePlan._classify`: structure bits, control registers, loop
boundaries, the RTL boundary), straight into the plan's per-node
columns; the loop finder runs over the same fan-in CSR the plan shares
with the graph. A plan carries arrays only: the reference engines
(:mod:`repro.verify`) read its fixed sets back by net name.

A :class:`SolvePlan` bundles all of that and is reusable across many
:class:`~repro.core.pavf.PavfEnv` bindings: monolithic solves are purely
structural, so their set-id vectors are cached and a new environment (a
Figure 8 sweep point, a ``loop_pavf_per_net`` study) is a re-evaluation,
not a re-solve. The partitioned relaxation (:func:`relax_compiled`)
re-runs per-FUB kernels against the cached schedules, re-solving only
FUBs whose imported boundary sets changed in the previous merge; it
lands on the monolithic fixpoint and serves the convergence study (E5)
and the ``relaxation-fixpoint`` oracle.

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

from repro.errors import MappingError, SartError
from repro.core.controlregs import find_control_registers
from repro.core.graphmodel import StructurePorts
from repro.core.loops import find_loop_nets
from repro.core.pavf import (
    BOUNDARY,
    CONST,
    CTRL,
    LOOP,
    READ,
    WRITE,
    Atom,
    PavfEnv,
    SetInterner,
)
from repro.core.relaxation import RelaxationTrace
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
PLAN_FORMAT = 7  # v7: no AvfModel tables; v6: interner rows only

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
        # Port AVFs per structure (defaults for those the ports lack) and
        # structure atom -> (role, structure, flat bit); role in
        # r/w/ra/wa/wen.
        self.structures: dict[str, StructurePorts] = {}
        self.atom_bindings: dict[Atom, tuple[str, str, int]] = {}
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
        self.forced_visited = bytearray()  # struct/loop/ctrl/mem nodes
        # Caches (dropped when the plan is pickled into the artifact store).
        self._union_memo: dict[tuple[int, ...], int] = {}
        self._mono_cache: dict[str, tuple[list[int], list[int]]] = {}

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
        plan._classify(structures)
        plan._build_orders()
        plan._build_partition_arrays()
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

    def _classify(self, structures: Mapping[str, StructurePorts] | None) -> None:
        """Paper step 4: give every node its role and its fixed sets.

        * A DFF tagged ``struct``/``bit`` is a structure bit: a forward
          source (its READ atom) that passes its WRITE atom to its
          drivers. MEM read data are forward sources; MEM ``wdata``,
          read-address, write-address and enable nets are sinks of the
          port's WRITE, ``#raddrN`` READ, ``#waddr`` and ``#wen`` atoms.
        * A control register (:func:`~repro.core.controlregs.
          find_control_registers`) is a forward source at 100 % whose
          drivers get nothing ("we can omit walks up from these
          write-ports").
        * A loop boundary (:func:`~repro.core.loops.find_loop_nets`, cut
          at the structure bits and control registers, where walks
          terminate) is fixed at its LOOP atom in both directions.
        * Tie cells and primary inputs are forward sources, primary
          outputs sinks: the RTL-boundary pseudo-structure.

        Role precedence on a sequential node: structure bit > control
        register > loop boundary (a latch array flagged as a structure is
        never re-classified, even when its enable gives it a hold loop).
        Structures the netlist names but *structures* lacks get
        conservative defaults. The fixed sets are interned, after one
        ranking of their atoms, into ``fwd_fixed``, ``through`` and
        ``sink``: a set id per node, -1 where the node is not fixed.
        """
        graph, ids, names, n = self.graph, self.ids, self.names, self.n
        kinds = self.kind_l = graph.kinds
        ports = self.structures = dict(structures or {})
        bindings = self.atom_bindings
        role_l = self.role_l = [ROLE_LOGIC] * n
        mode_l = self.mode_l = [_MODE_MIN] * n
        special_l = self.special_l = [None] * n
        forced = self.forced_visited = bytearray(n)
        fwd: list[Atom | None] = [None] * n
        through: list[tuple[Atom, ...] | None] = [None] * n
        sinks: dict[int, list[Atom]] = {}

        def bind(atom: Atom, role: str, sname: str, bit: int) -> Atom:
            if sname not in ports:
                ports[sname] = StructurePorts(name=sname)
            bindings[atom] = (role, sname, bit)
            return atom

        def add_sink(net: str, atom: Atom) -> None:
            sinks.setdefault(ids[net], []).append(atom)

        def inject(nid: int, role: str, atom: Atom, back: tuple[Atom, ...]) -> None:
            fwd[nid], through[nid] = atom, back
            role_l[nid], mode_l[nid], special_l[nid] = role, _MODE_ATOM, atom
            forced[nid] = 1

        for net, attrs in graph.struct_tagged():
            try:
                bit = int(attrs.get("bit", "0"))
            except ValueError as exc:
                raise MappingError(
                    f"node {net!r}: bad struct bit {attrs.get('bit')!r}"
                ) from exc
            sname, nid = attrs["struct"], ids[net]
            fwd[nid] = bind(Atom(READ, sname, bit), "r", sname, bit)
            through[nid] = (bind(Atom(WRITE, sname, bit), "w", sname, bit),)
            role_l[nid], mode_l[nid], special_l[nid] = ROLE_STRUCT, _MODE_STRUCT, sname
            forced[nid] = 1

        for mem in graph.mems.values():
            sname, width = mem.attrs.get("struct", mem.inst), mem.width
            for pidx, rport in enumerate(mem.read_ports):
                for i, net in enumerate(rport.data):
                    flat = pidx * width + i
                    fwd[ids[net]] = bind(Atom(READ, sname, flat), "r", sname, flat)
                atom = bind(Atom(READ, f"{sname}#raddr{pidx}"), "ra", sname, pidx)
                for net in rport.addr:
                    add_sink(net, atom)
            for i, net in enumerate(mem.wdata):
                add_sink(net, bind(Atom(WRITE, sname, i), "w", sname, i))
            atom = bind(Atom(WRITE, f"{sname}#waddr"), "wa", sname, 0)
            for net in mem.waddr:
                add_sink(net, atom)
            add_sink(mem.wen, bind(Atom(WRITE, f"{sname}#wen"), "wen", sname, 0))

        for net in find_control_registers(graph):
            nid = ids[net]
            if role_l[nid] != ROLE_STRUCT:
                inject(nid, ROLE_CTRL, Atom(CTRL, net), ())

        # Only structure bits and control registers are classified yet.
        cut = [names[nid] for nid, role in enumerate(role_l) if role != ROLE_LOGIC]
        for net in find_loop_nets(graph, cut):
            atom = Atom(LOOP, net)
            inject(ids[net], ROLE_LOOP, atom, (atom,))

        for nid, kind in enumerate(kinds):
            if kind == NodeKind.CONST:
                role_l[nid], fwd[nid] = ROLE_CONST, Atom(CONST, names[nid])
            elif kind == NodeKind.INPUT:
                role_l[nid], fwd[nid] = ROLE_INPUT, Atom(BOUNDARY, names[nid])
            elif kind == NodeKind.MEM_RDATA:
                role_l[nid] = ROLE_MEM
                forced[nid] = 1
        for net in graph.outputs:
            add_sink(net, Atom(BOUNDARY, net))

        # Every solve set is a union of these fixed sets, so ranking
        # their atoms once makes every row an integer sort.
        atoms = {atom for atom in fwd if atom is not None}
        atoms.update(atom for back in through if back for atom in back)
        atoms.update(atom for row in sinks.values() for atom in row)
        self.interner.rank(atoms)
        intern = self.interner.id_of
        self.fwd_fixed = [-1 if atom is None else intern((atom,)) for atom in fwd]
        self.through = [-1 if back is None else intern(back) for back in through]
        sink = self.sink = [-1] * n
        for nid, row in sinks.items():
            sink[nid] = intern(row)

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

        self.fub_seq = [[] for _ in self.fub_names]
        kinds, role_l = self.kind_l, self.role_l
        for nid in range(self.n):
            if kinds[nid] == NodeKind.SEQ and role_l[nid] != ROLE_STRUCT:
                self.fub_seq[fub_of[nid]].append(nid)

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
        # travel, because the fixed set ids reference it.
        state["_union_memo"] = {}
        state["_mono_cache"] = {}
        return state

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
        re-binds atom values. Once they are cached no later solve of
        this *dangling* mode reads the union memo, so the memo is
        emptied; a later relaxation rebuilds what it needs.
        """
        cached = self._mono_cache.get(dangling)
        if cached is None:
            f_out = [-1] * self.n
            self._forward_pass(self.forder, None, None, f_out)
            b_out = [-1] * self.n
            self._backward_pass(self.border, None, None, b_out, dangling)
            cached = self._mono_cache[dangling] = (f_out, b_out)
            self._union_memo.clear()
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
    dangling: str = "unace",
) -> tuple[list[int], list[int], RelaxationTrace]:
    """Jacobi relaxation across FUB partitions on the compiled kernels.

    The run starts from TOP boundaries with every FUB dirty. Each
    iteration re-solves the dirty FUBs against the FUBIO boundary
    entries, then merges: an export entry takes its exporter's new set
    whenever the set id changed, and marks the FUBs importing it dirty
    for the next iteration. The run has converged when no entry
    changed; each entry then holds its exporter's final set, so the
    node sets are the monolithic fixpoint (the system is acyclic once
    the fixed nodes cut it, so that fixpoint is unique).
    ``trace.max_delta`` records the largest value change of a merge.
    The paper's budget is *iterations* = 20.

    Returns the forward and backward node set ids and the trace.
    """
    ev = evaluator or SetEvaluator(plan.interner, env)
    n = plan.n
    f_bnd = [_TOP_ID] * n
    b_bnd = [_TOP_ID] * n
    f_out = [-1] * n
    b_out = [-1] * n
    trace = RelaxationTrace()
    dirty = list(range(plan.n_fubs))
    value = ev.value
    merges = (
        (plan.f_exports, f_out, f_bnd, plan.f_importers),
        (plan.b_exports, b_out, b_bnd, plan.b_importers),
    )

    for iteration in range(iterations):
        for f in dirty:
            plan._forward_pass(plan.fub_forder[f], f, f_bnd, f_out)
            plan._backward_pass(plan.fub_border[f], f, b_bnd, b_out, dangling)

        # FUBIO merge.
        changed = False
        delta = 0.0
        next_dirty: set[int] = set()
        for exports, out, bnd, importers in merges:
            for nid in exports:
                new = out[nid]
                old = bnd[nid]
                if new == old:
                    continue
                bnd[nid] = new
                changed = True
                next_dirty.update(importers.get(nid, ()))
                step = abs(value(old) - value(new))
                if step > delta:
                    delta = step

        trace.iterations = iteration + 1
        trace.max_delta.append(delta)
        _record_fub_averages_compiled(plan, f_out, b_out, ev, trace, dirty)
        if not changed:
            trace.converged = True
            break
        dirty = sorted(next_dirty)
    return f_out, b_out, trace


def _record_fub_averages_compiled(
    plan: SolvePlan,
    f_out: list[int],
    b_out: list[int],
    ev: SetEvaluator,
    trace: RelaxationTrace,
    fubs: list[int],
) -> None:
    """Record the average AVF of each FUB in *fubs*, those solved this
    iteration; every other FUB repeats its last average, since its
    outputs have not changed since.
    """
    ev.fill(
        [t[nid] for t in (f_out, b_out) for f in fubs for nid in plan.fub_seq[f]]
    )
    vals = ev._vals
    solved = set(fubs)
    for f, fub in enumerate(plan.fub_names):
        if f not in solved:
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
    structures: Mapping[str, StructurePorts] | None = None,
) -> dict[str, NodeAvf]:
    """Final per-node AVFs of a solve's set-id vectors (paper Table 1).

    Structure bits keep their measured AVF from *structures* (the plan's
    table by default), injected nodes their value, the rest get the MIN.
    """
    ev = evaluator or SetEvaluator(plan.interner, env)
    ev.fill(f_sid)
    ev.fill(b_sid)
    if structures is None:
        structures = plan.structures
    vals = ev._vals
    names, kind_l, fub_l = plan.names, plan.kind_l, plan.fub_l
    role_l, mode_l, special_l = plan.role_l, plan.mode_l, plan.special_l
    forced = plan.forced_visited
    lookup = env.lookup
    node_avf = NodeAvf
    out: dict[str, NodeAvf] = {}
    for nid in range(plan.n):
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
