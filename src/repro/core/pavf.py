"""The pAVF value algebra.

The paper propagates "essentially a signal probability (the probability of
an ACE bit instead of the probability of a one or zero)". Two operations
appear:

* **Union** at logical joins (forward) and distribution splits (backward):
  "the union simplifies to the sum of the pAVFs" for non-overlapping
  sources, and is idempotent for identical sources — the Figure 7 example
  simplifies ``pAVF_1 ∪ (pAVF_1 ∪ pAVF_2)`` to ``pAVF_1 ∪ pAVF_2``.
* **MIN** when reconciling the forward and backward estimates (Table 1)
  and when merging refined values at FUB boundaries (Eq 7).

To make the union exact (idempotent, no double counting on reconvergent
fanout) a propagated value is a *set of atoms*; each atom is a symbolic
source — a structure port bit, a control register, a loop boundary, a
boundary pseudo-structure port or the conservative TOP. The numeric
value of a set is the capped sum of its atoms' values under a
:class:`PavfEnv` binding. Keeping sets symbolic is also what enables the
paper's closed-form re-evaluation optimization (Section 5.2): new workload
pAVFs are just a new environment.

The solver holds each distinct set once, as a sorted row of integer atom
ids in a :class:`SetInterner`, and unions rows. :func:`union` and
:func:`value_of` are the same algebra on ``frozenset`` values, which the
reference solvers (:mod:`repro.verify`) propagate directly.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from struct import pack
from sys import getsizeof
from typing import Iterable, NamedTuple, Sequence

# Atom kinds.
READ = "read"        # structure read-port bit (pAVF_R source)
WRITE = "write"      # structure write-port bit (pAVF_W sink)
CTRL = "ctrl"        # configuration control register (pAVF_R = 100%)
LOOP = "loop"        # loop-boundary node (injected static pAVF)
BOUNDARY = "boundary"  # RTL-boundary pseudo-structure port
CONST = "const"      # tie cell (conservative static source)
TOP_KIND = "top"     # the conservative initial value 1.0


class Atom(NamedTuple):
    """One symbolic pAVF source/sink term.

    ``name`` is the structure name (READ/WRITE), net name (CTRL/LOOP/CONST)
    or port name (BOUNDARY); ``bit`` is the bit index within a structure
    port (0 for singleton kinds). Atoms hash, compare and order as the
    tuple ``(kind, name, bit)``, all in C.
    """

    kind: str
    name: str
    bit: int = 0

    def label(self) -> str:
        prefix = {READ: "pR", WRITE: "pW", CTRL: "ctrl", LOOP: "loop",
                  BOUNDARY: "bnd", CONST: "const", TOP_KIND: "TOP"}[self.kind]
        if self.kind == TOP_KIND:
            return "TOP"
        if self.kind in (READ, WRITE):
            return f"{prefix}({self.name}.{self.bit})"
        return f"{prefix}({self.name})"


TOP = Atom(TOP_KIND, "", 0)
TOP_SET: frozenset[Atom] = frozenset((TOP,))


@dataclass
class PavfEnv:
    """Binding of atoms to numeric pAVF values.

    Lookup precedence: exact ``(kind, name, bit)`` entry, then per-kind
    default, then the global defaults (TOP -> 1.0, anything unbound ->
    ``unbound_default``). Structure-port values are normally loaded from
    the ACE model output (:mod:`repro.ace.portavf`).
    """

    values: dict[Atom, float] = field(default_factory=dict)
    kind_defaults: dict[str, float] = field(default_factory=dict)
    unbound_default: float = 1.0

    def bind(self, atom: Atom, value: float) -> None:
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"pAVF out of range for {atom.label()}: {value}")
        self.values[atom] = value

    def bind_kind(self, kind: str, value: float) -> None:
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"pAVF out of range for kind {kind!r}: {value}")
        self.kind_defaults[kind] = value

    def lookup(self, atom: Atom) -> float:
        if atom.kind == TOP_KIND:
            return 1.0
        found = self.values.get(atom)
        if found is not None:
            return found
        found = self.kind_defaults.get(atom.kind)
        if found is not None:
            return found
        return self.unbound_default

    def copy(self) -> "PavfEnv":
        env = PavfEnv(dict(self.values), dict(self.kind_defaults), self.unbound_default)
        return env


def union(*sets: frozenset[Atom]) -> frozenset[Atom]:
    """Exact union of pAVF sets (idempotent; TOP absorbs everything)."""
    merged: set[Atom] = set()
    for s in sets:
        if TOP in s:
            return TOP_SET
        merged.update(s)
    return frozenset(merged)


def value_of(atoms: frozenset[Atom], env: PavfEnv) -> float:
    """Numeric value of a pAVF set: capped sum of atom values.

    The empty set evaluates to 0.0 — it is the value of a node whose data
    can never reach an ACE consumer (dangling logic is un-ACE).
    """
    if TOP in atoms:
        return 1.0
    total = 0.0
    for atom in atoms:
        total += env.lookup(atom)
        if total >= 1.0:
            return 1.0
    return total


class SetInterner:
    """Shared table of canonical pAVF sets, each stored as a row of atom ids.

    Propagation produces the same annotation set at many nodes (every net
    fed by one reconvergent cone carries an identical set). Interning
    keeps one row per distinct set — in *both* walk directions and across
    relaxation iterations — and assigns each a dense integer id the
    compiled kernels (:mod:`repro.core.compiled`) index with.

    Id 0 is always the empty set and id 1 the TOP singleton; a set that
    holds TOP is TOP (TOP absorbs every union).

    A set's *row* is its members' ids in the dense :attr:`atoms` table,
    in (kind, name, bit) order, kept in three flat ``array`` columns:
    ``row_start``/``row_len`` per set id and ``row_ids``, the
    concatenated atom ids. The row is also the hash-cons key: an index
    maps the hash of its bytes to the set id (a row whose hash another
    row already holds takes the next free key), and :meth:`union_ids`
    merges integer rows. :meth:`rank` gives a plan's atoms ids in
    (kind, name, bit) order up front, so a row is its members' ids sorted
    as integers; an atom first seen later takes the next id, and a row
    holding one is sorted by atom instead. Atoms enter as atoms only at
    the edges (:meth:`id_of`) and leave as atoms only through
    :meth:`sorted_atoms`. A pickle holds the atom table and the row
    columns; unpickling rebuilds the index from the rows.
    """

    EMPTY_ID = 0
    TOP_ID = 1

    __slots__ = ("atoms", "_atom_ids", "_ranked", "_index", "row_start",
                 "row_len", "row_ids")

    def __init__(self) -> None:
        self.atoms: list[Atom] = [TOP]
        self._atom_ids: dict[Atom, int] = {TOP: 0}
        # Atom ids below this follow (kind, name, bit) order.
        self._ranked = 1
        self.row_start = array("q", (0, 0))
        self.row_len = array("i", (0, 1))
        self.row_ids = array("i", (0,))
        self._reindex()

    def __getstate__(self):
        return (self.atoms, self._ranked, self.row_start, self.row_len, self.row_ids)

    def __setstate__(self, state) -> None:
        self.atoms, self._ranked, self.row_start, self.row_len, self.row_ids = state
        self._atom_ids = {atom: aid for aid, atom in enumerate(self.atoms)}
        self._reindex()

    def _reindex(self) -> None:
        """Rebuild the row index from the row columns, in id order."""
        self._index: dict[int, int] = {}
        data = self.row_ids.tobytes()
        for lo, n in zip(self.row_start, self.row_len):
            self._find(data[4 * lo:4 * (lo + n)])

    def _find(self, key: bytes) -> int:
        """Id of the row whose bytes are *key*, appended if new.

        The index maps the hash of a row's bytes to its id; a row whose
        hash another row holds takes the next free key (linear probing).
        """
        index, h = self._index, hash(key)
        while (sid := index.get(h)) is not None:
            lo = self.row_start[sid]
            if self.row_ids[lo:lo + self.row_len[sid]].tobytes() == key:
                return sid
            h += 1
        sid = index[h] = len(index)
        if sid == len(self.row_len):  # else: a row being reindexed
            self.row_start.append(len(self.row_ids))
            self.row_len.append(len(key) >> 2)
            self.row_ids.frombytes(key)
        return sid

    def __len__(self) -> int:
        return len(self.row_len)

    def rank(self, atoms: Iterable[Atom]) -> None:
        """Give *atoms* and TOP ids in (kind, name, bit) order.

        Only a fresh interner can be ranked: existing rows would go stale.
        """
        if len(self.row_len) > 2 or len(self.atoms) > 1:
            raise ValueError("rank() needs a fresh SetInterner")
        self.atoms = sorted({TOP, *atoms})
        self._atom_ids = {atom: aid for aid, atom in enumerate(self.atoms)}
        self._ranked = len(self.atoms)
        self.row_ids[0] = self._atom_ids[TOP]
        self._reindex()

    def id_of(self, atoms: Iterable[Atom]) -> int:
        """Intern the set of *atoms* and return its dense id."""
        atoms = set(atoms)
        if TOP in atoms:
            return self.TOP_ID
        # New atoms take their ids in atom order, whatever the hash order.
        return self._intern(sorted(map(self.atom_id, sorted(atoms))))

    def union_ids(self, key: Sequence[int]) -> int:
        """Id of the union of the sets *key* names, merged row by row.

        Exact and idempotent; TOP absorbs everything.
        """
        if self.TOP_ID in key:
            return self.TOP_ID
        start, length, ids = self.row_start, self.row_len, self.row_ids
        merged: set[int] = set()
        for sid in key:
            lo = start[sid]
            merged.update(ids[lo:lo + length[sid]])
        return self._intern(sorted(merged))

    def _intern(self, row: list[int]) -> int:
        """Id of the set whose atom ids, sorted as integers, are *row*."""
        if row and row[-1] >= self._ranked:
            row.sort(key=self.atoms.__getitem__)
        return self._find(pack(f"{len(row)}i", *row))

    def atom_id(self, atom: Atom) -> int:
        """Dense id of *atom* in :attr:`atoms` (added on first sight)."""
        aid = self._atom_ids.get(atom)
        if aid is None:
            aid = self._atom_ids[atom] = len(self.atoms)
            self.atoms.append(atom)
        return aid

    def sorted_atoms(self, sid: int) -> tuple[Atom, ...]:
        """Members of set *sid* in stable (kind, name, bit) order."""
        lo = self.row_start[sid]
        return tuple(map(self.atoms.__getitem__,
                         self.row_ids[lo:lo + self.row_len[sid]]))

    def nbytes(self) -> int:
        """Bytes of the set storage: the row columns and the row index."""
        index = self._index
        return sum(map(getsizeof, (self.row_start, self.row_len, self.row_ids,
                                   index, *index, *index.values())))


def format_set(atoms: Iterable[Atom]) -> str:
    """Human-readable rendering, stable order (for closed-form printing)."""
    if not atoms:
        return "0"
    return " + ".join(a.label() for a in sorted(atoms))
