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
fanout) a propagated value is a *frozenset of atoms*; each atom is a
symbolic source — a structure port bit, a control register, a loop
boundary, a boundary pseudo-structure port or the conservative TOP. The
numeric value of a set is the capped sum of its atoms' values under a
:class:`PavfEnv` binding. Keeping sets symbolic is also what enables the
paper's closed-form re-evaluation optimization (Section 5.2): new workload
pAVFs are just a new environment.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from itertools import repeat
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
EMPTY: frozenset[Atom] = frozenset()


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


def capped_sum(values) -> float:
    """Plain numeric union (paper Eq 5/10): sum capped at 1.0."""
    total = 0.0
    for v in values:
        total += v
        if total >= 1.0:
            return 1.0
    return total


class SetInterner:
    """Shared table of canonical pAVF sets.

    Propagation produces the same annotation set at many nodes (every net
    fed by one reconvergent cone carries an identical frozenset). Interning
    keeps one instance per distinct set — in *both* walk directions and
    across relaxation iterations — and assigns each a dense integer id the
    compiled kernels (:mod:`repro.core.compiled`) index with.

    Id 0 is always the empty set and id 1 the TOP singleton.

    The numeric kernels read each set as a *row*: its members' ids in the
    dense :attr:`atoms` table, in (kind, name, bit) order. A set's row is
    written when the set is interned, into three flat ``array`` columns:
    ``row_start``/``row_len`` per set id and ``row_ids``, the concatenated
    atom ids. :meth:`rank` gives a plan's atoms ids in (kind, name, bit)
    order up front, so a row is its members' ids sorted as integers; an
    atom first seen later takes the next id, and a row holding one is
    sorted by atom instead. Rows and atom ids are rebuilt from the sets
    when an interner is unpickled.
    """

    EMPTY_ID = 0
    TOP_ID = 1

    __slots__ = ("sets", "_ids", "atoms", "_atom_ids", "_ranked", "row_start",
                 "row_len", "row_ids")

    def __init__(self) -> None:
        self.sets: list[frozenset[Atom]] = [EMPTY, TOP_SET]
        self._ids: dict[frozenset[Atom], int] = {EMPTY: 0, TOP_SET: 1}
        self.atoms: list[Atom] = [TOP]
        self._atom_ids: dict[Atom, int] = {TOP: 0}
        # Atom ids below this follow (kind, name, bit) order.
        self._ranked = 1
        self.row_start = array("q", (0, 0))
        self.row_len = array("i", (0, 1))
        self.row_ids = array("i", (0,))

    def __getstate__(self):
        return (None, {"sets": self.sets})

    def __setstate__(self, state) -> None:
        # Also loads interners pickled with more slot state (``_ids``, the
        # old per-set ``_sorted`` cache): only the sets are read.
        sets = state[1]["sets"]
        self.__init__()
        self.rank(frozenset().union(*sets))
        for atoms in sets[2:]:
            self._add(atoms)

    def __len__(self) -> int:
        return len(self.sets)

    def rank(self, atoms: Iterable[Atom]) -> None:
        """Give *atoms* and TOP ids in (kind, name, bit) order.

        Only a fresh interner can be ranked: existing rows would go stale.
        """
        if len(self.sets) > 2 or len(self.atoms) > 1:
            raise ValueError("rank() needs a fresh SetInterner")
        self.atoms = sorted({TOP, *atoms})
        self._atom_ids = {atom: aid for aid, atom in enumerate(self.atoms)}
        self._ranked = len(self.atoms)
        self.row_ids[0] = self._atom_ids[TOP]

    def id_of(self, atoms: frozenset[Atom]) -> int:
        """Intern *atoms* and return its dense id."""
        sid = self._ids.get(atoms)
        return self._add(atoms) if sid is None else sid

    def union_ids(self, key: Sequence[int], max_terms: int) -> int:
        """Id of the union of the sets *key* names.

        Exact and idempotent; TOP absorbs everything, and with
        ``max_terms > 0`` a union of more atoms collapses to TOP
        (:func:`union` then :func:`collapse_if_large`, interned).
        """
        sets = self.sets
        merged: set[Atom] = set()
        for sid in key:
            merged.update(sets[sid])
        if TOP in merged or 0 < max_terms < len(merged):
            return self.TOP_ID
        return self.id_of(frozenset(merged))

    def _add(self, atoms: frozenset[Atom]) -> int:
        sid = len(self.sets)
        self._ids[atoms] = sid
        self.sets.append(atoms)
        # An atom unknown or first seen after the ranking reads as an id
        # at or past ``_ranked``; such a row is sorted by atom instead.
        ranked = self._ranked
        row = sorted(map(self._atom_ids.get, atoms, repeat(ranked)))
        if row and row[-1] >= ranked:
            row = list(map(self.atom_id, sorted(atoms)))
        self.row_start.append(len(self.row_ids))
        self.row_len.append(len(row))
        self.row_ids.extend(row)
        return sid

    def canon(self, atoms: frozenset[Atom]) -> frozenset[Atom]:
        """Return the shared canonical instance equal to *atoms*."""
        return self.sets[self.id_of(atoms)]

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


def collapse_if_large(atoms: frozenset[Atom], max_terms: int) -> frozenset[Atom]:
    """Replace oversized sets with TOP (conservative memory guard)."""
    if max_terms > 0 and len(atoms) > max_terms:
        return TOP_SET
    return atoms


def format_set(atoms: frozenset[Atom]) -> str:
    """Human-readable rendering, stable order (for closed-form printing)."""
    if not atoms:
        return "0"
    return " + ".join(a.label() for a in sorted(atoms))
