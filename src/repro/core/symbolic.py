"""Closed-form AVF equations (paper Section 5.2 optimization).

"As the pAVFs propagate ... a closed form equation is generated for each
visited node in the netlist with the terms of the equations being the
structure pAVFs of the ACE model plus any injected state (such as from
control registers or loop boundaries). ... any subsequent sequential AVF
computations on this particular design simply needs to generate new pAVFs
from the ACE model then plug those values into the closed form equations."

Because the propagated values are symbolic atom sets, the closed form
falls out directly: every node's equation is
``AVF(n) = MIN(sum(f-atoms), sum(b-atoms))`` (sums capped at 1.0). A
:class:`ClosedForm` is a view over the solve's plan, set ids and
environment: re-evaluating it under fresh structure port AVFs rebinds the
structure atoms and runs the solve's own resolution
(:func:`~repro.core.compiled.resolve_ids`), with no walk or relaxation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.core.compiled import SolvePlan, resolve_ids
from repro.core.graphmodel import AvfModel, StructurePorts
from repro.core.pavf import PavfEnv, format_set
from repro.core.resolve import NodeAvf


@dataclass
class ClosedForm:
    """Per-node symbolic AVF equations over a solve plan, re-evaluable in O(nodes)."""

    plan: SolvePlan
    f_ids: list[int]
    b_ids: list[int]
    base_env: PavfEnv

    def equation_for(self, net: str) -> str:
        """Human-readable closed-form equation of one node."""
        nid = self.plan.ids.get(net)
        terms = []
        for ids in (self.f_ids, self.b_ids):
            sid = -1 if nid is None else ids[nid]
            terms.append(format_set(self.plan.interner.sorted_atoms(sid))
                         if sid >= 0 else "TOP")
        return f"AVF({net}) = MIN({terms[0]}, {terms[1]})"

    def evaluate(
        self, structures: Mapping[str, StructurePorts] | None = None
    ) -> dict[str, NodeAvf]:
        """Re-evaluate every node under new structure port AVFs.

        *structures* replaces the port AVFs of the named structures (others
        keep their original values). Injected values (loops, control
        registers, boundaries) are retained from the base environment.
        """
        model = self.plan.model
        env, effective = self.base_env, model.structures
        if structures:
            env, effective = env.copy(), {**effective, **structures}
            bind_structures(env, model, effective)
        return resolve_ids(self.plan, self.f_ids, self.b_ids, env, structures=effective)

    def term_count(self) -> int:
        """Total number of atom terms across all equations (size metric)."""
        row_len = self.plan.interner.row_len
        return sum(row_len[s] for ids in (self.f_ids, self.b_ids) for s in ids if s >= 0)


def bind_structures(
    env: PavfEnv, model: AvfModel, structures: Mapping[str, StructurePorts]
) -> None:
    """Bind every structure atom of *model* to its value in *structures*."""
    for atom, (role, sname, bit) in model.atom_bindings.items():
        ports = structures.get(sname)
        if ports is not None:
            env.bind(atom, atom_value(ports, role, bit))


def atom_value(ports: StructurePorts, role: str, bit: int) -> float:
    if role == "r":
        return ports.read_value(bit)
    if role == "w":
        return ports.write_value(bit)
    if role == "ra":
        return ports.read_port_rate()
    if role in ("wa", "wen"):
        return ports.write_port_rate()
    raise ValueError(f"unknown atom role {role!r}")
