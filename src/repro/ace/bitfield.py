"""Bit Field Analysis (paper Section 5.1).

"Many structures, especially control structures, tended to hold bits that
were used in different ways ... Not all the bit fields were ACE
simultaneously, but rather depended on the instruction, data type, or
other micro-architectural details. As a result, we modeled each bit field
of these structures as a separate ACE structure."

A :class:`FieldSpec` names a bit field and gives the predicate deciding
whether that field is ACE for a given instruction. :func:`ace_bits_for`
evaluates a field list against an instruction and returns the number of
ACE bits, which the lifetime analyzer weights instead of the full entry
width — exactly the refinement that makes control-structure pAVFs "much
less conservative".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

if TYPE_CHECKING:  # bitfield must not import perfmodel at runtime: the
    # pipeline imports these field tables, and a package-level cycle would
    # result. Predicates only touch Inst attributes, so opcode classes are
    # referenced by their string names here.
    from repro.perfmodel.isa import Inst


@dataclass(frozen=True)
class FieldSpec:
    """One bit field of a structure entry."""

    name: str
    bits: int
    # Predicate: is this field ACE for this (ACE) instruction?
    is_ace: Callable[["Inst"], bool]


def _always(_inst: "Inst") -> bool:
    return True


def _has_imm(inst: "Inst") -> bool:
    return inst.imm


def _is_memory(inst: "Inst") -> bool:
    return inst.op in ("load", "store")


def _is_branch(inst: "Inst") -> bool:
    return inst.op == "branch"


def _has_dst(inst: "Inst") -> bool:
    return inst.writes_register()


# Instruction-queue entry layout (64 bits).
IQ_FIELDS: tuple[FieldSpec, ...] = (
    FieldSpec("opcode", 8, _always),
    FieldSpec("srcs", 14, _always),
    FieldSpec("dst", 8, _has_dst),
    FieldSpec("imm", 16, _has_imm),
    FieldSpec("memmeta", 10, _is_memory),
    FieldSpec("brmeta", 8, _is_branch),
)

# Reorder-buffer entry layout (96 bits).
ROB_FIELDS: tuple[FieldSpec, ...] = (
    FieldSpec("status", 8, _always),
    FieldSpec("pc", 32, _is_branch),        # needed to redirect on branches
    FieldSpec("dst", 8, _has_dst),
    FieldSpec("result", 32, _has_dst),
    FieldSpec("memmeta", 8, _is_memory),
    FieldSpec("flags", 8, _always),
)


def total_bits(fields: Sequence[FieldSpec]) -> int:
    return sum(f.bits for f in fields)


def ace_bits_for(fields: Sequence[FieldSpec], inst: "Inst") -> int:
    """ACE bit count of one entry holding *inst*.

    An un-ACE instruction has zero ACE bits regardless of fields; for an
    ACE instruction only the fields whose predicate holds contribute.
    """
    if not inst.ace:
        return 0
    return sum(f.bits for f in fields if f.is_ace(inst))
