"""Tinycore design provider for the analysis pipeline.

Adapts a tinycore benchmark program to the uniform
:class:`~repro.pipeline.registry.DesignProvider` protocol: a stable
fingerprint over the actual program image (words + data memory + parity
variant, not just the name) and a :class:`~repro.pipeline.artifacts
.BuiltDesign` carrying the simulable netlist for the gate-level
branches (golden run, SFI, beam) alongside the flattened module SART
analyzes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.designs.tinycore.core import build_tinycore
from repro.designs.tinycore.programs import PROGRAMS, default_dmem, program
from repro.errors import DesignRefError
from repro.pipeline.artifacts import BuiltDesign
from repro.pipeline.fingerprint import stage_fingerprint


@dataclass(frozen=True)
class TinycoreProvider:
    """``tinycore:<program>[@parity=1]`` — a benchmark on the real core."""

    program: str
    parity: bool = False
    kind = "tinycore"

    def __post_init__(self):
        if self.program not in PROGRAMS:
            raise DesignRefError(
                f"unknown program {self.program!r}; have {sorted(PROGRAMS)}"
            )

    @property
    def ref(self) -> str:
        suffix = "@parity=1" if self.parity else ""
        return f"tinycore:{self.program}{suffix}"

    def words(self) -> tuple[list[int], list[int] | None]:
        return program(self.program), default_dmem(self.program)

    def _fingerprint(self, words: list[int], dmem: list[int] | None) -> str:
        return stage_fingerprint(
            "design", "tinycore", self.program, self.parity, words, dmem
        )

    def fingerprint(self) -> str:
        return self._fingerprint(*self.words())

    def build(self) -> BuiltDesign:
        words, dmem = self.words()
        netlist = build_tinycore(words, dmem, parity=self.parity)
        return BuiltDesign(kind=self.kind,
                           fingerprint=self._fingerprint(words, dmem),
                           module=netlist.module, netlist=netlist)
