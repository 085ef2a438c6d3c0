"""Bigcore design provider for the analysis pipeline.

Adapts the synthetic big-core generator to the uniform
:class:`~repro.pipeline.registry.DesignProvider` protocol. The
fingerprint covers the full :class:`~repro.designs.bigcore.core
.BigcoreConfig` (seed, scale, fub_count, feedback_fubs, edit), so two
runs at the same generator parameters share every downstream cache entry
while any parameter change invalidates them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.designs.bigcore.core import BigcoreConfig, build_bigcore, structure_kinds
from repro.designs.bigcore.systolic import SystolicConfig, build_systolic
from repro.pipeline.artifacts import BuiltDesign
from repro.pipeline.fingerprint import stage_fingerprint


@dataclass(frozen=True)
class BigcoreProvider:
    """``bigcore[@scale=...,seed=...]`` — the synthetic scale design."""

    config: BigcoreConfig = BigcoreConfig()
    kind = "bigcore"

    @property
    def ref(self) -> str:
        c = self.config
        parts = [f"scale={c.scale:g}", f"seed={c.seed}"]
        if c.fub_count is not None:
            parts.append(f"fub_count={c.fub_count}")
        if c.feedback_fubs != 3:
            parts.append(f"feedback_fubs={c.feedback_fubs}")
        if c.edit is not None:
            parts.append(f"edit={c.edit}")
        return "bigcore@" + ",".join(parts)

    def fingerprint(self) -> str:
        c = self.config
        return stage_fingerprint(
            "design", "bigcore", c.seed, c.scale, c.fub_count, c.feedback_fubs,
            c.edit,
        )

    def structure_kinds(self) -> dict[str, str]:
        """Array -> performance-model kind, known without a build."""
        return structure_kinds(self.config)

    def build(self) -> BuiltDesign:
        design = build_bigcore(self.config)
        return BuiltDesign(kind=self.kind, fingerprint=self.fingerprint(),
                           module=design.module, design=design)


@dataclass(frozen=True)
class SystolicProvider:
    """``systolic[@rows=...,cols=...]`` — the MAC-array scale design."""

    config: SystolicConfig = SystolicConfig()
    kind = "systolic"

    @property
    def ref(self) -> str:
        c = self.config
        parts = [f"rows={c.rows}", f"cols={c.cols}"]
        if c.data_width != 8:
            parts.append(f"data_width={c.data_width}")
        if c.acc_width != 16:
            parts.append(f"acc_width={c.acc_width}")
        if c.tile != 8:
            parts.append(f"tile={c.tile}")
        return "systolic@" + ",".join(parts)

    def fingerprint(self) -> str:
        c = self.config
        return stage_fingerprint(
            "design", "systolic", c.rows, c.cols, c.data_width, c.acc_width,
            c.tile,
        )

    def build(self) -> BuiltDesign:
        design = build_systolic(self.config)
        return BuiltDesign(kind=self.kind, fingerprint=self.fingerprint(),
                           module=design.module, design=design)
