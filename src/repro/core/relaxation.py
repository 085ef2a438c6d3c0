"""The record of a partitioned relaxation (paper Section 5.2).

The compiled engine (:func:`repro.core.compiled.relax_compiled`) solves
the design one FUB at a time and iterates Jacobi style: each iteration
re-solves the FUBs whose imported FUBIO sets changed in the merge at the
end of the previous one, so a pAVF value crosses exactly one partition
per iteration, as the paper notes. It converges on the monolithic
fixpoint; :func:`repro.verify.reference.run_relaxation` checks that.
This module holds the record of such a run (:class:`RelaxationTrace`).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class RelaxationTrace:
    """Convergence record of one relaxation run."""

    iterations: int = 0
    converged: bool = False
    max_delta: list[float] = field(default_factory=list)
    # fub -> per-iteration average MIN(f, b) over its sequential nodes.
    fub_avg: dict[str, list[float]] = field(default_factory=dict)
