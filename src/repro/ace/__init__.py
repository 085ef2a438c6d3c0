"""ACE analysis: lifetime analysis, Hamming-distance-1, bit fields, pAVFs.

Implements the analytical substrate the paper builds on:

* **ACE lifetime analysis** (Mukherjee et al., MICRO 2003) —
  :mod:`repro.ace.lifetime` tracks the residency of ACE bits in every
  modelled structure and produces structure AVFs (paper Eq 3).
* **Hamming-distance-1 analysis** (Biswas et al., ISCA 2005) —
  :mod:`repro.ace.hamming` refines the AVF of address/tag fields in
  address-based structures.
* **Bit Field Analysis** (paper Section 5.1) — :mod:`repro.ace.bitfield`
  splits control-structure entries into separately-tracked fields whose
  ACE-ness depends on the instruction.
* **Port AVFs** (paper Section 4) — :mod:`repro.ace.portavf` converts ACE
  read/write event rates into the pAVF_R / pAVF_W values SART propagates.
"""

from repro.ace.lifetime import StructureAvf, StructureLifetime
from repro.ace.portavf import ports_from_analysis
from repro.ace.bitfield import FieldSpec, IQ_FIELDS, ROB_FIELDS, ace_bits_for
from repro.ace.hamming import HammingAnalyzer

__all__ = [
    "FieldSpec",
    "HammingAnalyzer",
    "IQ_FIELDS",
    "ROB_FIELDS",
    "StructureAvf",
    "StructureLifetime",
    "ace_bits_for",
    "ports_from_analysis",
]
