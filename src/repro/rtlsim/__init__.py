"""Cycle-based gate-level simulator.

The simulator is *lane-parallel*: every net carries a Python integer whose
bit ``k`` is the net's logic value in simulation lane ``k``. Lane 0 is
conventionally the golden (fault-free) run; the remaining lanes carry
fault-injected replicas, so one pass of the simulator advances one golden
simulation plus dozens of faulty ones. This is what makes the paper's SFI
baseline (Section 3.1) tractable in pure Python, and it is also how the
simulated beam test (:mod:`repro.ser.beam`) achieves useful statistics.
"""

from repro.rtlsim.simulator import Simulator
from repro.rtlsim.levelize import levelize

__all__ = [
    "Simulator",
    "levelize",
]
