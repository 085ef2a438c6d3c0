"""Model-vs-measurement correlation (the Figure 10 experiment).

For each beam-tested workload we build four numbers:

* **measured** — the simulated-beam SDC rate with its statistical error;
* **modeled (structure-AVF proxy)** — Eq 1 with every sequential bit
  assigned the average ACE-structure AVF, the paper's conservative
  pre-sequential-AVF practice ("we were conservatively using structure
  AVFs as a proxy for the sequential AVF");
* **modeled (sequential AVF)** — Eq 1 with SART's per-node sequential
  AVFs;
* **modeled (derated)** — Eq 1 with SART's sequential AVFs multiplied by
  each flop's analytic logic-derating factor
  (:mod:`repro.ser.derating`): combinational masking between the struck
  flop and its capture points, which the architectural AVF model does
  not see.

With ``intrinsic_fit_per_bit`` set to the beam flux, a modeled FIT is
directly an expected SDC rate per cycle, so the values share units and
can be normalized to arbitrary units exactly like the paper's plot.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.report import average_seq_avf
from repro.core.resolve import ROLE_STRUCT
from repro.core.sart import SartConfig, SartResult, run_sart
from repro.designs.tinycore.archsim import tinycore_structure_ports
from repro.designs.tinycore.core import build_tinycore
from repro.designs.tinycore.harness import run_gate_level
from repro.designs.tinycore.programs import default_dmem, program
from repro.netlist.graph import NodeKind
from repro.ser.beam import BeamConfig, BeamResult, run_beam_test
from repro.ser.fit import FitModel

# Loop-boundary pAVF calibrated for tinycore. Unlike the paper's design,
# where only 2-3 % of sequentials sit in loops and the Figure 8 sweep has
# a heel at 0.3, tinycore is loop-dominated: ~69 % of its flops belong to
# the bypass/stall/PC strongly-connected component, so its sweep is
# nearly linear with no heel (see benchmarks/test_bench_fig8_loop_sweep).
# We calibrate per the paper's prescription ("this is a simple study to
# run for each design") midway between the paper's 0.3 and the design's
# dominant structure AVF (~0.6), which keeps the model conservative
# against both SFI and the simulated beam on every workload tested.
TINYCORE_LOOP_PAVF = 0.45


@dataclass
class CorrelationRow:
    """One workload's entry in the Figure 10 comparison."""

    workload: str
    measured: BeamResult
    modeled_proxy: float      # expected SDC/cycle, structure-AVF proxy
    modeled_sart: float       # expected SDC/cycle, SART sequential AVFs
    seq_avf_proxy: float      # the proxy's flat per-flop AVF
    seq_avf_sart: float       # SART average sequential AVF
    sart: SartResult
    modeled_derated: float = 0.0  # expected SDC/cycle, logic-derated SART
    mean_derating: float = 1.0    # flop-population mean derating factor

    @property
    def measured_rate(self) -> float:
        return self.measured.sdc_rate_per_cycle

    def normalized(self) -> dict[str, float]:
        """All modeled rates in arbitrary units (measured = 1.0)."""
        ref = self.measured_rate or 1.0
        return {
            "measured": 1.0,
            "proxy": self.modeled_proxy / ref,
            "sart": self.modeled_sart / ref,
            "derated": self.modeled_derated / ref,
        }

    @property
    def sequential_avf_reduction(self) -> float:
        """How much lower the SART AVFs are than the proxy (paper: ~63 %)."""
        if self.seq_avf_proxy <= 0:
            return 0.0
        return 1.0 - self.seq_avf_sart / self.seq_avf_proxy

    @property
    def correlation_improvement(self) -> float:
        """Reduction of the model-measurement gap (paper: ~66 %)."""
        gap_proxy = abs(self.modeled_proxy - self.measured_rate)
        gap_sart = abs(self.modeled_sart - self.measured_rate)
        if gap_proxy <= 0:
            return 0.0
        return 1.0 - gap_sart / gap_proxy

    @property
    def within_measurement_error(self) -> bool:
        low, high = self.measured.rate_interval()
        return low <= self.modeled_sart <= high


def model_rates(
    name: str,
    *,
    flux: float,
    sart_config: SartConfig | None = None,
    include_arrays: bool = True,
) -> tuple[float, float, float, float, SartResult]:
    """Modeled SDC rates for one workload (proxy and SART variants)."""
    words, dmem = program(name), default_dmem(name)
    netlist = build_tinycore(words, dmem)
    golden = run_gate_level(words, dmem, netlist=netlist)
    ports, _trace, _sim = tinycore_structure_ports(
        name, words, dmem, gate_cycles=golden.cycles
    )
    config = sart_config or SartConfig(loop_pavf=TINYCORE_LOOP_PAVF)
    sart = run_sart(netlist.module, ports, config)

    seq_nodes = [
        n for n in sart.node_avfs.values()
        if n.kind == NodeKind.SEQ and n.role != ROLE_STRUCT
    ]
    # The conservative proxy ("conservatively using structure AVFs as a
    # proxy for the sequential AVF"): pipeline flops stage register-file
    # data, so the register file's structure AVF is the natural proxy;
    # fall back to the largest structure AVF for RF-less designs.
    if "rf" in ports and ports["rf"].avf is not None:
        proxy_avf = ports["rf"].avf
    else:
        struct_avfs = [p.avf for p in ports.values() if p.avf is not None]
        proxy_avf = max(struct_avfs) if struct_avfs else 1.0

    def array_contribution(model: FitModel) -> None:
        if not include_arrays:
            return
        for mem_name, mem in sart.model.graph.mems.items():
            sname = mem.attrs.get("struct", mem_name)
            if sname == "irom":
                continue  # the beam does not strike the program ROM
            avf = ports[sname].avf if sname in ports else 1.0
            model.add("arrays", avf or 0.0, bits=mem.depth * mem.width)

    proxy_model = FitModel(intrinsic_fit_per_bit=flux)
    for node in seq_nodes:
        proxy_model.add("sequentials", proxy_avf, bits=1)
    array_contribution(proxy_model)

    sart_model = FitModel(intrinsic_fit_per_bit=flux)
    for node in seq_nodes:
        sart_model.add("sequentials", node.avf, bits=1)
    array_contribution(sart_model)

    seq_avf_sart = average_seq_avf(sart.node_avfs)
    return (
        proxy_model.total_fit(),
        sart_model.total_fit(),
        proxy_avf,
        seq_avf_sart,
        sart,
    )


def derated_rate(
    sart: SartResult,
    *,
    flux: float,
    include_arrays: bool = True,
):
    """Logic-derated expected SDC rate for an already-solved design.

    Per-flop ``FIT = AVF x intrinsic x derating`` with the analytic
    derating factors from :mod:`repro.ser.derating`. Array bits keep
    derating 1: a strike there corrupts stored data directly, with no
    combinational logic in between. Returns ``(rate, DeratingResult)``.
    """
    from repro.ser.derating import analytic_derating

    derating = analytic_derating(sart.model.graph)
    model = FitModel(intrinsic_fit_per_bit=flux)
    for node in sart.node_avfs.values():
        if node.kind == NodeKind.SEQ and node.role != ROLE_STRUCT:
            model.add("sequentials", node.avf, bits=1,
                      derating=derating.factor(node.net))
    if include_arrays:
        ports = sart.model.structures or {}
        for mem_name, mem in sart.model.graph.mems.items():
            sname = mem.attrs.get("struct", mem_name)
            if sname == "irom":
                continue  # the beam does not strike the program ROM
            port = ports.get(sname)
            avf = port.avf if port is not None and port.avf is not None else 1.0
            model.add("arrays", avf, bits=mem.depth * mem.width)
    return model.total_fit(), derating


def correlate_workloads(
    names=("lattice2d", "md5mix"),
    *,
    beam_config: BeamConfig | None = None,
    sart_config: SartConfig | None = None,
) -> list[CorrelationRow]:
    """Run the full Figure 10 experiment for the given workloads."""
    beam_config = beam_config or BeamConfig()
    rows = []
    for name in names:
        words, dmem = program(name), default_dmem(name)
        measured = run_beam_test(
            words, dmem, beam_config,
        )
        proxy_rate, sart_rate, proxy_avf, sart_avf, sart = model_rates(
            name,
            flux=beam_config.flux,
            sart_config=sart_config,
            include_arrays=beam_config.include_arrays,
        )
        derated, derating = derated_rate(
            sart, flux=beam_config.flux,
            include_arrays=beam_config.include_arrays,
        )
        rows.append(
            CorrelationRow(
                workload=name,
                measured=measured,
                modeled_proxy=proxy_rate,
                modeled_sart=sart_rate,
                seq_avf_proxy=proxy_avf,
                seq_avf_sart=sart_avf,
                sart=sart,
                modeled_derated=derated,
                mean_derating=derating.mean(),
            )
        )
    return rows
