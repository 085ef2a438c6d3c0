"""Systolic MAC-array generator: the mega-scale substrate.

The generator's two sinks (Module object, streamed EXLIF text) must be
interchangeable — byte-identical EXLIF, identical graphs — and the
array must carry the features the solver is exercised on at scale:
per-tile ACE weight buffers, a ``cfg_*`` control chain, and genuine
accumulator loops, partitioned into tile FUBs.
"""

import pytest

from repro.core.sart import SartConfig, run_sart
from repro.designs.bigcore.systolic import (
    SystolicConfig,
    build_systolic,
    node_count,
    systolic_exlif_text,
    write_systolic_exlif,
)
from repro.netlist.exlif import write_exlif
from repro.netlist.graph import NodeKind, extract_graph

CFG = SystolicConfig(rows=6, cols=5, data_width=4, acc_width=8, tile=4)


@pytest.fixture(scope="module")
def design():
    return build_systolic(CFG)


class TestGenerator:
    def test_streamed_text_is_byte_identical_to_module_export(self, design):
        assert systolic_exlif_text(CFG) == write_exlif(design.module)

    def test_write_to_path(self, design, tmp_path):
        target = tmp_path / "array.exlif"
        write_systolic_exlif(CFG, target)
        assert target.read_text() == write_exlif(design.module)

    def test_node_count_is_exact(self, design):
        graph = extract_graph(design.module)
        assert len(graph) == node_count(CFG)
        # And on non-default shapes, including ragged tile edges.
        for cfg in (
            SystolicConfig(rows=1, cols=1, data_width=1, acc_width=1, tile=1),
            SystolicConfig(rows=3, cols=7, data_width=2, acc_width=5, tile=3),
        ):
            assert len(extract_graph(build_systolic(cfg).module)) == node_count(cfg)

    def test_structures_one_per_tile(self, design):
        assert design.structures == [
            f"WBUF_T{tr}_{tc}" for tr in range(2) for tc in range(2)
        ]
        graph = extract_graph(design.module)
        tagged = {attrs["struct"] for _net, attrs in graph.struct_tagged()}
        assert tagged == set(design.structures)
        # Every weight bit is tagged: rows*cols*data_width struct flops.
        n_tagged = sum(1 for _ in graph.struct_tagged())
        assert n_tagged == CFG.rows * CFG.cols * CFG.data_width

    def test_fub_partition_covers_all_tiles(self, design):
        graph = extract_graph(design.module)
        fubs = {fub for fub in graph.fubs if fub}
        assert fubs == {f"TILE_{tr}_{tc}" for tr in range(2) for tc in range(2)}

    def test_config_validation(self):
        with pytest.raises(ValueError, match="rows >= 1"):
            SystolicConfig(rows=0, cols=4)
        with pytest.raises(ValueError, match="acc_width"):
            SystolicConfig(data_width=8, acc_width=4)
        with pytest.raises(ValueError, match="tile"):
            SystolicConfig(tile=0)


class TestSolve:
    def test_run_sart_finds_the_expected_features(self, design):
        result = run_sart(design.module, config=SartConfig())
        stats = result.stats
        assert stats["visited_fraction"] == 1.0
        # Every accumulator bit is a loop member; each tile contributes
        # one cfg_* control register.
        assert stats["loop_bits"] >= CFG.rows * CFG.cols * CFG.acc_width
        assert stats["ctrl_bits"] == 4
        fubs = {avf.fub for avf in result.node_avfs.values() if avf.fub}
        assert len(fubs) == 4

    def test_weight_buffer_bits_are_ace_structures(self, design):
        result = run_sart(design.module, config=SartConfig())
        from repro.core.resolve import ROLE_STRUCT

        struct_nodes = [
            avf for avf in result.node_avfs.values() if avf.role == ROLE_STRUCT
        ]
        assert len(struct_nodes) == CFG.rows * CFG.cols * CFG.data_width


class TestRegistry:
    def test_resolve_design_builds_the_array(self):
        from repro.pipeline.registry import resolve_design

        provider = resolve_design("systolic@rows=3,cols=3,data_width=2,"
                                  "acc_width=4,tile=2")
        assert provider.ref == "systolic@rows=3,cols=3,data_width=2,acc_width=4,tile=2"
        artifact = provider.build()
        assert artifact.kind == "systolic"
        cfg = SystolicConfig(rows=3, cols=3, data_width=2, acc_width=4, tile=2)
        assert len(artifact.module.instances) == len(
            build_systolic(cfg).module.instances
        )

    def test_fingerprint_tracks_every_parameter(self):
        from repro.pipeline.registry import resolve_design

        base = resolve_design("systolic@rows=4,cols=4").fingerprint()
        assert resolve_design("systolic@rows=4,cols=4").fingerprint() == base
        assert resolve_design("systolic@rows=4,cols=5").fingerprint() != base
        assert resolve_design("systolic@rows=4,cols=4,tile=2").fingerprint() != base

    def test_default_ref_omits_default_params(self):
        from repro.pipeline.registry import resolve_design

        assert resolve_design("systolic").ref == "systolic@rows=8,cols=8"

    def test_bad_parameter_rejected(self):
        from repro.errors import DesignRefError
        from repro.pipeline.registry import resolve_design

        with pytest.raises(DesignRefError, match="unknown design parameter"):
            resolve_design("systolic@depth=3")
        with pytest.raises(DesignRefError, match="not int"):
            resolve_design("systolic@rows=wide")
