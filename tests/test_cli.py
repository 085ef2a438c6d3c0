"""CLI tests (direct main() invocation; no subprocess needed)."""

import csv
import json

import pytest

from repro.cli import main
from repro.netlist.exlif import write_exlif
from tests.conftest import make_fig7


@pytest.fixture()
def fig7_exlif(tmp_path):
    module, _ = make_fig7()
    path = tmp_path / "fig7.exlif"
    path.write_text(write_exlif(module))
    return path


@pytest.fixture()
def ports_file(tmp_path):
    path = tmp_path / "ports.txt"
    path.write_text(
        "# name pavf_r pavf_w [avf]\n"
        "S1 0.10 0.0 0.3\n"
        "S2 0.02 0.0 0.3\n"
        "S3 0.0 0.05 0.3\n"
        "S4 0.0 0.40 0.3\n"
    )
    return path


def test_analyze(capsys, fig7_exlif, ports_file):
    rc = main(["analyze", str(fig7_exlif), "--ports", str(ports_file)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "WEIGHTED AVG" in out
    assert "visited=" in out


def test_analyze_with_exports(capsys, tmp_path, fig7_exlif, ports_file):
    csv_path = tmp_path / "nodes.csv"
    json_path = tmp_path / "summary.json"
    rc = main([
        "analyze", str(fig7_exlif), "--ports", str(ports_file),
        "--export-csv", str(csv_path), "--export-json", str(json_path),
    ])
    assert rc == 0
    rows = list(csv.DictReader(csv_path.open()))
    assert rows and "avf" in rows[0]
    payload = json.loads(json_path.read_text())
    assert payload["design"] == "fig7"


def test_analyze_bad_ports_file(tmp_path, fig7_exlif):
    bad = tmp_path / "bad.txt"
    bad.write_text("S1 only-two\n")
    with pytest.raises(SystemExit, match="expected"):
        main(["analyze", str(fig7_exlif), "--ports", str(bad)])


def test_analyze_malformed_exlif_names_the_line(tmp_path):
    bad = tmp_path / "bad.exlif"
    bad.write_text(".model m\n.inputs a\n.outputs y\n"
                   ".latch r d=a q=y init=x\n.end\n")
    with pytest.raises(SystemExit, match="line 4"):
        main(["analyze", str(bad)])


def test_tinycore_flow(capsys):
    rc = main(["tinycore", "fib"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "average sequential AVF" in out
    assert "structure rf" in out


def test_tinycore_with_sfi(capsys):
    rc = main(["tinycore", "fib", "--sfi", "30"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "SFI (30 injections)" in out


def test_tinycore_unknown_program():
    with pytest.raises(SystemExit, match="unknown program"):
        main(["tinycore", "doom"])


def test_bigcore_small(capsys):
    rc = main([
        "bigcore", "--scale", "0.1", "--workloads-per-class", "1",
        "--workload-length", "500",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "WEIGHTED AVG" in out
    # A cold solve is the monolithic fixpoint: every node is visited,
    # and no relaxation ran.
    assert "visited=100.0%" in out
    assert "relaxation:" not in out


def test_sweep(capsys):
    rc = main(["sweep", "--points", "3", "--scale", "0.1",
               "--workload-length", "500"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "loop_pavf" in out
    assert out.count("\n") >= 4


def test_bad_sart_flag_is_a_spec_error():
    # The CLI builds the same validated [sart] section a spec file does.
    with pytest.raises(SystemExit, match=r"loop_pavf must be a number in \[0, 1\]"):
        main(["tinycore", "fib", "--loop-pavf", "7"])
    with pytest.raises(SystemExit, match=r"loop_pavf must be a number in \[0, 1\]"):
        main(["tinycore", "fib", "--loop-pavf", "-0.1"])


def test_bad_sweep_points_is_a_spec_error(tmp_path):
    with pytest.raises(SystemExit, match=r"\[sweep\] points must be an integer >= 1"):
        main(["sweep", "--points", "0"])
    spec = tmp_path / "sweep.toml"
    spec.write_text('design = "tinycore:fib"\n[sweep]\npoints = true\n')
    with pytest.raises(SystemExit, match="points must be an integer >= 1, got True"):
        main(["run", str(spec)])


def test_export_exlif(tmp_path, capsys):
    out = tmp_path / "tiny.exlif"
    rc = main(["export", "tinycore", str(out), "--program", "fib"])
    assert rc == 0
    from repro.netlist.exlif import parse_exlif

    mods = parse_exlif(out.read_text())
    assert "tinycore" in mods


def test_export_verilog_bigcore(tmp_path):
    out = tmp_path / "big.v"
    rc = main(["export", "bigcore", str(out), "--format", "verilog",
               "--scale", "0.1"])
    assert rc == 0
    text = out.read_text()
    assert text.startswith("// generated")
    assert "endmodule" in text


def test_export_parity_variant(tmp_path):
    out = tmp_path / "tiny_p.exlif"
    rc = main(["export", "tinycore", str(out), "--program", "fib", "--parity"])
    assert rc == 0
    assert "due_o" in out.read_text()


def test_sfi_checkpoint_resume_roundtrip(tmp_path, capsys):
    ck = tmp_path / "campaign.jsonl"
    rc = main(["sfi", "fib", "--injections", "30", "--checkpoint", str(ck)])
    assert rc == 0
    first = capsys.readouterr().out
    rc = main(["sfi", "fib", "--injections", "30", "--resume", str(ck)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "resumed:" in out
    # Same counts line: the resumed campaign is bit-identical.
    counts = [line for line in first.splitlines() if "counts:" in line]
    assert counts and counts[0] in out


def test_sfi_keyboard_interrupt_exits_130(monkeypatch, capsys, tmp_path):
    import repro.cli as cli

    def interrupt(*args, **kwargs):
        raise KeyboardInterrupt

    # cmd_sfi imports the symbol from the package at call time
    monkeypatch.setattr("repro.sfi.run_sfi_campaign", interrupt)
    ck = tmp_path / "campaign.jsonl"
    rc = cli.main(["sfi", "fib", "--injections", "20", "--checkpoint", str(ck)])
    err = capsys.readouterr().err
    assert rc == 130
    assert "interrupted" in err
    assert f"--resume {ck}" in err


def test_beam_keyboard_interrupt_exits_130_without_checkpoint(monkeypatch, capsys):
    def interrupt(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr("repro.ser.beam.run_beam_test", interrupt)
    rc = main(["beam", "fib", "--exposures", "8"])
    err = capsys.readouterr().err
    assert rc == 130
    assert "progress was not saved" in err


def test_sfi_sigterm_exits_143_with_checkpoint_hint(monkeypatch, capsys,
                                                    tmp_path):
    import os
    import signal
    import time

    def terminate(*args, **kwargs):
        # A real SIGTERM mid-campaign: the handler installed by main()
        # raises during the sleep, unwinding through the runtime's
        # checkpoint-flushing finally blocks.
        os.kill(os.getpid(), signal.SIGTERM)
        time.sleep(5)
        raise AssertionError("SIGTERM handler never fired")

    monkeypatch.setattr("repro.sfi.run_sfi_campaign", terminate)
    ck = tmp_path / "campaign.jsonl"
    rc = main(["sfi", "fib", "--injections", "20", "--checkpoint", str(ck)])
    err = capsys.readouterr().err
    assert rc == 143                        # 128 + SIGTERM
    assert "terminated" in err
    assert f"--resume {ck}" in err


def test_sigterm_disposition_restored_after_main(monkeypatch):
    import signal

    def terminate(*args, **kwargs):
        import os
        import time
        os.kill(os.getpid(), signal.SIGTERM)
        time.sleep(5)

    monkeypatch.setattr("repro.ser.beam.run_beam_test", terminate)
    before = signal.getsignal(signal.SIGTERM)
    rc = main(["beam", "fib", "--exposures", "8"])
    assert rc == 143
    assert signal.getsignal(signal.SIGTERM) is before


def test_loadgen_cli_against_live_server(tmp_path, capsys):
    """``repro-sart loadgen`` against a live server, metrics written out.

    (The real ``repro-sart serve`` process — SIGKILL recovery and the
    SIGTERM→143 graceful drain — is covered by the subprocess test in
    tests/serve/test_recovery.py.)
    """
    from repro.serve.scheduler import COUNTERS
    from repro.serve.server import ServeApp

    def stub_worker(task):
        return {"ok": True}

    app = ServeApp(str(tmp_path / "state"), worker=stub_worker,
                   queue_limit=16).start_background()
    try:
        rc = main(["loadgen", "--url", app.url, "--clients", "2",
                   "--requests", "2", "--dedup-burst", "4",
                   "--out", str(tmp_path / "bench.json")])
    finally:
        app.drain()
    assert rc == 0
    out = capsys.readouterr().out
    assert "4 identical requests -> 1 job(s), 1 execution(s)" in out
    doc = json.loads((tmp_path / "bench.json").read_text())
    assert doc["completed"] == 2
    assert doc["dedup_burst"]["executions"] == 1
    assert set(doc["server_counters"]) == set(COUNTERS)


def test_version_flag(capsys):
    from repro import __version__

    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_sfi_export_json(tmp_path, capsys):
    out = tmp_path / "sfi.json"
    rc = main(["sfi", "fib", "--injections", "20",
               "--export-json", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["kind"] == "sfi"
    assert payload["program"] == "fib"
    assert payload["planned_injections"] == 20
    assert 0.0 <= payload["sdc_avf"] <= 1.0
    assert payload["counts"]["masked"] + payload["counts"]["sdc"] + \
        payload["counts"]["due"] + payload["counts"]["unknown"] == 20
    # the human line and the JSON agree
    human = capsys.readouterr().out
    assert f"SDC AVF={payload['sdc_avf']:.3f}" in human


def test_beam_export_json(tmp_path):
    out = tmp_path / "beam.json"
    rc = main(["beam", "fib", "--exposures", "6",
               "--export-json", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["kind"] == "beam"
    assert payload["exposures"] == 6
    assert payload["strikes"] >= 0
    assert "sdc_rate_per_cycle" in payload and "fingerprint" in payload


def test_sweep_workloads_per_class_flag(capsys):
    rc = main(["sweep", "--points", "2", "--scale", "0.1",
               "--workloads-per-class", "1", "--workload-length", "400"])
    assert rc == 0
    out = capsys.readouterr().out
    rows = [l for l in out.splitlines() if l.lstrip()[:1].isdigit()]
    assert len(rows) == 2


def test_run_subcommand_bad_spec(tmp_path, capsys):
    spec = tmp_path / "bad.toml"
    spec.write_text('design = "tinycore:fib"\n[nonsense]\nx = 1\n')
    with pytest.raises(SystemExit, match="unknown section"):
        main(["run", str(spec)])


def test_run_subcommand_export_json(tmp_path):
    spec = tmp_path / "tiny.toml"
    spec.write_text('design = "tinycore:fib"\n')
    out = tmp_path / "summary.json"
    rc = main(["run", str(spec), "--export-json", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["design"] == "tinycore:fib"
    assert "sart" in payload["stages"]
    assert 0.0 <= payload["weighted_seq_avf"] <= 1.0


def test_deadlines_tinycore(capsys):
    rc = main(["deadlines", "fib"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "error-reporting deadlines" in out
    assert "rf" in out and "dmem" in out
    # no --derating: no derating block rides along
    assert "logic derating" not in out


def test_deadlines_with_derating_export_json(tmp_path, capsys):
    out_path = tmp_path / "deadlines.json"
    rc = main(["deadlines", "fib", "--derating", "--mc-trials", "8",
               "--export-json", str(out_path)])
    assert rc == 0
    human = capsys.readouterr().out
    assert "logic derating" in human
    assert "MC masking validation" in human
    payload = json.loads(out_path.read_text())
    deadlines = payload["deadlines"]
    assert deadlines["rf"]["events"] > 0
    assert deadlines["rf"]["p50"] <= deadlines["rf"]["max"]
    derating = payload["derating"]
    assert 0.0 < derating["summary"]["mean"] <= 1.0
    assert 0.0 <= derating["derated_seq_avf"] <= 1.0
    assert derating["mc"]["trials"] == 8


def test_deadlines_bigcore(capsys):
    rc = main(["deadlines", "bigcore@scale=0.1", "--derating",
               "--workloads-per-class", "1", "--workload-length", "400"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "error-reporting deadlines" in out
    assert "logic derating" in out
    # bigcore has no gate-level machine: MC must stay off
    assert "MC masking validation" not in out


def test_deadlines_bigcore_rejects_mc(capsys):
    with pytest.raises(SystemExit, match="gate-level"):
        main(["deadlines", "bigcore@scale=0.1", "--mc-trials", "4",
              "--workloads-per-class", "1", "--workload-length", "400"])
