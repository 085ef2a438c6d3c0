"""``repro-sart verify`` subcommand (direct main() invocation)."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.verify.corpus import update_corpus


def test_list_oracles(capsys):
    rc = main(["verify", "--list-oracles"])
    out = capsys.readouterr().out
    assert rc == 0
    for name in ("range", "cross-engine", "lane-isolation",
                 "sfi-consistency"):
        assert name in out


def test_clean_short_run_exits_zero(capsys, tmp_path):
    rc = main(["verify", "--budget", "1", "--seed", "0",
               "--out", str(tmp_path / "fail"),
               "--no-sfi", "--no-corpus"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "all oracles clean" in out


def test_injected_defect_exits_nonzero(capsys, tmp_path):
    rc = main(["verify", "--budget", "5", "--seed", "0",
               "--out", str(tmp_path / "fail"),
               "--inject-defect", "range", "--no-sfi", "--no-corpus"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "injecting defect 'range'" in captured.out
    assert "violation" in captured.err
    repros = list((tmp_path / "fail").glob("*.json"))
    assert repros, "expected shrunk reproducers on disk"
    payload = json.loads(repros[0].read_text())
    assert payload["oracle"] in ("range", "cross-engine")


def test_replay_round_trip(capsys, tmp_path):
    rc = main(["verify", "--budget", "5", "--seed", "0",
               "--out", str(tmp_path / "fail"),
               "--inject-defect", "cross-engine", "--no-sfi", "--no-corpus"])
    assert rc == 1
    capsys.readouterr()
    repro_file = sorted((tmp_path / "fail").glob("cross-engine-*.json"))[0]
    rc = main(["verify", "--replay", str(repro_file),
               "--inject-defect", "cross-engine",
               "--no-sfi", "--no-corpus",
               "--out", str(tmp_path / "fail2")])
    assert rc == 1
    capsys.readouterr()
    rc = main(["verify", "--replay", str(repro_file),
               "--no-sfi", "--no-corpus",
               "--out", str(tmp_path / "fail3")])
    assert rc == 0


def test_corpus_dir_override_and_update_goldens(capsys, tmp_path):
    corpus = tmp_path / "corpus"
    rc = main(["verify", "--update-goldens", "--corpus", str(corpus)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "blessed" in out
    assert sorted(corpus.glob("*.json"))
    rc = main(["verify", "--budget", "0", "--no-sfi",
               "--corpus", str(corpus),
               "--out", str(tmp_path / "fail")])
    assert rc == 0


def test_corrupted_custom_corpus_fails(capsys, tmp_path):
    corpus = tmp_path / "corpus"
    update_corpus(corpus)
    victim = sorted(corpus.glob("*.json"))[0]
    entry = json.loads(victim.read_text())
    entry["expected"]["weighted_seq_avf"] += 0.25
    victim.write_text(json.dumps(entry))
    rc = main(["verify", "--budget", "0", "--no-sfi",
               "--corpus", str(corpus),
               "--out", str(tmp_path / "fail")])
    captured = capsys.readouterr()
    assert rc == 1
    assert "golden-corpus" in captured.err


def test_unknown_defect_is_an_error(tmp_path):
    with pytest.raises(ValueError, match="available"):
        main(["verify", "--budget", "0", "--inject-defect", "bogus",
              "--out", str(tmp_path / "fail")])


def test_oracle_filter(capsys, tmp_path):
    rc = main(["verify", "--budget", "1", "--oracle", "range",
               "--no-sfi", "--no-corpus",
               "--out", str(tmp_path / "fail")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "all oracles clean" in out
