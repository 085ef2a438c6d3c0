"""Fault-tolerant campaign runtime: chaos-driven recovery tests.

Every recovery path is exercised deterministically via the scripted
chaos harness (:mod:`tests.sfi.chaos`): worker crashes respawn the pool
without losing completed passes, raising passes are retried on a
bounded budget, persistent failures become structured records while the
rest of the campaign completes, repeated pool breakage degrades to
serial execution instead of aborting, stragglers are marked ``timeout``
rather than hanging the run, and an interrupted-then-resumed campaign
is bit-identical to an uninterrupted one.
"""

import json
import time
import warnings

import pytest

from repro.errors import CheckpointError
from repro.sfi import plan_campaign, run_sfi_campaign
from repro.sfi import runtime
from repro.sfi.results import CRASH, TIMEOUT, PassFailure
from repro.sfi.runtime import (
    RETRY_DELAY_CAP,
    DegradedExecutionWarning,
    RuntimeOptions,
    backoff_delay,
    campaign_fingerprint,
    load_checkpoint,
    run_passes,
)
from tests.sfi.chaos import ChaosPlan, attempts_of, chaos_init, chaos_worker

pytestmark = pytest.mark.slow  # chaos recovery paths spin real worker pools

EXPECT = [i * i for i in range(6)]


def _chaos(tmp_path, **kwargs) -> ChaosPlan:
    scratch = tmp_path / "chaos"
    scratch.mkdir(exist_ok=True)
    return ChaosPlan(scratch=str(scratch), **kwargs)


class TestRetry:
    def test_transient_raise_is_retried_to_success(self, tmp_path):
        plan = _chaos(tmp_path, raises={1: 2})
        report = run_passes(chaos_worker, chaos_init, plan, list(range(6)),
                            workers=2, options=RuntimeOptions(max_retries=3))
        assert report.results == EXPECT
        assert report.ok and not report.degraded
        assert attempts_of(plan, 1) == 3  # two scripted failures + the success

    def test_persistent_raise_becomes_structured_failure(self, tmp_path):
        plan = _chaos(tmp_path, raises={4: 99})
        report = run_passes(chaos_worker, chaos_init, plan, list(range(6)),
                            workers=2, options=RuntimeOptions(max_retries=2))
        assert report.results == EXPECT[:4] + [None, 25]
        [failure] = report.failures
        assert failure == PassFailure(index=4, kind=CRASH,
                                      error=failure.error, attempts=2)
        assert "item 4" in failure.error
        assert attempts_of(plan, 4) == 2  # the bounded budget, no more

    def test_serial_mode_retries_too(self, tmp_path):
        plan = _chaos(tmp_path, raises={0: 1})
        report = run_passes(chaos_worker, chaos_init, plan, list(range(3)),
                            workers=1, options=RuntimeOptions(max_retries=2))
        assert report.results == [0, 1, 4]
        assert report.ok


class TestWorkerLoss:
    def test_crash_respawns_pool_and_loses_nothing(self, tmp_path):
        plan = _chaos(tmp_path, crash={2: 1})
        report = run_passes(chaos_worker, chaos_init, plan, list(range(6)),
                            workers=2, options=RuntimeOptions(max_retries=3))
        assert report.results == EXPECT
        assert report.ok
        assert report.pool_restarts >= 1
        assert not report.degraded

    def test_repeated_breakage_degrades_to_serial(self, tmp_path):
        plan = _chaos(tmp_path, crash={3: 99})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = run_passes(
                chaos_worker, chaos_init, plan, list(range(6)), workers=2,
                options=RuntimeOptions(max_retries=2, max_pool_restarts=1),
            )
        assert report.degraded
        assert any(isinstance(w.message, DegradedExecutionWarning)
                   for w in caught)
        # The crasher resolves in-process: recorded with its attempt count...
        [failure] = report.failures
        assert failure.index == 3 and failure.kind == CRASH
        assert failure.attempts == 2
        assert "ChaosCrash" in failure.error
        # ...while every other pass still completed.
        assert report.results == EXPECT[:3] + [None, 16, 25]


class TestTimeouts:
    def test_straggler_marked_timeout_not_hung(self, tmp_path):
        plan = _chaos(tmp_path, hang={1: 1}, hang_seconds=4.0)
        started = time.monotonic()
        report = run_passes(
            chaos_worker, chaos_init, plan, list(range(6)), workers=2,
            options=RuntimeOptions(pass_timeout=0.4),
        )
        elapsed = time.monotonic() - started
        assert elapsed < 4.0, "campaign waited for the straggler"
        [failure] = report.failures
        assert failure.index == 1 and failure.kind == TIMEOUT
        assert failure.attempts == 1  # stragglers are not retried
        assert report.results == [0, None, 4, 9, 16, 25]

    def test_all_workers_wedged_recycles_pool(self, tmp_path):
        plan = _chaos(tmp_path, hang={0: 1, 1: 1}, hang_seconds=4.0)
        started = time.monotonic()
        report = run_passes(
            chaos_worker, chaos_init, plan, list(range(6)), workers=2,
            options=RuntimeOptions(pass_timeout=0.4),
        )
        assert time.monotonic() - started < 4.0
        assert {f.index for f in report.failures} == {0, 1}
        assert all(f.kind == TIMEOUT for f in report.failures)
        assert report.results[2:] == EXPECT[2:]
        assert report.pool_restarts >= 1  # hung workers were terminated
        assert not report.degraded        # wedges don't trigger serial fallback


class TestCheckpoint:
    FP = campaign_fingerprint("unit", 6)

    def _run(self, tmp_path, plan, **opts):
        return run_passes(chaos_worker, chaos_init, plan, list(range(6)),
                          workers=2,
                          options=RuntimeOptions(**opts), fingerprint=self.FP)

    def test_resume_skips_completed_passes(self, tmp_path):
        plan = _chaos(tmp_path)
        ck = str(tmp_path / "ck.jsonl")
        first = self._run(tmp_path, plan, checkpoint=ck)
        assert first.results == EXPECT
        # Chop the last three records: a campaign killed mid-run.
        lines = open(ck).read().splitlines(True)
        open(ck, "w").writelines(lines[:-3])
        resumed = self._run(tmp_path, plan, checkpoint=ck, resume=ck)
        assert resumed.results == EXPECT
        assert resumed.resumed == 3 and resumed.executed == 3
        # The resumed passes were NOT re-executed (attempt counters stand).
        total_runs = sum(attempts_of(plan, i) for i in range(6))
        assert total_runs == 9

    def test_torn_final_record_is_tolerated(self, tmp_path):
        plan = _chaos(tmp_path)
        ck = str(tmp_path / "ck.jsonl")
        self._run(tmp_path, plan, checkpoint=ck)
        with open(ck) as handle:
            content = handle.read()
        open(ck, "w").write(content[:-9])  # SIGKILL mid-write
        resumed = self._run(tmp_path, plan, checkpoint=ck, resume=ck)
        assert resumed.results == EXPECT
        assert resumed.resumed == 5  # the torn record is simply redone

    def test_missing_resume_file_raises(self, tmp_path):
        plan = _chaos(tmp_path)
        with pytest.raises(CheckpointError, match="does not exist"):
            self._run(tmp_path, plan, resume=str(tmp_path / "nope.jsonl"))

    def test_fingerprint_mismatch_raises(self, tmp_path):
        plan = _chaos(tmp_path)
        ck = str(tmp_path / "ck.jsonl")
        self._run(tmp_path, plan, checkpoint=ck)
        with pytest.raises(CheckpointError, match="different campaign"):
            run_passes(chaos_worker, chaos_init, plan, list(range(6)),
                       options=RuntimeOptions(resume=ck),
                       fingerprint=campaign_fingerprint("other", 6))

    def test_unsupported_version_raises(self, tmp_path):
        ck = tmp_path / "ck.jsonl"
        ck.write_text(json.dumps({
            "format": "repro-campaign-checkpoint", "version": 99,
            "fingerprint": self.FP, "passes": 6,
        }) + "\n")
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(str(ck), self.FP, 6)

    @pytest.mark.parametrize("line", [
        "[1, 2]", '{"pass": 1}', '"text"', "null", '{"result": 0}',
        '{"pass": true, "result": 0}', '{"pass": 1.0, "result": 0}',
        '{"pass": 6, "result": 0}', '{"pass": -1, "result": 0}',
    ])
    def test_rejects_any_record_but_a_pass_in_range_with_a_result(
            self, tmp_path, line):
        ck = tmp_path / "ck.jsonl"
        header = json.dumps({"format": "repro-campaign-checkpoint",
                             "version": 1, "fingerprint": self.FP,
                             "passes": 6})
        ck.write_text(f"{header}\n{line}\n" + '{"pass": 0, "result": 0}\n')
        with pytest.raises(CheckpointError, match="corrupt line 2"):
            load_checkpoint(str(ck), self.FP, 6)

    def test_checkpoint_written_by_the_previous_version_loads_unchanged(
            self, tmp_path):
        # A checkpoint as its own writer wrote it before the job journal
        # shared the log writer: header keys in the order format,
        # version, fingerprint, passes, record keys unsorted.
        plan = _chaos(tmp_path)
        ck = tmp_path / "ck.jsonl"
        ck.write_text(
            json.dumps({"format": "repro-campaign-checkpoint", "version": 1,
                        "fingerprint": self.FP, "passes": 6}) + "\n"
            + "".join(json.dumps({"pass": i, "result": EXPECT[i]}) + "\n"
                      for i in (4, 0, 2)))
        assert load_checkpoint(str(ck), self.FP, 6) == {
            i: EXPECT[i] for i in (4, 0, 2)}
        resumed = self._run(tmp_path, plan, checkpoint=str(ck),
                            resume=str(ck))
        assert resumed.results == EXPECT
        assert resumed.resumed == 3 and resumed.executed == 3
        assert load_checkpoint(str(ck), self.FP, 6) == dict(enumerate(EXPECT))

    def test_resume_after_a_torn_record_can_resume_again(self, tmp_path):
        # The resumed run appends to the file a crash tore; a second
        # resume must still read it.
        plan = _chaos(tmp_path)
        ck = str(tmp_path / "ck.jsonl")
        self._run(tmp_path, plan, checkpoint=ck)
        with open(ck) as handle:
            content = handle.read()
        open(ck, "w").write(content[:-9])  # SIGKILL mid-write
        self._run(tmp_path, plan, checkpoint=ck, resume=ck)
        assert load_checkpoint(ck, self.FP, 6) == dict(enumerate(EXPECT))
        again = self._run(tmp_path, plan, checkpoint=ck, resume=ck)
        assert again.results == EXPECT and again.resumed == 6

    def test_refuses_to_overwrite_existing_checkpoint(self, tmp_path):
        plan = _chaos(tmp_path)
        ck = str(tmp_path / "ck.jsonl")
        self._run(tmp_path, plan, checkpoint=ck)
        with pytest.raises(CheckpointError, match="already exists"):
            self._run(tmp_path, plan, checkpoint=ck)

    def test_checkpoint_flushed_per_pass(self, tmp_path):
        # Records must be durable the moment a pass completes — that is
        # what a KeyboardInterrupt or SIGKILL leaves behind.
        plan = _chaos(tmp_path, raises={5: 99})
        ck = str(tmp_path / "ck.jsonl")
        self._run(tmp_path, plan, checkpoint=ck, max_retries=1)
        lines = [json.loads(line) for line in open(ck)]
        assert lines[0]["version"] == 1
        assert sorted(rec["pass"] for rec in lines[1:]) == [0, 1, 2, 3, 4]


def _fib_campaign(seed: int):
    """fib's program, dmem, netlist and a 40-injection plan list."""
    from repro.designs.tinycore.core import build_tinycore
    from repro.designs.tinycore.harness import run_gate_level
    from repro.designs.tinycore.programs import default_dmem, program
    from repro.netlist.graph import extract_graph

    words, dmem = program("fib"), default_dmem("fib")
    netlist = build_tinycore(words, dmem)
    golden = run_gate_level(words, dmem, netlist=netlist)
    seqs = extract_graph(netlist.module).seq_nets()
    return words, dmem, netlist, plan_campaign(seqs, golden.cycles - 2, 40, seed=seed)


class TestCampaignResumeEquivalence:
    """Acceptance: interrupted+resumed campaigns match uninterrupted ones."""

    @pytest.fixture(scope="class")
    def fib_campaign(self):
        return _fib_campaign(seed=11)

    @staticmethod
    def _sig(campaign):
        return [(o.plan.net, o.plan.cycle, o.outcome) for o in campaign.outcomes]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sfi_resume_bit_identical(self, tmp_path, fib_campaign, workers):
        words, dmem, netlist, plans = fib_campaign
        baseline = run_sfi_campaign(words, dmem, plans, netlist=netlist,
                                    lanes_per_pass=10, workers=workers)
        ck = str(tmp_path / f"sfi_{workers}.jsonl")
        full = run_sfi_campaign(words, dmem, plans, netlist=netlist,
                                lanes_per_pass=10, workers=workers,
                                runtime=RuntimeOptions(checkpoint=ck))
        lines = open(ck).read().splitlines(True)
        open(ck, "w").writelines(lines[:3])  # keep header + two passes
        resumed = run_sfi_campaign(words, dmem, plans, netlist=netlist,
                                   lanes_per_pass=10, workers=workers,
                                   runtime=RuntimeOptions(checkpoint=ck,
                                                          resume=ck))
        assert self._sig(baseline) == self._sig(full) == self._sig(resumed)
        assert baseline.counts() == resumed.counts()
        assert resumed.resumed_passes == 2
        assert resumed.passes == baseline.passes == 4

    def test_beam_resume_bit_identical(self, tmp_path, fib_campaign):
        from repro.ser.beam import BeamConfig, run_beam_test

        words, dmem, _netlist, _plans = fib_campaign
        config = BeamConfig(flux=5e-5, exposures=24, seed=9, lanes_per_pass=8)
        baseline = run_beam_test(words, dmem, config, workers=2)
        ck = str(tmp_path / "beam.jsonl")
        run_beam_test(words, dmem, config, workers=2,
                      runtime=RuntimeOptions(checkpoint=ck))
        lines = open(ck).read().splitlines(True)
        open(ck, "w").writelines(lines[:2])
        resumed = run_beam_test(words, dmem, config, workers=2,
                                runtime=RuntimeOptions(checkpoint=ck, resume=ck))
        assert (baseline.sdc_events, baseline.due_events, baseline.exposures) \
            == (resumed.sdc_events, resumed.due_events, resumed.exposures)
        assert resumed.resumed_passes == 1

    def test_sfi_persistent_crasher_records_failure(self, tmp_path, fib_campaign):
        # Acceptance: a persistently-crashing pass is recorded with its
        # attempt count while the rest of the campaign completes.
        import repro.sfi.injector as injector

        words, dmem, netlist, plans = fib_campaign
        original = injector._run_sfi_pass

        # Deterministic: the worker blows up on the second batch only
        # (workers=1 keeps it in-process, no pickling of the closure).
        def crashy(payload, sim, batch):
            if batch[0] in plans[10:20]:  # the second 10-plan batch
                raise RuntimeError("injected batch failure")
            return original(payload, sim, batch)

        injector._run_sfi_pass = crashy
        try:
            result = run_sfi_campaign(words, dmem, plans, netlist=netlist,
                                      lanes_per_pass=10, workers=1,
                                      runtime=RuntimeOptions(max_retries=2))
        finally:
            injector._run_sfi_pass = original
        [failure] = result.failures
        assert failure.index == 1 and failure.attempts == 2
        assert result.passes == 3               # the other three completed
        assert len(result.outcomes) == 30       # their outcomes survive


class TestRetryBackoff:
    def test_first_attempt_and_zero_base_never_wait(self):
        assert backoff_delay(0, 1, base=0.5) == 0.0
        assert backoff_delay(3, 5, base=0.0) == 0.0
        assert backoff_delay(3, 5, base=-1.0) == 0.0

    def test_deterministic_for_seeded_inputs(self):
        first = [backoff_delay(i, a, base=0.1)
                 for i in range(4) for a in range(2, 6)]
        second = [backoff_delay(i, a, base=0.1)
                  for i in range(4) for a in range(2, 6)]
        assert first == second

    def test_jitter_window_and_exponential_growth(self):
        for attempt in range(2, 8):
            nominal = min(RETRY_DELAY_CAP, 0.1 * 2 ** (attempt - 2))
            delay = backoff_delay(7, attempt, base=0.1)
            assert 0.5 * nominal <= delay < nominal

    def test_cap_bounds_the_schedule(self):
        assert backoff_delay(0, 50, base=1.0) < RETRY_DELAY_CAP

    def test_passes_dephase(self):
        delays = {backoff_delay(i, 2, base=1.0) for i in range(16)}
        assert len(delays) > 1  # jitter separates concurrent retriers

    def test_retries_still_converge_with_backoff(self, tmp_path, monkeypatch):
        monkeypatch.setattr(runtime, "RETRY_DELAY", 0.2)
        plan = _chaos(tmp_path, raises={1: 1})
        t0 = time.monotonic()
        report = run_passes(
            chaos_worker, chaos_init, plan, list(range(3)),
            workers=1,
            options=RuntimeOptions(max_retries=3),
        )
        elapsed = time.monotonic() - t0
        assert report.results == [0, 1, 4]
        assert report.ok
        # Attempt 2 of pass 1 waited at least the jitter floor (0.5x).
        assert elapsed >= 0.09

    def test_pool_path_applies_backoff_between_attempts(self, tmp_path, monkeypatch):
        monkeypatch.setattr(runtime, "RETRY_DELAY", 0.2)
        plan = _chaos(tmp_path, raises={2: 2})
        t0 = time.monotonic()
        report = run_passes(
            chaos_worker, chaos_init, plan, list(range(6)),
            workers=2,
            options=RuntimeOptions(max_retries=3),
        )
        elapsed = time.monotonic() - t0
        assert report.results == EXPECT
        assert attempts_of(plan, 2) == 3
        # Two backoff waits (attempts 2 and 3): floors 0.1 + 0.2.
        assert elapsed >= 0.25


class TestCheckpointCompatibility:
    """Checkpoint fingerprints are pinned: a checkpoint written by an
    earlier version of the campaign code must keep resuming."""

    @pytest.fixture(scope="class")
    def fib(self):
        return _fib_campaign(seed=5)

    @staticmethod
    def _header_fingerprint(path) -> str:
        with open(path) as handle:
            return json.loads(handle.readline())["fingerprint"]

    def test_sfi_fingerprint(self, tmp_path, fib):
        words, dmem, netlist, plans = fib
        ck = tmp_path / "sfi.jsonl"
        run_sfi_campaign(words, dmem, plans, netlist=netlist, lanes_per_pass=10,
                         runtime=RuntimeOptions(checkpoint=str(ck)))
        assert self._header_fingerprint(ck) == "e9192040364150e2"

    def test_beam_fingerprint(self, tmp_path, fib):
        from repro.ser.beam import BeamConfig, run_beam_test

        words, dmem, _netlist, _plans = fib
        ck = tmp_path / "beam.jsonl"
        config = BeamConfig(flux=5e-5, exposures=24, seed=9, lanes_per_pass=8)
        run_beam_test(words, dmem, config, runtime=RuntimeOptions(checkpoint=str(ck)))
        assert self._header_fingerprint(ck) == "e5b3159266ef8e66"

    def test_masking_fingerprint(self, tmp_path, fib):
        from repro.ser.derating import MaskingConfig, measure_masking_mc

        words, dmem, netlist, _plans = fib
        ck = tmp_path / "masking.jsonl"
        config = MaskingConfig(trials=40, seed=3, lanes_per_pass=10)
        measure_masking_mc(words, dmem, config, netlist=netlist,
                           runtime=RuntimeOptions(checkpoint=str(ck)))
        assert self._header_fingerprint(ck) == "8631e006b96bde40"
