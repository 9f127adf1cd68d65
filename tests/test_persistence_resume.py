"""End-to-end acceptance tests for checkpoint / resume / replay.

The headline guarantees:

* a run interrupted at an arbitrary checkpoint and resumed produces a
  journal *byte-identical* to an uninterrupted run with the same seed,
  and identical ``kpi_report()`` output;
* ``replay`` detects a deliberately corrupted journal and reports the
  first divergence point;
* the ``harness-crash`` fault scenario (an unplanned kernel stop
  mid-run) recovers through the same path with the same bytes.
"""

import hashlib
import json

import pytest

from repro.chaos import persistence_spec
from repro.chaos.campaign import SpecSampler
from repro.persistence import (
    CheckpointError,
    Checkpoint,
    JournalError,
    ScenarioSpec,
    default_paths,
    fast_forward,
    prepare,
    read_journal,
    replay_journal,
    resume_run,
    run_scenario,
    run_to_checkpoint,
    scenario_names,
    write_divergence_report,
)


def _reference(tmp_path, spec):
    journal_path = str(tmp_path / "reference.jsonl")
    result = run_scenario(spec, journal_path=journal_path)
    return result, journal_path


class TestScenarioRegistry:
    def test_builtin_scenarios_registered(self):
        names = scenario_names()
        for expected in ("control-outage", "mape-outage", "harness-crash",
                         "traffic-overload", "traffic-retry-storm"):
            assert expected in names

    def test_unknown_scenario_rejected(self):
        with pytest.raises(KeyError):
            prepare(ScenarioSpec(name="no-such-scenario"))


class TestResumeBitwiseIdentity:
    @pytest.mark.parametrize("spec,at", [
        (ScenarioSpec(name="control-outage"), 45.0),
        (ScenarioSpec(name="mape-outage"), 30.0),
        (ScenarioSpec(name="traffic-overload"), 14.0),
        (ScenarioSpec(name="traffic-retry-storm"), 12.0),
        (ScenarioSpec(name="smart-city-partition",
                      params={"quick": True}), 30.0),
        (persistence_spec(SpecSampler(84).sample(5)), 15.0),
    ], ids=lambda value: value.name if isinstance(value, ScenarioSpec)
        else None)
    def test_interrupted_resume_matches_uninterrupted(
            self, tmp_path, spec, at):
        reference, ref_journal = _reference(tmp_path, spec)

        directory = str(tmp_path / "interrupted")
        interrupted = run_to_checkpoint(spec, directory, at=at)
        assert interrupted.checkpoint.time == at
        assert interrupted.checkpoint.fired < reference.system.sim.fired_count

        resumed = resume_run(directory=directory)
        assert resumed.fast_forward_events == interrupted.checkpoint.fired
        assert resumed.final_digest == reference.final_digest

        with open(ref_journal) as fh:
            ref_bytes = fh.read()
        with open(resumed.journal_path) as fh:
            resumed_bytes = fh.read()
        assert resumed_bytes == ref_bytes

    def test_kpi_report_identical_after_resume(self, tmp_path):
        spec = ScenarioSpec(name="mape-outage")
        reference, _ = _reference(tmp_path, spec)
        run_to_checkpoint(spec, str(tmp_path / "i"), at=40.0)
        resumed = resume_run(directory=str(tmp_path / "i"))

        ref_kpis = json.dumps(reference.system.kpi_report().to_dict(),
                              sort_keys=True, default=str)
        res_kpis = json.dumps(resumed.system.kpi_report().to_dict(),
                              sort_keys=True, default=str)
        assert res_kpis == ref_kpis

    def test_harness_crash_recovery(self, tmp_path):
        """An unplanned kernel stop mid-run resumes to identical bytes."""
        spec = ScenarioSpec(name="harness-crash", seed=7,
                            params={"crash_at": 40.0})
        reference, ref_journal = _reference(tmp_path, spec)

        directory = str(tmp_path / "crashed")
        crashed = run_to_checkpoint(spec, directory)   # stops at the fault
        assert crashed.checkpoint.time == pytest.approx(40.0)

        resumed = resume_run(directory=directory)
        assert resumed.final_digest == reference.final_digest
        with open(ref_journal) as fh_a, open(resumed.journal_path) as fh_b:
            assert fh_b.read() == fh_a.read()

    def test_resume_records_restore_telemetry(self, tmp_path):
        spec = ScenarioSpec(name="control-outage")
        run_to_checkpoint(spec, str(tmp_path / "c"), at=45.0)
        resumed = resume_run(directory=str(tmp_path / "c"))
        metrics = resumed.system.metrics
        assert len(metrics.series("persistence.restore.fast_forward_s")) == 1
        assert metrics.series("persistence.restore.events").values == [226.0]
        # Telemetry must be digest-neutral: series only, no counters.
        assert not [n for n in metrics.counter_names
                    if n.startswith("persistence")]


class TestCheckpointBytesPinned:
    """``checkpoint.json`` is byte-stable, audit ``state`` included.

    The file holds the scenario spec, the barrier, its digest and the
    offline audit record (kernel, RNG streams, fleet).  Pinning its
    sha256 catches any change to that format or to the state it records.
    Values recorded with CPython 3.11.7 and networkx 3.6.1.
    """

    @pytest.mark.parametrize("scenario,at,sha256", [
        ("control-outage", 45.0,
         "e4774b985e5240a3fc1e112bf832008be971ec341de891045290ebe7b9305cc3"),
        ("traffic-overload", 14.0,
         "f8087b57aa4d0f78c1a3bd95f6f93d0c5a286bb1fbc729dd7687018a8a8dbb86"),
    ], ids=["control-outage-45.0", "traffic-overload-14.0"])
    def test_checkpoint_file_sha256(self, tmp_path, scenario, at, sha256):
        directory = str(tmp_path / "c")
        run_to_checkpoint(ScenarioSpec(name=scenario), directory, at=at)
        with open(default_paths(directory)["checkpoint"], "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == sha256


class TestFastForwardVerification:
    def test_digest_mismatch_is_refused(self, tmp_path):
        spec = ScenarioSpec(name="control-outage")
        directory = str(tmp_path / "c")
        run_to_checkpoint(spec, directory, at=45.0)
        checkpoint = Checkpoint.load(default_paths(directory)["checkpoint"])
        drifted = Checkpoint(
            scenario=checkpoint.scenario, time=checkpoint.time,
            fired=checkpoint.fired, digest="0" * 64,
            digest_every=checkpoint.digest_every, state=checkpoint.state)
        prepared = prepare(ScenarioSpec.from_dict(checkpoint.scenario))
        with pytest.raises(CheckpointError, match="digest"):
            fast_forward(prepared.system, drifted)

    def test_checkpoint_beyond_run_is_refused(self, tmp_path):
        spec = ScenarioSpec(name="control-outage")
        directory = str(tmp_path / "c")
        run_to_checkpoint(spec, directory, at=45.0)
        checkpoint = Checkpoint.load(default_paths(directory)["checkpoint"])
        impossible = Checkpoint(
            scenario=checkpoint.scenario, time=checkpoint.time,
            fired=10**6, digest=checkpoint.digest,
            digest_every=checkpoint.digest_every)
        prepared = prepare(ScenarioSpec.from_dict(checkpoint.scenario))
        with pytest.raises(CheckpointError):
            fast_forward(prepared.system, impossible)


class TestReplay:
    def test_intact_journal_replays_clean(self, tmp_path):
        spec = ScenarioSpec(name="control-outage")
        _, journal_path = _reference(tmp_path, spec)
        report = replay_journal(journal_path)
        assert report.ok
        assert report.divergence is None
        assert report.journal_complete
        assert report.records_checked > 0

    def test_corrupted_journal_reports_divergence_point(self, tmp_path):
        spec = ScenarioSpec(name="control-outage")
        _, journal_path = _reference(tmp_path, spec)

        lines = open(journal_path).read().splitlines()
        target = 100
        record = json.loads(lines[target])
        assert record["type"] == "event"
        record["label"] = "tampered"
        lines[target] = json.dumps(record, sort_keys=True,
                                   separators=(",", ":"))
        with open(journal_path, "w") as fh:
            fh.write("\n".join(lines) + "\n")

        report = replay_journal(journal_path)
        assert not report.ok
        divergence = report.divergence
        assert divergence.index == target - 1   # header is not a record
        assert divergence.field == "label"
        assert divergence.recorded == "tampered"
        assert divergence.replayed != "tampered"
        assert divergence.time == record["t"]

        out = str(tmp_path / "divergence.json")
        write_divergence_report(report, out)
        written = json.load(open(out))
        assert written["divergence"]["field"] == "label"

    def test_incomplete_journal_is_a_valid_prefix(self, tmp_path):
        spec = ScenarioSpec(name="control-outage")
        directory = str(tmp_path / "c")
        run_to_checkpoint(spec, directory, at=45.0)
        journal_path = default_paths(directory)["journal"]
        journal = read_journal(journal_path)
        assert not journal.complete
        report = replay_journal(journal_path)
        assert report.ok
        assert not report.journal_complete
        assert report.records_checked == len(journal.records)

    def test_journal_without_scenario_is_rejected(self, tmp_path):
        from repro.persistence import JournalWriter

        path = str(tmp_path / "anon.jsonl")
        writer = JournalWriter(path, scenario={})
        writer.append_event(1, 0.5, "a")
        writer.abandon()
        with pytest.raises(JournalError):
            replay_journal(path)


class TestCli:
    def test_checkpoint_resume_replay_verbs(self, tmp_path, capsys):
        from repro.cli import main

        out = str(tmp_path / "ckpt")
        assert main(["checkpoint", "control-outage", "--at", "45",
                     "--out", out]) == 0
        assert main(["resume", "--out", out]) == 0
        capsys.readouterr()
        assert main(["replay", "--out", out, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["exit_code"] == 0
        titles = [t["title"] for t in payload["tables"]]
        assert "replay: deterministic verification" in titles

    def test_replay_verb_fails_on_tampered_journal(self, tmp_path, capsys):
        from repro.cli import main

        out = str(tmp_path / "ckpt")
        assert main(["checkpoint", "control-outage", "--at", "45",
                     "--out", out]) == 0
        assert main(["resume", "--out", out]) == 0
        journal_path = default_paths(out)["journal"]
        lines = open(journal_path).read().splitlines()
        record = json.loads(lines[50])
        record["label"] = "tampered"
        lines[50] = json.dumps(record, sort_keys=True, separators=(",", ":"))
        with open(journal_path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["replay", "--out", out]) == 1
        report = json.load(open(default_paths(out)["divergence"]))
        assert report["divergence"] is not None
