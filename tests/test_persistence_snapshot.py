"""Unit tests for the persistence primitives.

Covers the snapshot helpers (canonical digests), the kernel's audit
snapshot (pending-event metadata honoring lazy cancellation) and
``advance_to``, the JSONL journal (append, torn-line recovery,
truncation), and the versioned integrity-hashed checkpoint file.
"""

import json
import os

import pytest

from repro.persistence.checkpoint import (
    CHECKPOINT_VERSION,
    Checkpoint,
    CheckpointError,
    default_paths,
)
from repro.persistence.journal import (
    JOURNAL_VERSION,
    JournalError,
    JournalWriter,
    read_journal,
    truncate,
)
from repro.persistence.snapshot import canonical_json, state_digest
from repro.simulation.kernel import SimulationError, Simulator


# --------------------------------------------------------------------------- #
# digests
# --------------------------------------------------------------------------- #
class TestDigests:
    def test_canonical_json_is_order_insensitive(self):
        assert (canonical_json({"b": 1, "a": [1, 2]})
                == canonical_json({"a": [1, 2], "b": 1}))

    def test_canonical_json_handles_sets_and_tuples(self):
        assert (canonical_json({"s": {3, 1, 2}, "t": (1, 2)})
                == canonical_json({"s": [1, 2, 3], "t": [1, 2]}))

    def test_state_digest_is_deterministic_and_sensitive(self):
        state = {"clock": 12.5, "streams": ["a", "b"]}
        assert state_digest(state) == state_digest(dict(state))
        changed = dict(state, clock=12.6)
        assert state_digest(state) != state_digest(changed)


# --------------------------------------------------------------------------- #
# kernel
# --------------------------------------------------------------------------- #
class TestKernelSnapshot:
    def test_snapshot_excludes_lazily_cancelled_events(self):
        sim = Simulator()
        keep = sim.schedule(1.0, lambda s: None, label="keep")
        drop = sim.schedule(2.0, lambda s: None, label="drop")
        sim.cancel(drop)
        pending = sim.snapshot_state()["pending"]
        assert [e["label"] for e in pending] == ["keep"]
        assert pending[0]["seq"] == keep.seq

    def test_advance_to_moves_clock_without_firing(self):
        sim = Simulator()
        sim.schedule(10.0, lambda s: None)
        sim.advance_to(4.0)
        assert sim.now == 4.0
        assert sim.fired_count == 0
        with pytest.raises(SimulationError):
            sim.advance_to(3.0)          # backwards
        with pytest.raises(SimulationError):
            sim.advance_to(11.0)         # past the pending event


# --------------------------------------------------------------------------- #
# journal
# --------------------------------------------------------------------------- #
class TestJournal:
    def test_write_read_round_trip(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        writer = JournalWriter(path, scenario={"name": "t", "seed": 1},
                               digest_every=2)
        writer.append_event(1, 0.5, "a")
        writer.append_event(2, 1.0, "b")
        writer.append_digest(2, 1.0, "deadbeef")
        writer.close(2, 1.0, "deadbeef")

        journal = read_journal(path)
        assert journal.header["version"] == JOURNAL_VERSION
        assert journal.scenario == {"name": "t", "seed": 1}
        assert journal.digest_every == 2
        assert journal.complete
        assert [e["label"] for e in journal.events()] == ["a", "b"]
        assert len(journal.digests()) == 2   # digest + end

    def test_torn_trailing_line_is_tolerated(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        writer = JournalWriter(path, scenario={"name": "t"})
        writer.append_event(1, 0.5, "a")
        writer.abandon()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"type": "event", "i": 2, "t"')   # mid-write crash
        journal = read_journal(path)
        assert len(journal.events()) == 1
        assert not journal.complete

    def test_headerless_journal_is_rejected(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"type": "event", "i": 1, "t": 0.5, "label": "a"}\n')
        with pytest.raises(JournalError):
            read_journal(path)

    def test_truncate_drops_past_barrier_and_end(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        writer = JournalWriter(path, scenario={"name": "t"})
        for i in range(1, 6):
            writer.append_event(i, float(i), f"e{i}")
        writer.close(5, 5.0, "final")

        kept = truncate(path, fired=3)
        assert kept == 3
        journal = read_journal(path)
        assert [e["i"] for e in journal.events()] == [1, 2, 3]
        assert not journal.complete

        # A resumed writer continues where the truncated journal ends.
        resumed = JournalWriter(path, append=True)
        resumed.append_event(4, 4.0, "e4-again")
        resumed.abandon()
        assert [e["label"] for e in read_journal(path).events()] == \
            ["e1", "e2", "e3", "e4-again"]


# --------------------------------------------------------------------------- #
# checkpoint file
# --------------------------------------------------------------------------- #
class TestCheckpointFile:
    def _checkpoint(self):
        return Checkpoint(scenario={"name": "t", "seed": 3, "params": {}},
                          time=45.0, fired=226, digest="abc123",
                          digest_every=25, state={"kernel": {"now": 45.0}})

    def test_save_load_round_trip(self, tmp_path):
        path = str(tmp_path / "checkpoint.json")
        size = self._checkpoint().save(path)
        assert size == os.path.getsize(path) > 0
        loaded = Checkpoint.load(path)
        assert loaded.time == 45.0
        assert loaded.fired == 226
        assert loaded.digest == "abc123"
        assert loaded.state == {"kernel": {"now": 45.0}}
        assert loaded.version == CHECKPOINT_VERSION

    def test_tampered_payload_is_rejected(self, tmp_path):
        path = str(tmp_path / "checkpoint.json")
        self._checkpoint().save(path)
        document = json.load(open(path))
        document["payload"]["fired"] = 9999
        json.dump(document, open(path, "w"))
        with pytest.raises(CheckpointError, match="integrity"):
            Checkpoint.load(path)

    def test_unsupported_version_is_rejected(self, tmp_path):
        path = str(tmp_path / "checkpoint.json")
        checkpoint = self._checkpoint()
        checkpoint.version = 99
        checkpoint.save(path)
        with pytest.raises(CheckpointError, match="version"):
            Checkpoint.load(path)

    def test_non_checkpoint_file_is_rejected(self, tmp_path):
        path = str(tmp_path / "checkpoint.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"something": "else"}')
        with pytest.raises(CheckpointError):
            Checkpoint.load(path)

    def test_default_paths_layout(self, tmp_path):
        paths = default_paths(str(tmp_path))
        assert paths["checkpoint"].endswith("checkpoint.json")
        assert paths["journal"].endswith("journal.jsonl")
        assert paths["divergence"].endswith("divergence.json")
