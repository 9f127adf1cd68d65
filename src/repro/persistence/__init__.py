"""Checkpoint, journal and deterministic replay.

The persistence subsystem makes experiments resumable and auditable.
Resume means deterministic fast-forward plus digest verification: a
checkpoint names its scenario spec and barrier, and resuming rebuilds the
scenario, re-runs it to that barrier and checks the recorded digest.  The
checkpoint's ``state`` is an offline audit record (kernel, RNG streams,
fleet) that is never restored.

* :mod:`~repro.persistence.snapshot` -- canonical-JSON digests,
  whole-system fingerprints and the checkpoint audit record.
* :mod:`~repro.persistence.journal` -- the append-only JSONL event
  journal (write-ahead log) with crash-tolerant reading and WAL-style
  truncation.
* :mod:`~repro.persistence.checkpoint` -- versioned, integrity-hashed
  checkpoint files.
* :mod:`~repro.persistence.scenarios` -- the declarative scenario
  registry that makes checkpoints rebuildable.
* :mod:`~repro.persistence.runner` -- journaled run / run-to-checkpoint /
  resume drivers.
* :mod:`~repro.persistence.replay` -- re-run a journal and report the
  first divergence.
"""

from repro.persistence.checkpoint import (
    CHECKPOINT_VERSION,
    Checkpoint,
    CheckpointError,
    default_paths,
)
from repro.persistence.journal import (
    JOURNAL_VERSION,
    JournalError,
    JournalRecords,
    JournalWriter,
    read_journal,
    truncate,
)
from repro.persistence.replay import (
    Divergence,
    ReplayReport,
    replay_journal,
    replay_records,
    write_divergence_report,
)
from repro.persistence.runner import (
    RunRecorder,
    RunResult,
    fast_forward,
    resume_run,
    run_scenario,
    run_to_checkpoint,
    save_checkpoint,
)
from repro.persistence.scenarios import (
    PreparedRun,
    ScenarioSpec,
    UnknownScenarioError,
    prepare,
    register_scenario,
    scenario_builders,
    scenario_names,
)
from repro.persistence.snapshot import (
    canonical_json,
    state_digest,
    system_digest,
    system_digest_state,
    system_snapshot,
)

__all__ = [
    "CHECKPOINT_VERSION",
    "Checkpoint",
    "CheckpointError",
    "Divergence",
    "JOURNAL_VERSION",
    "JournalError",
    "JournalRecords",
    "JournalWriter",
    "PreparedRun",
    "ReplayReport",
    "RunRecorder",
    "RunResult",
    "ScenarioSpec",
    "UnknownScenarioError",
    "canonical_json",
    "default_paths",
    "fast_forward",
    "prepare",
    "read_journal",
    "register_scenario",
    "replay_journal",
    "replay_records",
    "resume_run",
    "run_scenario",
    "run_to_checkpoint",
    "save_checkpoint",
    "scenario_builders",
    "scenario_names",
    "state_digest",
    "system_digest",
    "system_digest_state",
    "system_snapshot",
    "truncate",
    "write_divergence_report",
]
