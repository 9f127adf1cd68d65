"""Versioned, integrity-hashed checkpoint files.

A checkpoint captures everything needed to resume a run: the scenario
spec (how to rebuild the system), the barrier (simulated time + fired
event count) and the whole-system digest at the barrier (how to *verify*
the rebuild).  Resume fast-forwards a fresh build to the barrier; the
stored ``state`` is an audit record only.  The file is JSON with
a SHA-256 integrity hash over the canonical encoding of the payload, so
bit rot, truncation and hand-editing are all detected at load time.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.persistence.snapshot import canonical_json, state_digest

CHECKPOINT_VERSION = 1


class CheckpointError(ValueError):
    """Raised for corrupt, incompatible or mismatched checkpoints."""


@dataclass
class Checkpoint:
    """One saved barrier of a run.

    Attributes
    ----------
    scenario:
        Serialized :class:`~repro.persistence.scenarios.ScenarioSpec`.
    time / fired:
        The barrier: simulated clock and kernel fired-event count.
    digest:
        Whole-system digest at the barrier; a resume *must* reproduce it.
    digest_every:
        Journal digest cadence the run was recorded with (a resumed run
        must keep the cadence or its digest chain would not line up).
    state:
        Offline audit record of the kernel, RNG streams and fleet at the
        barrier (:func:`~repro.persistence.snapshot.system_snapshot`).
        Resume never restores from it.
    """

    scenario: Dict[str, Any]
    time: float
    fired: int
    digest: str
    digest_every: int = 25
    state: Dict[str, Any] = field(default_factory=dict)
    version: int = CHECKPOINT_VERSION

    # -- persistence -------------------------------------------------------- #
    def to_payload(self) -> Dict[str, Any]:
        return {
            "version": self.version,
            "scenario": self.scenario,
            "time": self.time,
            "fired": self.fired,
            "digest": self.digest,
            "digest_every": self.digest_every,
            "state": self.state,
        }

    def save(self, path: str) -> int:
        """Write atomically; returns the file size in bytes."""
        payload = self.to_payload()
        document = {"payload": payload,
                    "integrity": state_digest(payload)}
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(document, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
        return os.path.getsize(path)

    @classmethod
    def load(cls, path: str) -> "Checkpoint":
        try:
            with open(path, encoding="utf-8") as fh:
                document = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"{path}: unreadable checkpoint: {exc}") from exc
        payload = document.get("payload")
        if payload is None or "integrity" not in document:
            raise CheckpointError(f"{path}: not a checkpoint file")
        expected = document["integrity"]
        actual = state_digest(_normalize(payload))
        if actual != expected:
            raise CheckpointError(
                f"{path}: integrity hash mismatch (file corrupted or edited): "
                f"recorded {expected[:12]}..., computed {actual[:12]}...")
        if payload.get("version") != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"{path}: unsupported checkpoint version "
                f"{payload.get('version')!r} (want {CHECKPOINT_VERSION})")
        return cls(
            scenario=payload["scenario"],
            time=float(payload["time"]),
            fired=int(payload["fired"]),
            digest=payload["digest"],
            digest_every=int(payload.get("digest_every", 25)),
            state=payload.get("state", {}),
            version=payload["version"],
        )


def _normalize(payload: Any) -> Any:
    """Round-trip through canonical JSON so the integrity hash computed at
    load time sees exactly what was hashed at save time (e.g. tuples that
    became lists)."""
    return json.loads(canonical_json(payload))


def default_paths(directory: str) -> Dict[str, str]:
    """The canonical file layout inside a checkpoint directory."""
    return {
        "checkpoint": os.path.join(directory, "checkpoint.json"),
        "journal": os.path.join(directory, "journal.jsonl"),
        "divergence": os.path.join(directory, "divergence.json"),
    }
