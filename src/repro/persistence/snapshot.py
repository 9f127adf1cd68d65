"""Canonical state digests and the checkpoint audit record.

Resume has one path: rebuild the scenario from its spec, fast-forward the
deterministic kernel to the checkpoint barrier and verify the digest
chain (:func:`repro.persistence.runner.fast_forward`).  Nothing is ever
restored from serialized component state.

This module provides canonical JSON hashing (:func:`state_digest`), the
compact whole-system digest (:func:`system_digest_state`) that the event
journal records at a configurable cadence, and the fuller
:func:`system_snapshot` that a checkpoint file stores as an offline audit
record.  Digests are the ground truth of the replay machinery: two runs
are "the same run" exactly when their digest chains match.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict


def canonical_json(state: Any) -> str:
    """Deterministic JSON encoding: sorted keys, no whitespace drift.

    Floats use Python's shortest-round-trip repr, which is bit-stable for
    equal doubles -- the property the digest chain relies on.
    """
    return json.dumps(state, sort_keys=True, separators=(",", ":"),
                      default=_fallback)


def _fallback(value: Any) -> Any:
    # Sets/frozensets and tuples appear in component state; encode
    # deterministically rather than failing.
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    raise TypeError(f"not JSON-serializable for snapshot: {value!r}")


def state_digest(state: Any) -> str:
    """SHA-256 hex digest of the canonical JSON encoding of ``state``."""
    return hashlib.sha256(canonical_json(state).encode("utf-8")).hexdigest()


# --------------------------------------------------------------------------- #
# Whole-system capture
# --------------------------------------------------------------------------- #
def system_digest_state(system) -> Dict[str, Any]:
    """Compact, deterministic fingerprint of an :class:`IoTSystem`.

    Small enough to compute every few events, yet sensitive to every
    divergence channel: the clock and event counters catch scheduling
    drift, RNG stream digests catch draw-order drift, transport counters
    catch message drift, fleet liveness and fault lists catch state drift,
    and metric counters catch adaptation drift.
    """
    sim = system.sim
    rngs = system.rngs.snapshot_state()
    stats = system.network.stats
    return {
        "kernel": {
            "now": sim.now,
            "fired": sim.fired_count,
            "next_seq": sim._next_seq,
            "pending": sim.pending_count,
        },
        "rngs": {
            name: state_digest(state)
            for name, state in rngs["streams"].items()
        },
        "network": [stats.sent, stats.delivered, stats.dropped_loss,
                    stats.dropped_unreachable, stats.total_latency,
                    stats.dropped_quarantined, stats.dropped_auth,
                    stats.dropped_intercepted],
        "fleet": {d.device_id: bool(d.up) for d in system.fleet.devices},
        "faults": {
            "injected": [f.name for f in system.injector.injected],
            "active": [f.name for f in system.injector.active_faults],
        },
        "counters": dict(system.metrics._counters),
        "trace_len": len(system.trace),
    }


def system_snapshot(system) -> Dict[str, Any]:
    """Full (auditable) system state for a checkpoint file.

    Superset of :func:`system_digest_state`: adds the kernel's pending
    event metadata, complete RNG stream states and per-device detail, so a
    saved checkpoint can be inspected offline and verified field-by-field
    against a replayed run.  It is an audit record only: resume never
    restores from it.
    """
    return {
        "kernel": system.sim.snapshot_state(),
        "rngs": system.rngs.snapshot_state(),
        "fleet": system.fleet.snapshot_state(),
        "digest_fields": system_digest_state(system),
    }


def system_digest(system) -> str:
    """The journal/checkpoint digest of a live system."""
    return state_digest(system_digest_state(system))
