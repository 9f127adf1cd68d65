"""Raft-backed leases: safe, expiring leadership grants.

Bully election (used by the ML4 orchestrator for simplicity) can
transiently disagree during partitions; when mutual exclusion actually
matters -- "exactly one orchestrator may reconcile placements" -- the
textbook mechanism is a *lease* decided by consensus: acquire/renew
commands go through the Raft log, every replica applies them in the same
order, and expiry is judged against the holder's renewals rather than
wall-clock trust in any single node.

:class:`LeaseManager` is a state machine over a :class:`~repro.coordination.raft.RaftNode`'s
applied commands.  All replicas converge on the same holder because they
apply the same log; a holder that stops renewing (crash, partition from
the quorum) loses the lease after ``duration`` of log-time silence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.coordination.raft import RaftNode
from repro.simulation.kernel import Simulator


@dataclass
class LeaseState:
    """Current grant of one named lease."""

    holder: Optional[str] = None
    granted_at: float = 0.0
    expires_at: float = 0.0


class LeaseManager:
    """Lease state machine replicated through a Raft node.

    Each participant wraps its own :class:`RaftNode` with a manager; all
    managers apply identical command sequences, so their views agree.
    ``acquire``/``renew``/``release`` are *proposals*: they only take
    effect if this node's Raft instance is the leader and the command
    commits.  ``holder_of`` answers from the locally applied state.

    The Raft log carries logical timestamps (the proposer's sim time);
    expiry compares those against the local clock -- safe in the
    simulator where clocks are exact, and an explicit, documented
    assumption (bounded clock skew) for any real deployment.
    """

    def __init__(self, sim: Simulator, raft: RaftNode,
                 duration: float = 10.0,
                 on_change: Optional[Callable[[str, Optional[str]], None]] = None) -> None:
        if duration <= 0:
            raise ValueError("lease duration must be positive")
        self.sim = sim
        self.raft = raft
        self.duration = duration
        self.on_change = on_change
        self._leases: Dict[str, LeaseState] = {}
        # Chain onto any existing apply callback so RaftCluster ledgers
        # keep working alongside the lease state machine.
        previous_apply = raft.apply

        def apply(index: int, command) -> None:
            if previous_apply is not None:
                previous_apply(index, command)
            self._apply(command)

        raft.apply = apply

    # -- proposals ---------------------------------------------------------- #
    def acquire(self, lease: str) -> bool:
        """Propose taking the lease (succeeds later iff it commits and the
        lease is free/expired at apply time).  Returns False if this node
        cannot currently propose (not the Raft leader)."""
        return self._propose({"op": "acquire", "lease": lease,
                              "node": self.raft.node_id, "t": self.sim.now})

    def renew(self, lease: str) -> bool:
        return self._propose({"op": "renew", "lease": lease,
                              "node": self.raft.node_id, "t": self.sim.now})

    def release(self, lease: str) -> bool:
        return self._propose({"op": "release", "lease": lease,
                              "node": self.raft.node_id, "t": self.sim.now})

    def _propose(self, command: dict) -> bool:
        return self.raft.propose(command) is not None

    # -- state machine ------------------------------------------------------- #
    def _apply(self, command) -> None:
        if not isinstance(command, dict) or "op" not in command:
            return
        op = command["op"]
        lease = command.get("lease")
        node = command.get("node")
        time = command.get("t", 0.0)
        if lease is None or node is None:
            return
        state = self._leases.setdefault(lease, LeaseState())
        if op == "acquire":
            if state.holder is None or time >= state.expires_at \
                    or state.holder == node:
                self._grant(lease, state, node, time)
        elif op == "renew":
            if state.holder == node and time < state.expires_at:
                state.expires_at = time + self.duration
        elif op == "release":
            if state.holder == node:
                state.holder = None
                state.expires_at = time
                if self.on_change is not None:
                    self.on_change(lease, None)

    def _grant(self, lease: str, state: LeaseState, node: str, time: float) -> None:
        changed = state.holder != node
        state.holder = node
        state.granted_at = time
        state.expires_at = time + self.duration
        if changed and self.on_change is not None:
            self.on_change(lease, node)

    # -- queries ----------------------------------------------------------------#
    def holder_of(self, lease: str, now: Optional[float] = None) -> Optional[str]:
        """The currently valid holder, or None if free/expired."""
        state = self._leases.get(lease)
        if state is None or state.holder is None:
            return None
        now = self.sim.now if now is None else now
        if now >= state.expires_at:
            return None
        return state.holder

    def i_hold(self, lease: str) -> bool:
        return self.holder_of(lease) == self.raft.node_id

    def remaining(self, lease: str) -> float:
        state = self._leases.get(lease)
        if state is None or state.holder is None:
            return 0.0
        return max(0.0, state.expires_at - self.sim.now)


class LeaseKeeper:
    """Background routine: try to acquire the lease when free, renew while
    held.  Run one keeper per participant and exactly one valid holder
    emerges (ties are serialized by the Raft log)."""

    def __init__(self, sim: Simulator, manager: LeaseManager, lease: str,
                 period: float = 2.0) -> None:
        self.sim = sim
        self.manager = manager
        self.lease = lease
        self.period = period
        self._tick_event = None
        self._running = False

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._tick_event = self.sim.schedule(
            self.period, self._tick,
            label=f"lease-keeper:{self.manager.raft.node_id}")

    def stop(self) -> None:
        self._running = False
        if self._tick_event is not None:
            self.sim.cancel(self._tick_event)
            self._tick_event = None

    def _tick(self, sim: Simulator) -> None:
        if not self._running:
            return
        manager = self.manager
        if manager.raft.is_leader:
            holder = manager.holder_of(self.lease)
            if holder is None:
                manager.acquire(self.lease)
            elif holder == manager.raft.node_id:
                manager.renew(self.lease)
        self._tick_event = sim.schedule(
            self.period, self._tick,
            label=f"lease-keeper:{manager.raft.node_id}")


def start_lease_keeper(
    sim: Simulator,
    manager: LeaseManager,
    lease: str,
    period: float = 2.0,
) -> LeaseKeeper:
    """Start (and return) a :class:`LeaseKeeper` for one participant."""
    keeper = LeaseKeeper(sim, manager, lease, period=period)
    keeper.start()
    return keeper
