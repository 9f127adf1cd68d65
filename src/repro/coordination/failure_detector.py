"""Failure detectors.

Two classic detectors, both purely message-driven so they work over the
unreliable datagram transport:

* :class:`HeartbeatFailureDetector` -- fixed timeout on periodic
  heartbeats; simple and predictable, used inside Raft and bully election.
* :class:`PhiAccrualFailureDetector` -- Hayashibara et al.'s accrual
  detector: instead of a boolean, it outputs a suspicion level ``phi``
  computed from the distribution of observed inter-arrival times, which
  adapts to varying link latency (the paper's "latency" resilience factor).
"""

from __future__ import annotations

import math
from collections import deque
from typing import Callable, Deque, Dict, List, Optional

from repro.network.transport import Network
from repro.simulation.kernel import Simulator


class HeartbeatFailureDetector:
    """Timeout-based detector over periodic heartbeats.

    The owner node sends heartbeats to all monitored peers every
    ``period``; a peer that has not been heard from for ``timeout`` is
    suspected.  Callbacks fire on suspect and on recovery (un-suspect).
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        node_id: str,
        peers: List[str],
        period: float = 1.0,
        timeout: float = 3.0,
        on_suspect: Optional[Callable[[str], None]] = None,
        on_alive: Optional[Callable[[str], None]] = None,
    ) -> None:
        if timeout <= period:
            raise ValueError("timeout must exceed heartbeat period")
        self.sim = sim
        self.network = network
        self.node_id = node_id
        self.peers = [p for p in peers if p != node_id]
        self.period = period
        self.timeout = timeout
        self.on_suspect = on_suspect
        self.on_alive = on_alive
        self._last_heard: Dict[str, float] = {}
        self._suspected: Dict[str, bool] = {p: False for p in self.peers}
        self._running = False
        network.register(node_id, "fd.heartbeat", self._on_heartbeat)

    def start(self) -> None:
        """Begin emitting heartbeats and checking peer liveness."""
        if self._running:
            return
        self._running = True
        now = self.sim.now
        for peer in self.peers:
            self._last_heard.setdefault(peer, now)
        self._tick(self.sim)

    def stop(self) -> None:
        self._running = False

    def _tick(self, sim: Simulator) -> None:
        if not self._running:
            return
        if self.network.node_up(self.node_id):
            spans = self.network.spans
            if spans is not None:
                # One span per heartbeat round; the pings sent nest under it.
                span = spans.start(
                    f"fd:{self.node_id}", "coordination", sim.now,
                    node=self.node_id, suspected=sorted(
                        p for p, s in self._suspected.items() if s),
                )
                with spans.use(span):
                    self.network.broadcast(
                        self.node_id, self.peers, "fd.heartbeat",
                        payload={"from": self.node_id}, size_bytes=32,
                    )
                    self._check(sim.now)
                spans.finish(span, sim.now)
            else:
                self.network.broadcast(
                    self.node_id, self.peers, "fd.heartbeat",
                    payload={"from": self.node_id}, size_bytes=32,
                )
                self._check(sim.now)
        sim.schedule(self.period, self._tick, label=f"fd:{self.node_id}")

    def _on_heartbeat(self, message) -> None:
        peer = message.payload["from"]
        self._last_heard[peer] = self.sim.now
        if self._suspected.get(peer):
            self._suspected[peer] = False
            if self.on_alive is not None:
                self.on_alive(peer)

    def _check(self, now: float) -> None:
        for peer in self.peers:
            silent_for = now - self._last_heard.get(peer, now)
            if silent_for > self.timeout and not self._suspected.get(peer):
                self._suspected[peer] = True
                if self.on_suspect is not None:
                    self.on_suspect(peer)

    def suspects(self, peer: str) -> bool:
        return bool(self._suspected.get(peer))

    @property
    def alive_peers(self) -> List[str]:
        return [p for p in self.peers if not self._suspected.get(p)]


class PhiAccrualFailureDetector:
    """Accrual failure detector (Hayashibara et al., SRDS 2004).

    Maintains a sliding window of heartbeat inter-arrival times per peer
    and computes ``phi = -log10 P(no heartbeat for this long | history)``
    under a normal approximation.  ``phi`` crossing ``threshold``
    constitutes suspicion.  Unlike the timeout detector, suspicion adapts
    to each link's observed latency distribution.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        node_id: str,
        peers: List[str],
        period: float = 1.0,
        threshold: float = 8.0,
        window_size: int = 100,
        min_std: float = 0.05,
        on_suspect: Optional[Callable[[str], None]] = None,
        on_alive: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.sim = sim
        self.network = network
        self.node_id = node_id
        self.peers = [p for p in peers if p != node_id]
        self.period = period
        self.threshold = threshold
        self.min_std = min_std
        self.on_suspect = on_suspect
        self.on_alive = on_alive
        self._intervals: Dict[str, Deque[float]] = {p: deque(maxlen=window_size) for p in self.peers}
        self._last_arrival: Dict[str, float] = {}
        self._suspected: Dict[str, bool] = {p: False for p in self.peers}
        self._running = False
        network.register(node_id, "fd.phi_heartbeat", self._on_heartbeat)

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._tick(self.sim)

    def stop(self) -> None:
        self._running = False

    def _tick(self, sim: Simulator) -> None:
        if not self._running:
            return
        if self.network.node_up(self.node_id):
            spans = self.network.spans
            if spans is not None:
                span = spans.start(
                    f"phi:{self.node_id}", "coordination", sim.now,
                    node=self.node_id,
                )
                with spans.use(span):
                    self.network.broadcast(
                        self.node_id, self.peers, "fd.phi_heartbeat",
                        payload={"from": self.node_id}, size_bytes=32,
                    )
                    self._evaluate(sim.now)
                spans.finish(span, sim.now)
            else:
                self.network.broadcast(
                    self.node_id, self.peers, "fd.phi_heartbeat",
                    payload={"from": self.node_id}, size_bytes=32,
                )
                self._evaluate(sim.now)
        sim.schedule(self.period, self._tick, label=f"phi:{self.node_id}")

    def _on_heartbeat(self, message) -> None:
        peer = message.payload["from"]
        now = self.sim.now
        last = self._last_arrival.get(peer)
        if last is not None:
            self._intervals[peer].append(now - last)
        self._last_arrival[peer] = now
        if self._suspected.get(peer):
            self._suspected[peer] = False
            if self.on_alive is not None:
                self.on_alive(peer)

    def phi(self, peer: str, now: Optional[float] = None) -> float:
        """Current suspicion level for ``peer`` (0 = just heard from)."""
        now = self.sim.now if now is None else now
        last = self._last_arrival.get(peer)
        intervals = self._intervals.get(peer)
        if last is None or not intervals:
            # No history yet: stay optimistic until the first interval.
            return 0.0
        mean = sum(intervals) / len(intervals)
        variance = sum((x - mean) ** 2 for x in intervals) / len(intervals)
        std = max(math.sqrt(variance), self.min_std)
        elapsed = now - last
        # P(interval > elapsed) under N(mean, std), via the survival
        # function of the normal distribution.
        z = (elapsed - mean) / std
        survival = 0.5 * math.erfc(z / math.sqrt(2.0))
        survival = max(survival, 1e-300)
        return -math.log10(survival)

    def _evaluate(self, now: float) -> None:
        for peer in self.peers:
            suspicious = self.phi(peer, now) > self.threshold
            if suspicious and not self._suspected.get(peer):
                self._suspected[peer] = True
                if self.on_suspect is not None:
                    self.on_suspect(peer)

    def suspects(self, peer: str) -> bool:
        return bool(self._suspected.get(peer))

    @property
    def alive_peers(self) -> List[str]:
        return [p for p in self.peers if not self._suspected.get(p)]
