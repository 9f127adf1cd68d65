"""The client side of the request lifecycle.

A :class:`TrafficClient` owns *calls*: a call is submitted once, may
fan out into several attempts (retries, hedges), and ends in exactly one
of completed / failed / short-circuited.  All the resilience patterns
compose here, in the order real clients apply them:

1. circuit breaker gate (fast-fail without touching the network),
2. attempt timeout bounded by the overall call deadline,
3. retry with jittered exponential backoff, spending the retry budget,
4. speculative hedging after a tail-latency delay.

Counters go through both the local :class:`~repro.traffic.stats.TrafficStats`
(weighted, KPI-facing) and ``metrics.increment`` (digest-visible, so any
divergence in traffic outcomes fails the persistence digest check).
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, Optional

from repro.network.transport import Network
from repro.simulation.kernel import Simulator
from repro.simulation.metrics import MetricsRecorder
from repro.simulation.trace import TraceLog
from repro.traffic.patterns import (
    CircuitBreaker,
    HedgePolicy,
    RetryBudget,
    RetryPolicy,
)
from repro.traffic.request import REQUEST_KIND, reply_kind
from repro.traffic.stats import TrafficStats

#: Sample series carrying weighted completions, for windowed goodput.
COMPLETIONS_SERIES = "traffic.completions"

OnComplete = Callable[[int, bool], None]


class TrafficClient:
    """Issues requests from ``origin`` to ``target`` with resilience patterns."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        name: str,
        origin: str,
        target: str,
        rng: random.Random,
        timeout: float = 0.25,
        deadline: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
        budget: Optional[RetryBudget] = None,
        breaker: Optional[CircuitBreaker] = None,
        hedge: Optional[HedgePolicy] = None,
        metrics: Optional[MetricsRecorder] = None,
        trace: Optional[TraceLog] = None,
        on_complete: Optional[OnComplete] = None,
    ) -> None:
        if timeout <= 0:
            raise ValueError("timeout must be positive")
        if deadline is not None and deadline < timeout:
            raise ValueError("deadline must be >= the attempt timeout")
        self.sim = sim
        self.network = network
        self.name = name
        self.origin = origin
        self.target = target   # mutable: MAPE re-route actions repoint it
        self.rng = rng
        self.timeout = timeout
        self.deadline = deadline
        self.retry = retry
        self.budget = budget
        self.breaker = breaker
        self.hedge = hedge
        self.metrics = metrics
        self.trace = trace
        self.on_complete = on_complete
        self.stats = TrafficStats()
        self._next_id = 0
        self._open: Dict[int, Dict[str, Any]] = {}
        network.register(origin, reply_kind(name), self._on_reply)

    # -- submission --------------------------------------------------------- #
    def submit(self, weight: int = 1, priority: int = 0) -> int:
        """Start one call of ``weight`` user-requests; returns its id."""
        now = self.sim.now
        req_id = self._next_id
        self._next_id += 1
        self.stats.offered += weight
        self._count("offered", weight)
        if self.breaker is not None and not self.breaker.allow(now):
            # Fast-fail: no network traffic, no open call, no events.
            self.stats.short_circuited += weight
            self._count("short_circuited", weight)
            self._completed(req_id, False)
            return req_id
        if self.budget is not None:
            self.budget.deposit(weight)
        call = {
            "req_id": req_id,
            "weight": weight,
            "priority": priority,
            "created": now,
            "deadline_at": None if self.deadline is None else now + self.deadline,
            "attempt": 1,
            "hedges_sent": 0,
            "timeout_event": None,
            "hedge_event": None,
            "retry_event": None,
            # Telemetry only (digest-neutral):
            # the request span carries the critical-path segment breakdown
            # read by repro.observability.profile, and attempt_started
            # anchors the current attempt for that decomposition.
            "span": None,
            "attempt_started": now,
        }
        spans = self.network.spans
        if spans is not None:
            call["span"] = spans.start(
                f"request:{self.name}", "request", now,
                req_id=req_id, weight=weight, target=self.target)
        self._open[req_id] = call
        self._send_attempt(call)
        return req_id

    def _send_attempt(self, call: Dict[str, Any],
                      destination: Optional[str] = None,
                      hedged: bool = False) -> None:
        now = self.sim.now
        if not hedged:
            call["attempt_started"] = now
        payload = {
            "req_id": call["req_id"],
            "client": self.name,
            "origin": self.origin,
            "created_at": call["created"],
            "weight": call["weight"],
            "priority": call["priority"],
            "attempt": call["attempt"],
            "hedged": hedged,
        }
        self.network.send(self.origin, destination or self.target,
                          REQUEST_KIND, payload=payload)
        if hedged:
            return  # the primary attempt's timeout still governs the call
        timeout_at = now + self.timeout
        if call["deadline_at"] is not None:
            timeout_at = min(timeout_at, call["deadline_at"])
        call["timeout_event"] = self.sim.schedule(
            max(0.0, timeout_at - now),
            lambda _s, r=call["req_id"], a=call["attempt"]: self._on_timeout(r, a),
            label=f"traffic.timeout:{self.name}",
        )
        if (self.hedge is not None and call["attempt"] == 1
                and call["hedges_sent"] < self.hedge.max_hedges
                and self.hedge.delay < timeout_at - now):
            call["hedge_event"] = self.sim.schedule(
                self.hedge.delay,
                lambda _s, r=call["req_id"]: self._on_hedge(r),
                label=f"traffic.hedge:{self.name}",
            )

    # -- outcomes ----------------------------------------------------------- #
    def _on_reply(self, message) -> None:
        payload = message.payload
        call = self._open.get(payload["req_id"])
        weight = int(payload["weight"])
        if call is None or call["retry_event"] is not None:
            # The call already ended (or gave up on this attempt and is
            # waiting out a backoff): a reply now is wasted server work.
            self.stats.late += weight
            self._count("late", weight)
            return
        now = self.sim.now
        if payload["status"] == "ok":
            latency = now - call["created"]
            self.stats.completed += weight
            self.stats.latency.observe(latency, weight)
            self._count("completed", weight)
            if self.metrics is not None:
                self.metrics.record(COMPLETIONS_SERIES, now, float(weight))
                self.metrics.record(f"traffic.latency:{self.name}", now, latency)
            if self.breaker is not None:
                self.breaker.record_success(now)
            span = call["span"]
            if span is not None:
                # Segment decomposition: retry covers everything before the
                # answering attempt started (backoffs + failed attempts),
                # queue/service come from the server's reply, and network is
                # the residual -- so the four segments sum to the measured
                # end-to-end latency by construction.
                queue_s = float(payload.get("queued_for", 0.0))
                service_s = float(payload.get("service_time", 0.0))
                retry_s = call["attempt_started"] - call["created"]
                network_s = max(0.0, latency - retry_s - queue_s - service_s)
                self.network.spans.finish(
                    span, now, status="ok",
                    queue_s=queue_s, service_s=service_s,
                    network_s=network_s, retry_s=retry_s,
                    attempts=call["attempt"] + call["hedges_sent"])
            self._close(call)
            self._completed(call["req_id"], True)
        else:  # rejected at the server door
            self.stats.rejected += weight
            self._count("rejected", weight)
            if self.breaker is not None:
                self.breaker.record_failure(now)
            self._attempt_failed(call)

    def _on_timeout(self, req_id: int, attempt: int) -> None:
        call = self._open.get(req_id)
        if call is None or call["attempt"] != attempt:
            return  # stale timer of a superseded attempt
        call["timeout_event"] = None
        weight = call["weight"]
        self.stats.timed_out += weight
        self._count("timed_out", weight)
        if self.breaker is not None:
            self.breaker.record_failure(self.sim.now)
        self._attempt_failed(call)

    def _on_hedge(self, req_id: int) -> None:
        call = self._open.get(req_id)
        if call is None:
            return
        call["hedge_event"] = None
        call["hedges_sent"] += 1
        self.stats.hedges += call["weight"]
        self._count("hedges", call["weight"])
        self._send_attempt(call, destination=self.hedge.target, hedged=True)

    def _attempt_failed(self, call: Dict[str, Any]) -> None:
        self._cancel_timers(call)
        now = self.sim.now
        retry = self.retry
        if retry is not None and call["attempt"] < retry.max_attempts:
            delay = retry.backoff(call["attempt"], self.rng)
            within_deadline = (call["deadline_at"] is None
                               or now + delay < call["deadline_at"])
            funded = self.budget is None or self.budget.withdraw(call["weight"])
            if within_deadline and funded:
                weight = call["weight"]
                self.stats.retries += weight
                self._count("retries", weight)
                call["attempt"] += 1
                call["retry_event"] = self.sim.schedule(
                    delay,
                    lambda _s, r=call["req_id"]: self._retry_fire(r),
                    label=f"traffic.retry:{self.name}",
                )
                return
        self._fail(call)

    def _retry_fire(self, req_id: int) -> None:
        call = self._open.get(req_id)
        if call is None:
            return
        call["retry_event"] = None
        self._send_attempt(call)

    def _fail(self, call: Dict[str, Any]) -> None:
        weight = call["weight"]
        self.stats.failed += weight
        self._count("failed", weight)
        span = call["span"]
        if span is not None:
            # No reply to read queue/service from: time in the last attempt
            # counts as network (sent, never usefully answered), everything
            # before it as retry -- still summing to end-to-end elapsed.
            now = self.sim.now
            retry_s = call["attempt_started"] - call["created"]
            self.network.spans.finish(
                span, now, status="failed",
                queue_s=0.0, service_s=0.0,
                network_s=max(0.0, now - call["attempt_started"]),
                retry_s=retry_s,
                attempts=call["attempt"] + call["hedges_sent"])
        self._close(call)
        self._completed(call["req_id"], False)

    def _close(self, call: Dict[str, Any]) -> None:
        self._cancel_timers(call)
        if call["retry_event"] is not None:
            self.sim.cancel(call["retry_event"])
            call["retry_event"] = None
        del self._open[call["req_id"]]

    def _cancel_timers(self, call: Dict[str, Any]) -> None:
        for key in ("timeout_event", "hedge_event"):
            if call[key] is not None:
                self.sim.cancel(call[key])
                call[key] = None

    def _completed(self, req_id: int, ok: bool) -> None:
        if self.on_complete is not None:
            self.on_complete(req_id, ok)

    def _count(self, outcome: str, weight: int) -> None:
        if self.metrics is not None:
            self.metrics.increment(f"traffic.{outcome}:{self.name}", weight)
