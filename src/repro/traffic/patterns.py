"""Client-side resilience patterns: retry, budget, breaker, hedging.

These are the mechanism families the resilience survey catalogs for
keeping service delivery alive through transient faults -- and the ones
whose *misuse* creates metastable failures (the retry-storm scenario).
All randomness comes from the caller's seeded stream, so a resumed run
fast-forwards through the same draws bit-identically.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

# Circuit breaker states.
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


@dataclass(frozen=True)
class RetryPolicy:
    """Jittered exponential backoff schedule.

    The delay before retry ``n`` (n=1 for the first retry) is
    ``min(max_delay, base_delay * multiplier**(n-1))`` scaled by a
    uniform factor in ``[1-jitter, 1]``.  Jitter decorrelates retries
    across clients so a synchronized failure does not produce a
    synchronized retry spike.
    """

    max_attempts: int = 3      # total attempts, including the first
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 5.0
    jitter: float = 0.5        # fraction of the delay randomized away

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")

    def backoff(self, attempt: int, rng: random.Random) -> float:
        """Delay before retry number ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError("attempt must be >= 1")
        raw = min(self.max_delay,
                  self.base_delay * self.multiplier ** (attempt - 1))
        if self.jitter == 0.0:
            return raw
        return raw * (1.0 - self.jitter * rng.random())


class RetryBudget:
    """Token bucket bounding retries to a fraction of fresh traffic.

    Every initial request deposits ``ratio`` tokens (times its weight);
    every retry withdraws one token per unit of weight.  Under steady
    load the budget allows ``ratio`` retries per request -- enough to
    absorb sporadic failures -- but during a mass failure the bucket
    drains and retries are refused, cutting the positive feedback loop
    that turns a transient outage into a retry storm.
    """

    def __init__(self, ratio: float = 0.1, cap: float = 100.0,
                 initial: float = 10.0) -> None:
        if ratio < 0:
            raise ValueError("ratio must be non-negative")
        if cap <= 0:
            raise ValueError("cap must be positive")
        self.ratio = ratio
        self.cap = cap
        self.tokens = min(float(initial), cap)
        self.refused = 0   # weighted retries refused (for KPIs)

    def deposit(self, weight: int = 1) -> None:
        self.tokens = min(self.cap, self.tokens + self.ratio * weight)

    def withdraw(self, weight: int = 1) -> bool:
        """Spend ``weight`` tokens; False (and no spend) if underfunded."""
        if self.tokens >= weight:
            self.tokens -= weight
            return True
        self.refused += weight
        return False


class CircuitBreaker:
    """Three-state circuit breaker (closed / open / half-open).

    ``failure_threshold`` consecutive failures trip the breaker OPEN:
    :meth:`allow` then fast-fails every call (no network traffic) until
    ``recovery_time`` has passed, after which the breaker goes HALF_OPEN
    and admits up to ``half_open_probes`` concurrent probe calls.
    ``success_threshold`` consecutive probe successes re-close it; any
    probe failure re-opens it immediately.  State transitions are logged
    in :attr:`transitions` as ``(time, state)`` pairs so tests can assert
    the full state machine.
    """

    def __init__(self, failure_threshold: int = 5, recovery_time: float = 1.0,
                 half_open_probes: int = 1, success_threshold: int = 1) -> None:
        if failure_threshold < 1 or half_open_probes < 1 or success_threshold < 1:
            raise ValueError("thresholds must be >= 1")
        if recovery_time < 0:
            raise ValueError("recovery_time must be non-negative")
        self.failure_threshold = failure_threshold
        self.recovery_time = recovery_time
        self.half_open_probes = half_open_probes
        self.success_threshold = success_threshold
        self.state = CLOSED
        self.opened_at: Optional[float] = None
        self.trips = 0                         # CLOSED/HALF_OPEN -> OPEN count
        self.transitions: List[Tuple[float, str]] = []
        self._consecutive_failures = 0
        self._probes_in_flight = 0
        self._probe_successes = 0

    def _transition(self, state: str, now: float) -> None:
        self.state = state
        self.transitions.append((now, state))

    # -- the gate ---------------------------------------------------------- #
    def allow(self, now: float) -> bool:
        """May a call be sent now?  (HALF_OPEN: reserves a probe slot.)"""
        if self.state == OPEN:
            if self.opened_at is not None and now - self.opened_at >= self.recovery_time:
                self._transition(HALF_OPEN, now)
                self._probes_in_flight = 0
                self._probe_successes = 0
            else:
                return False
        if self.state == HALF_OPEN:
            if self._probes_in_flight >= self.half_open_probes:
                return False
            self._probes_in_flight += 1
            return True
        return True

    # -- outcome feedback -------------------------------------------------- #
    def record_success(self, now: float) -> None:
        if self.state == HALF_OPEN:
            self._probes_in_flight = max(0, self._probes_in_flight - 1)
            self._probe_successes += 1
            if self._probe_successes >= self.success_threshold:
                self._transition(CLOSED, now)
                self._consecutive_failures = 0
        else:
            self._consecutive_failures = 0

    def record_failure(self, now: float) -> None:
        if self.state == HALF_OPEN:
            self._trip(now)
        elif self.state == CLOSED:
            self._consecutive_failures += 1
            if self._consecutive_failures >= self.failure_threshold:
                self._trip(now)
        # OPEN: failures of already-in-flight calls don't extend the window.

    def _trip(self, now: float) -> None:
        self._transition(OPEN, now)
        self.opened_at = now
        self.trips += 1
        self._consecutive_failures = 0
        self._probes_in_flight = 0
        self._probe_successes = 0


@dataclass(frozen=True)
class HedgePolicy:
    """Speculative duplicate requests against tail latency.

    If the first attempt has no reply after ``delay``, send up to
    ``max_hedges`` duplicates (to ``target`` if set, else the call's
    normal destination).  First reply wins; the loser's reply is counted
    late and discarded.
    """

    delay: float
    max_hedges: int = 1
    target: Optional[str] = None

    def __post_init__(self) -> None:
        if self.delay < 0:
            raise ValueError("delay must be non-negative")
        if self.max_hedges < 1:
            raise ValueError("max_hedges must be >= 1")
