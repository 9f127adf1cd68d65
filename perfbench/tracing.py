"""In-memory span tracing by wrapping the program's public layer calls.

The benchmark traces the program from outside: :class:`Tracer` replaces
chosen functions and methods of the ``repro`` package with timing
wrappers, keeps every span in memory as a tuple
``(name, start, end, parent, run_id)`` and restores the originals on
:meth:`Tracer.restore`.  Nothing inside the program changes, so a traced
run executes the same events in the same order as an untraced one.

Wrappers must be installed before the landscape is built: some layers
bind methods once at build time (``SecurityPlane`` installs
``MessageAuthenticator.signer`` as a transport interceptor), and a
bound method taken before :meth:`Tracer.install` would bypass the
wrapper.

A span's *self time* is its duration minus the time its child spans
cover; per-layer times are sums of self time, so nested calls are never
counted twice.
"""

from __future__ import annotations

import csv
import importlib
import sys
from collections import Counter
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Span-timed calls: (module, owner, attribute, span name).  ``owner`` is
#: a class name, or None for a module-level function (patched in every
#: ``repro`` module that imported it by name).
SPANNED: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("repro.simulation.kernel", "Simulator", "step", "simulation.step"),
    ("repro.network.transport", "Network", "send", "network.send"),
    ("repro.network.topology", "Topology", "route", "network.route"),
    ("repro.persistence.snapshot", None, "system_digest",
     "persistence.digest"),
    ("repro.persistence.journal", "JournalWriter", "append_event",
     "persistence.journal"),
    ("repro.persistence.journal", "JournalWriter", "append_digest",
     "persistence.journal"),
    ("repro.persistence.journal", "JournalWriter", "close",
     "persistence.journal"),
    ("repro.security.auth", "MessageAuthenticator", "signer",
     "security.sign"),
    ("repro.security.auth", "MessageAuthenticator", "verify",
     "security.verify"),
    ("repro.shard.gateway", "FederationGateway", "send", "shard.send"),
    ("repro.shard.gateway", "FederationGateway", "deliver", "shard.deliver"),
    ("repro.shard.gateway", "FederationGateway", "inject", "shard.inject"),
    ("repro.shard.gateway", "FederationGateway", "drain_outbox",
     "shard.drain"),
    ("repro.observability.slo", "SloMonitor", "evaluate_now",
     "observability.slo"),
    ("repro.chaos.compiler", "ScenarioCompiler", "compile", "chaos.compile"),
)

#: Count-only calls: (module, owner, attribute, counter name).
COUNTED: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("repro.simulation.kernel", "Simulator", "schedule_at",
     "simulation.schedules"),
    ("repro.traffic.client", "TrafficClient", "submit", "traffic.submits"),
    ("repro.adaptation.mape", "MapeLoop", "_monitor",
     "adaptation.mape_iterations"),
    ("repro.adaptation.executor", "Executor", "execute",
     "adaptation.plans_executed"),
    ("repro.chaos.campaign", None, "run_case", "chaos.cases"),
)

#: Topology writes, counted only while a kernel event executes (so the
#: landscape build is not counted, a handover or link fault is).
TOPOLOGY_WRITES: Tuple[Tuple[str, str, str], ...] = (
    ("repro.network.topology", "Topology", "add_link_with_profile"),
    ("repro.network.topology", "Topology", "remove_node"),
    ("repro.network.link", "Link", "set_up"),
    ("repro.network.link", "Link", "set_degradation"),
)

#: Constructors whose instances hold the layer's own outcome counters.
COLLECTED: Tuple[Tuple[str, str, str], ...] = (
    ("repro.network.transport", "Network", "network"),
    ("repro.traffic.client", "TrafficClient", "traffic"),
    ("repro.security.auth", "MessageAuthenticator", "security"),
)

_STEP = "simulation.step"


def _is_wrapper(value: Any) -> bool:
    return getattr(value, "__perfbench_original__", None) is not None


class Tracer:
    """Install timing wrappers, record spans in memory, restore on exit."""

    def __init__(self) -> None:
        self.run_id = "run"
        self.spans: List[Any] = []
        self.counts: Counter = Counter()
        self.instances: Dict[str, List[Any]] = {"network": [], "traffic": [],
                                                "security": []}
        self._stack: List[int] = []
        self._in_event = 0
        self._patches: List[Tuple[Any, str, Any, bool]] = []

    # -- installation --------------------------------------------------- #
    def install(self) -> "Tracer":
        for module, owner, attr, name in SPANNED:
            self._patch(module, owner, attr, self._span_wrapper(name))
        for module, owner, attr, name in COUNTED:
            self._patch(module, owner, attr, self._count_wrapper(name))
        for module, owner, attr in TOPOLOGY_WRITES:
            self._patch(module, owner, attr, self._write_wrapper())
        for module, owner, kind in COLLECTED:
            self._patch(module, owner, "__init__",
                        self._collect_wrapper(kind))
        return self

    def restore(self) -> None:
        """Put every original back, including copies other modules took."""
        for target, attr, original, owned in reversed(self._patches):
            if owned:
                setattr(target, attr, original)
            else:
                delattr(target, attr)
        self._patches.clear()
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "")
            if name != "repro" and not name.startswith("repro."):
                continue
            for attr, value in list(vars(module).items()):
                if _is_wrapper(value):
                    setattr(module, attr, value.__perfbench_original__)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc: Any) -> None:
        self.restore()

    def _patch(self, module_name: str, owner: Optional[str], attr: str,
               make: Callable[[Callable], Callable]) -> None:
        module = importlib.import_module(module_name)
        if owner is not None:
            cls = getattr(module, owner)
            original = getattr(cls, attr)
            owned = attr in vars(cls)
            setattr(cls, attr, self._mark(make(original), original))
            self._patches.append((cls, attr, original, owned))
            return
        original = getattr(module, attr)
        wrapper = self._mark(make(original), original)
        for other in list(sys.modules.values()):
            name = getattr(other, "__name__", "")
            if ((name == "repro" or name.startswith("repro."))
                    and vars(other).get(attr) is original):
                setattr(other, attr, wrapper)
                self._patches.append((other, attr, original, True))

    @staticmethod
    def _mark(wrapper: Callable, original: Callable) -> Callable:
        wrapper.__perfbench_original__ = original
        return wrapper

    # -- wrappers ------------------------------------------------------- #
    def _span_wrapper(self, name: str) -> Callable[[Callable], Callable]:
        spans, stack, counts = self.spans, self._stack, self.counts
        tracer = self
        is_step = name == _STEP
        # Span counts come from self_times(); only fired kernel events
        # (step() returned True) need a counter of their own.

        def make(fn: Callable) -> Callable:
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                index = len(spans)
                spans.append(None)
                parent = stack[-1] if stack else -1
                stack.append(index)
                if is_step:
                    tracer._in_event += 1
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    stack.pop()
                    if is_step:
                        tracer._in_event -= 1
                    spans[index] = (name, start, end, parent, tracer.run_id)
                if is_step and result:
                    counts["simulation.events"] += 1
                return result
            return wrapper
        return make

    def _count_wrapper(self, name: str) -> Callable[[Callable], Callable]:
        counts = self.counts

        def make(fn: Callable) -> Callable:
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper
        return make

    def _write_wrapper(self) -> Callable[[Callable], Callable]:
        counts = self.counts
        tracer = self

        def make(fn: Callable) -> Callable:
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                if tracer._in_event:
                    counts["network.topology_writes"] += 1
                return fn(*args, **kwargs)
            return wrapper
        return make

    def _collect_wrapper(self, kind: str) -> Callable[[Callable], Callable]:
        bucket = self.instances[kind]

        def make(fn: Callable) -> Callable:
            def wrapper(instance: Any, *args: Any, **kwargs: Any) -> None:
                fn(instance, *args, **kwargs)
                # Keep only the counter objects, never the system they
                # belong to, so many short campaign cases do not pile up.
                bucket.append(instance if kind == "security"
                              else instance.stats)
            return wrapper
        return make

    # -- results -------------------------------------------------------- #
    def self_times(self, run_id: str = "run") -> Dict[str, Tuple[int, float,
                                                                  float]]:
        """Per span name: (spans, inclusive seconds, self seconds)."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span is not None and span[3] >= 0:
                covered[span[3]] += span[2] - span[1]
        out: Dict[str, List[float]] = {}
        for index, span in enumerate(self.spans):
            if span is None or span[4] != run_id:
                continue
            total = span[2] - span[1]
            row = out.setdefault(span[0], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += total
            row[2] += total - covered[index]
        return {name: (int(n), incl, own)
                for name, (n, incl, own) in out.items()}

    def write_spans(self, path: str) -> None:
        """Write every recorded span as CSV (called once, after the run)."""
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "name", "start_s", "end_s", "parent",
                             "run"])
            for index, span in enumerate(self.spans):
                if span is not None:
                    name, start, end, parent, run_id = span
                    writer.writerow([index, name, f"{start:.9f}",
                                     f"{end:.9f}", parent, run_id])
