"""One benchmark repetition, in a fresh interpreter.

Usage (normally spawned by ``run.py``)::

    PYTHONPATH=src python3 perfbench/rep.py WORKLOAD SEED MODE SPAWNED \
        OUT_DIR BUDGET

``MODE`` is ``timed`` (the measured runs: no tracing, real worker count,
verified), ``traced`` (per-layer spans, in-process federation, plus the
quarter-size scale readout) or ``plain`` (the traced run's settings
without the tracer).  ``SPAWNED`` is the ``time.monotonic()`` reading the
parent took just before starting this interpreter, so set-up time
includes interpreter start and imports.

A timed repetition runs the workload again and again, each run a new
landscape built from the same input, until ``BUDGET`` seconds after
``SPAWNED`` are nearly spent (at least once).  It reads the host's speed
(``calibrate.reading``) before set-up (that reading's time is left out
of set-up), after each run and after each verification, so every timed
part has a reading on either side of it.  The repetition writes its
journals under ``OUT_DIR``, deletes them, and prints one JSON object as
its last line.

The program is driven only through its public entry points:
``run_scenario`` and ``replay_journal`` (landscape, churn),
``ShardedSimulator`` and ``verify_federation`` (federation),
``ChaosCampaign`` and ``run_case`` (campaign).  The end of set-up is
marked by one timestamp taken when the call that builds the landscape
returns.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import calibrate
import inputs


@contextmanager
def observe_returns(owner: Any, attr: str,
                    callback: Callable[[Any], None]) -> Iterator[None]:
    """Call ``callback`` with each return value of ``owner.attr``."""
    original = vars(owner)[attr]

    def wrapper(*args: Any, **kwargs: Any) -> Any:
        result = original(*args, **kwargs)
        callback(result)
        return result

    setattr(owner, attr, wrapper)
    try:
        yield
    finally:
        setattr(owner, attr, original)


@contextmanager
def setup_mark(owner: Any, attr: str) -> Iterator[List[float]]:
    """Timestamp the first return of the call that builds the landscape."""
    stamps: List[float] = []

    def stamp(_result: Any) -> None:
        if not stamps:
            stamps.append(time.monotonic())

    with observe_returns(owner, attr, stamp):
        yield stamps


class Readings:
    """Kernel readings taken inside a timed part, and the time they took.

    Only the campaign has natural pauses inside its run (between cases);
    its parts last seconds, so readings between its cases follow the
    host's speed better than readings on either side.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.values: List[float] = []
        self.spent = 0.0

    def take(self) -> None:
        if self.enabled:
            started = time.monotonic()
            self.values.append(calibrate.reading(passes=1))
            self.spent += time.monotonic() - started


def timed(verify: Callable[[], bool],
          inside: Optional[Readings] = None) -> Dict[str, Any]:
    """Run a verifier; its time leaves out readings taken inside it."""
    inside = inside or Readings(enabled=False)
    started = time.monotonic()
    verified = verify()
    return {"verified": verified,
            "verify_s": time.monotonic() - started - inside.spent,
            "verify_inside_kernel_s": inside.values}


def _tree_bytes(path: str) -> int:
    total = 0
    for root, _dirs, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(root, f)) for f in files)
    return total


# --------------------------------------------------------------------------- #
# Workload runners: each returns set-up/run stamps, the event count, the
# values correctness is checked on, workload extras, and under "verify" a
# function that runs the program's own verifier and times it.
# --------------------------------------------------------------------------- #
def run_chaos(workload: str, seed: int, out_dir: str, traced: bool,
              quarter: bool = False) -> Dict[str, Any]:
    from repro.chaos import persistence_spec
    from repro.persistence import runner
    from repro.persistence.replay import replay_journal

    spec = inputs.chaos_spec(workload, seed)
    if quarter:
        spec = inputs.quarter_spec(spec)
    journal = os.path.join(out_dir, "journal.jsonl")
    with setup_mark(runner, "prepare") as setup:
        result = runner.run_scenario(persistence_spec(spec),
                                     journal_path=journal)
    run_end = time.monotonic()
    events = result.system.sim.fired_count
    out = {"setup_end": setup[0], "run_end": run_end, "events": events,
           "check": {"digest": result.final_digest, "events": events},
           "journal_bytes": _tree_bytes(out_dir)}
    out["verify"] = lambda: timed(lambda: replay_journal(journal).ok)
    return out


def run_federation(seed: int, out_dir: str, traced: bool,
                   quarter: bool = False) -> Dict[str, Any]:
    from repro.shard import ShardedSimulator, driver, verify_federation

    spec = inputs.federation_spec(seed, quarter=quarter)
    workers = 1 if traced else inputs.FEDERATION["workers"]
    with setup_mark(driver, "lookahead_barriers") as setup:
        result = ShardedSimulator(spec, shards=inputs.FEDERATION["shards"],
                                  workers=workers, out_dir=out_dir).run()
    run_end = time.monotonic()
    stats = result.shard_stats
    out = {"setup_end": setup[0], "run_end": run_end,
           "events": result.events,
           "check": {"digest": result.federation_digest,
                     "events": result.events, "windows": result.windows},
           "journal_bytes": _tree_bytes(out_dir),
           "shard": {"windows": result.windows,
                     "busy_s": sum(s.wall_s for s in stats),
                     "sync_wait_s": result.sync_wait_s,
                     "mailbox_peak": max(s.outbox_peak for s in stats)}}

    def verify() -> bool:
        report = verify_federation(out_dir, workers=workers)
        return (report["ok"] and report["federation_digest"]
                == result.federation_digest)

    out["verify"] = lambda: timed(verify)
    return out


def run_campaign(seed: int, out_dir: str, traced: bool,
                 quarter: bool = False) -> Dict[str, Any]:
    from repro.chaos import ChaosCampaign, ScenarioCompiler, campaign

    events: List[int] = []
    # Untraced, the host speed is read after every case (shrink attempts
    # included); the readings' time is left out of run_s.
    inside = Readings(enabled=not traced)

    def on_case(case: Any) -> None:
        # Every case the campaign runs goes through run_case; its result
        # carries the case's event count.
        events.append(case.events)
        inside.take()

    with setup_mark(ScenarioCompiler, "compile") as setup, \
            observe_returns(campaign, "run_case", on_case):
        results = {seed_: ChaosCampaign(
            seed_, runs=inputs.CAMPAIGN["runs"],
            horizon=inputs.CAMPAIGN["horizon"], shrink=True,
            corpus_dir=None).run()
            for seed_ in inputs.campaign_seeds(seed)}
    run_end = time.monotonic() - inside.spent
    check: Dict[str, Any] = {str(seed_): {
        "cases": [case.digest for case in result.cases],
        "findings": [[f.case.spec.digest(), f.shrunk.digest(),
                      list(f.shrunk_violations), f.shrink_attempts]
                     for f in result.findings]}
        for seed_, result in results.items()}
    check["events"] = sum(events)
    out = {"setup_end": setup[0], "run_end": run_end,
           "events": check["events"], "check": check, "journal_bytes": 0,
           "inside_kernel_s": inside.values}
    again = Readings(enabled=not traced)

    def verify() -> bool:
        # Campaign cases are not journaled: every case is run again and
        # must reproduce its digest, and every shrunk spec must still
        # violate what its finding says.
        cases = [case for result in results.values()
                 for case in result.cases]
        findings = [f for result in results.values()
                    for f in result.findings]
        with observe_returns(campaign, "run_case",
                             lambda _case: again.take()):
            digests = [campaign.run_case(case.spec).digest
                       for case in cases]
            violations = [list(campaign.run_case(f.shrunk).violations)
                          for f in findings]
        return (digests == [case.digest for case in cases]
                and violations == [list(f.shrunk_violations)
                                   for f in findings])

    out["verify"] = lambda: timed(verify, again)
    return out


RUNNERS = {
    "landscape": lambda *a, **k: run_chaos("landscape", *a, **k),
    "churn": lambda *a, **k: run_chaos("churn", *a, **k),
    "federation": run_federation,
    "campaign": run_campaign,
}

#: Workloads whose traced run also measures a quarter-size landscape.
SCALED = ("landscape", "churn", "federation")


# --------------------------------------------------------------------------- #
# Per-layer metrics from a traced run
# --------------------------------------------------------------------------- #
def layer_metrics(tracer: Any, counts: Dict[str, int],
                  instances: Dict[str, list], out: Dict[str, Any],
                  quarter_send_us: Optional[float]) -> Dict[str, float]:
    times = tracer.self_times("run")

    def n(name: str) -> int:
        return times.get(name, (0, 0.0, 0.0))[0]

    def own(*names: str) -> float:
        return sum(times.get(name, (0, 0.0, 0.0))[2] for name in names)

    def per_us(seconds: float, calls: int) -> float:
        return seconds / calls * 1e6 if calls else 0.0

    sends, routes, digests = n("network.send"), n("network.route"), \
        n("persistence.digest")
    send_us = per_us(times.get("network.send", (0, 0.0, 0.0))[1], sends)
    net = instances["network"]
    sent = sum(stats.sent for stats in net)
    offered = sum(stats.offered for stats in instances["traffic"])
    auths = instances["security"]
    return {
        "network.sends": sends,
        "network.send_s": own("network.send"),
        "network.send_us": send_us,
        "network.routes": routes,
        "network.route_s": own("network.route"),
        "network.route_us": per_us(own("network.route"), routes),
        "network.topology_writes": counts.get("network.topology_writes", 0),
        "network.delivery_ratio": (sum(s.delivered for s in net) / sent
                                   if sent else 0.0),
        "network.size_cost_ratio": (send_us / quarter_send_us
                                    if quarter_send_us else 0.0),
        "persistence.digests": digests,
        "persistence.digest_s": own("persistence.digest"),
        "persistence.digest_us": per_us(own("persistence.digest"), digests),
        "persistence.journal_s": own("persistence.journal"),
        "persistence.journal_bytes": out["journal_bytes"],
        "shard.envelopes": n("shard.send"),
        "shard.gateway_s": own("shard.send", "shard.deliver", "shard.inject",
                               "shard.drain"),
        "simulation.events": counts.get("simulation.events", 0),
        "simulation.schedules": counts.get("simulation.schedules", 0),
        "simulation.self_s": own("simulation.step"),
        "traffic.submits": counts.get("traffic.submits", 0),
        "traffic.goodput_ratio": (sum(s.completed for s in
                                      instances["traffic"]) / offered
                                  if offered else 0.0),
        "security.signs": sum(a.signed for a in auths),
        "security.verifies": sum(a.verified + a.rejected for a in auths),
        "security.auth_s": own("security.sign", "security.verify"),
        "adaptation.mape_iterations":
            counts.get("adaptation.mape_iterations", 0),
        "adaptation.plans_executed":
            counts.get("adaptation.plans_executed", 0),
        "observability.slo_evals": n("observability.slo"),
        "observability.slo_s": own("observability.slo"),
        "chaos.compiles": n("chaos.compile"),
        "chaos.compile_s": own("chaos.compile"),
        "chaos.cases": counts.get("chaos.cases", 0),
    }


def traced_rep(workload: str, seed: int, out_dir: str) -> Dict[str, Any]:
    from tracing import Tracer

    drive = RUNNERS[workload]
    with Tracer() as tracer:
        out = drive(seed, out_dir, traced=True)
        counts = dict(tracer.counts)
        instances = {kind: list(items)
                     for kind, items in tracer.instances.items()}
        quarter_send_us = None
        if workload in SCALED:
            shutil.rmtree(out_dir, ignore_errors=True)
            os.makedirs(out_dir)
            tracer.run_id = "quarter"
            drive(seed, out_dir, traced=True, quarter=True)
            sends, inclusive, _ = tracer.self_times("quarter").get(
                "network.send", (0, 0.0, 0.0))
            quarter_send_us = inclusive / sends * 1e6 if sends else None
    tracer.write_spans(os.path.join(os.path.dirname(out_dir),
                                    f"spans-{workload}.csv"))
    out["layers"] = layer_metrics(tracer, counts, instances, out,
                                  quarter_send_us)
    return out


def read_speed(workload: str) -> List[float]:
    """One kernel reading, or none where it would not apply.

    A federation run and its verification keep both vCPUs busy; the
    single-threaded kernel does not see their speed, so they are timed
    unscaled.
    """
    return [] if workload in inputs.PARALLEL else [calibrate.reading()]


def timed_runs(workload: str, seed: int, out_dir: str, deadline: float,
               before: List[float]) -> List[Dict[str, Any]]:
    """Run the workload until ``deadline``.

    The host speed is read between each run and its verification, and
    after the verification; each run and each verification carries the
    readings on either side of it (``kernel_s``, ``verify_kernel_s``).
    ``before`` holds the reading taken before set-up, the one before the
    first run.  A campaign also reads between its cases (``Readings``).
    """
    runs: List[Dict[str, Any]] = []
    cycles: List[float] = []
    while True:
        started = time.monotonic()
        os.makedirs(out_dir, exist_ok=True)
        try:
            run = RUNNERS[workload](seed, out_dir, traced=False)
            verify = run.pop("verify")
            mid = read_speed(workload)
            run.update(verify())
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        after = read_speed(workload)
        run.update(kernel_s=before + run.pop("inside_kernel_s", []) + mid,
                   verify_kernel_s=mid + run.pop("verify_inside_kernel_s")
                   + after)
        before = after
        runs.append(run)
        cycles.append(time.monotonic() - started)
        if time.monotonic() + statistics.median(cycles) > deadline:
            return runs


def main(argv: list) -> int:
    workload, seed, mode, spawned, out_dir, budget = argv
    seed_n, spawned_at = int(seed), float(spawned)
    # The reading before set-up is taken on every workload (set-up runs
    # in one process even on federation); its own time is left out of
    # set-up.
    started = time.monotonic()
    setup_reading = [calibrate.reading()] if mode == "timed" else []
    reading_s = time.monotonic() - started
    os.makedirs(out_dir, exist_ok=True)
    try:
        if mode == "timed":
            runs = timed_runs(workload, seed_n, out_dir,
                              spawned_at + float(budget),
                              [] if workload in inputs.PARALLEL
                              else setup_reading)
        else:
            if mode == "traced":
                run = traced_rep(workload, seed_n, out_dir)
            else:
                # "plain" runs with the traced run's settings, untraced:
                # the baseline of trace.overhead.
                run = RUNNERS[workload](seed_n, out_dir, traced=True)
            run.pop("verify")
            run.pop("inside_kernel_s", None)
            run["kernel_s"] = [calibrate.reading()]
            runs = [run]
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    out = {"setup_s": runs[0]["setup_end"] - spawned_at - reading_s,
           "peak_rss_mb": (own + workers) / 1024.0,
           "inputs": inputs.describe(workload, seed_n), "runs": runs,
           "setup_kernel_s": runs[0]["kernel_s"] or setup_reading}
    for run in runs:
        run["run_s"] = run.pop("run_end") - run.pop("setup_end")
        run.setdefault("key", inputs.input_key(workload, seed_n))
    if "layers" in runs[0]:
        out["layers"] = runs[0].pop("layers")
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
