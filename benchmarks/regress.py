#!/usr/bin/env python
"""Benchmark regression harness: ``BENCH_<n>.json`` perf-trajectory snapshots.

Each run executes a fixed set of bench scenarios (headline figure/table
experiments plus micro-benchmarks of the hot substrate), collects both
*deterministic* headline KPIs (reading counts, availability, repair
delays -- bit-identical across machines because the simulator is
deterministic) and *wall-clock* timings (machine-dependent), and writes
them as one ``BENCH_<n>.json`` snapshot.  Snapshots from different
commits compare with per-metric tolerances: deterministic KPIs must
match exactly, timings may drift within a generous bound -- so a CI run
can flag both behavioural drift and order-of-magnitude slowdowns without
flaking on scheduler noise.

Instrumented benches also capture a profiling-plane snapshot
(:func:`repro.observability.profile.capture_profile`) under a top-level
``profiles`` key -- ignored by the metric comparison, so old baselines
stay comparable -- and when a comparison *does* flag regressions the
report runs a differential profile over the two snapshots and names the
subsystem plane responsible for each regressed bench.

Usage::

    python benchmarks/regress.py --quick                  # snapshot to CWD
    python benchmarks/regress.py --quick --out benchmarks/baselines
    python benchmarks/regress.py --compare A.json B.json  # no runs
    python benchmarks/regress.py --baseline benchmarks/baselines/BENCH_1.json
    python benchmarks/regress.py --trajectory             # drift across snapshots
    python benchmarks/regress.py --self-test              # detection check

Exit status: 0 clean, 1 when a comparison detects a regression (or the
self-test fails).
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import random
import re
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

# Runnable as a script from a source checkout without installation.
_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
if os.path.isdir(_SRC) and _SRC not in sys.path:
    sys.path.insert(0, _SRC)

SCHEMA = 1

# --------------------------------------------------------------------------- #
# tolerances: metric name pattern -> (relative tolerance, direction)
#
# direction "higher" flags only increases (timings: slower is a
# regression, faster is not); "both" flags any drift beyond tolerance.
# Deterministic KPIs get an epsilon tolerance: the simulator guarantees
# bit-identical runs, so *any* change is a behavioural difference worth
# a human look (and an intentional one is absorbed by re-baselining).
# --------------------------------------------------------------------------- #
_EPS = 1e-9
TOLERANCES: List[Tuple[str, float, str]] = [
    (r".*wall_s$", 1.0, "higher"),          # allow 2x before flagging
    (r".*\.events_per_s$", 0.5, "lower"),   # throughput: flag 50% drops
    (r".*\.specs_per_s$", 0.5, "lower"),    # compile throughput: same rule
    (r".*\.speedup_k\d+$", 0.5, "lower"),   # shard scaling: flag 50% drops
    (r".*", _EPS, "both"),                  # everything else: deterministic
]


def tolerance_for(metric: str) -> Tuple[float, str]:
    for pattern, tol, direction in TOLERANCES:
        if re.fullmatch(pattern, metric):
            return tol, direction
    return _EPS, "both"  # pragma: no cover - final pattern matches all


# --------------------------------------------------------------------------- #
# bench scenarios
# --------------------------------------------------------------------------- #
# Profiling-plane snapshots captured as a side effect of instrumented
# bench runs; take_snapshot() clears this and folds it into the
# ``profiles`` section of the written BENCH_<n>.json.
_RUN_PROFILES: Dict[str, Dict[str, Any]] = {}


def paired_min(reps: int, legs: Dict[Any, Callable[[], Tuple[float, Any]]]
               ) -> Tuple[Dict[Any, float], Dict[Any, float],
                          Dict[Any, List[Any]]]:
    """Run ``legs`` back to back ``reps`` times; min walls and pair ratios.

    Each leg returns ``(wall_s, payload)``.  Scheduler noise only ever
    inflates a leg, so the min wall per leg, and the min over reps of
    each leg's wall over the first leg's wall in the same rep, are the
    closest observations of the intrinsic costs.  Returns ``(walls,
    ratios, payloads)``; ``payloads`` lists every rep's payload per leg.
    """
    walls = {name: float("inf") for name in legs}
    ratios = {name: float("inf") for name in legs}
    payloads: Dict[Any, List[Any]] = {name: [] for name in legs}
    base = next(iter(legs))
    for _ in range(reps):
        rep: Dict[Any, float] = {}
        for name, leg in legs.items():
            rep[name], payload = leg()
            walls[name] = min(walls[name], rep[name])
            payloads[name].append(payload)
        if rep[base] > 0:
            for name in legs:
                ratios[name] = min(ratios[name], rep[name] / rep[base])
    return walls, ratios, payloads


def bench_smart_city(quick: bool) -> Dict[str, float]:
    """The observed smart-city disruption run and its resilience KPIs."""
    from repro.cli import _run_smart_city_partition

    started = time.perf_counter()
    system = _run_smart_city_partition(quick)
    wall = time.perf_counter() - started
    system.spans.finish_open(system.sim.now)
    _RUN_PROFILES["smart_city"] = system.profile_snapshot(
        meta={"scenario": "smart-city-partition", "quick": quick})
    report = system.kpi_report()
    arcs = report.arcs
    mttrs = [arc.mttr for arc in arcs if arc.mttr is not None]
    return {
        "wall_s": wall,
        "availability": report.availability or 0.0,
        "worst_availability": report.worst_availability or 0.0,
        "faults": float(len(arcs)),
        "resolved": float(sum(1 for a in arcs if a.resolved)),
        "mttr_total_s": float(sum(mttrs)),
        "messages_delivered": float(system.network.stats.delivered),
        "spans": float(len(system.spans.spans)),
    }


def bench_mape_outage(quick: bool) -> Dict[str, float]:
    """Fig. 5's edge-placed MAPE loop healing through a cloud outage."""
    from repro.experiments import mape_repair_delays, run_mape_placement

    started = time.perf_counter()
    system, loops = run_mape_placement("edge")
    wall = time.perf_counter() - started
    delays = mape_repair_delays(system, loops)
    return {
        "wall_s": wall,
        "repairs": float(len(delays)),
        "repair_fastest_s": float(delays[0]) if delays else -1.0,
        "repair_slowest_s": float(delays[-1]) if delays else -1.0,
        "missed_observations": float(
            sum(loop.missed_observations for loop in loops)),
    }


def bench_kernel(quick: bool) -> Dict[str, float]:
    """Raw event-loop throughput: a self-rescheduling event chain."""
    from repro.simulation.kernel import Simulator

    n = 20_000 if quick else 100_000
    sim = Simulator()
    fired = [0]

    def tick(s) -> None:
        fired[0] += 1
        if fired[0] < n:
            s.schedule(0.001, tick)

    sim.schedule(0.0, tick)
    started = time.perf_counter()
    sim.run(until=n)
    wall = time.perf_counter() - started
    return {
        "wall_s": wall,
        "events": float(fired[0]),
        "final_now": round(sim.now, 6),
        "events_per_s": fired[0] / wall if wall > 0 else 0.0,
    }


def bench_histogram(quick: bool) -> Dict[str, float]:
    """Streaming-histogram ingest rate plus deterministic quantiles."""
    from repro.observability.histogram import StreamingHistogram

    n = 50_000 if quick else 200_000
    rng = random.Random(42)
    values = [rng.lognormvariate(-3.0, 1.0) for _ in range(n)]
    hist = StreamingHistogram()
    started = time.perf_counter()
    for value in values:
        hist.observe(value)
    wall = time.perf_counter() - started
    return {
        "wall_s": wall,
        "events_per_s": n / wall if wall > 0 else 0.0,
        "count": float(hist.count),
        "p50": round(hist.quantile(0.5), 9),
        "p99": round(hist.quantile(0.99), 9),
    }


def bench_persistence(quick: bool) -> Dict[str, float]:
    """Checkpoint/resume/replay overhead and end-to-end determinism.

    Runs the control-outage scenario uninterrupted, then interrupted at
    mid-horizon + resumed, and replays the resumed journal.  Timings and
    checkpoint size come from the persistence telemetry series; the
    digest/replay metrics are deterministic and must stay bit-identical.
    """
    import shutil
    import tempfile

    from repro.persistence import (
        ScenarioSpec,
        replay_journal,
        resume_run,
        run_scenario,
        run_to_checkpoint,
    )

    spec = ScenarioSpec(name="control-outage", seed=11)
    tmp = tempfile.mkdtemp(prefix="bench-persistence-")
    started = time.perf_counter()
    try:
        reference = run_scenario(
            spec, journal_path=os.path.join(tmp, "reference.jsonl"))
        interrupted = run_to_checkpoint(spec, tmp, at=45.0)
        metrics = interrupted.system.metrics
        save_s = metrics.series("persistence.checkpoint.save_s").values[-1]
        size_b = metrics.series("persistence.checkpoint.bytes").values[-1]
        resumed = resume_run(directory=tmp)
        replay = replay_journal(os.path.join(tmp, "journal.jsonl"))
        return {
            "wall_s": time.perf_counter() - started,
            "save.wall_s": float(save_s),
            "restore.wall_s": float(resumed.fast_forward_s),
            "checkpoint_bytes": float(size_b),
            "fired_at_checkpoint": float(interrupted.checkpoint.fired),
            "fired_total": float(resumed.system.sim.fired_count),
            "digest_match": float(
                resumed.final_digest == reference.final_digest),
            "replay_ok": float(replay.ok),
        }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def bench_traffic(quick: bool) -> Dict[str, float]:
    """Serving-plane throughput and the overload/retry-storm KPIs.

    The cohort runs prove load generation scales with aggregate rate,
    not user count: the 100k-client run must fire the same order of
    magnitude of kernel events as the 10k-client run.  The overload and
    retry-storm KPIs are deterministic headline numbers.
    """
    from repro.traffic.scenarios import (
        prepare_overload,
        run_overload,
        run_retry_storm,
    )

    horizon = 10.0 if quick else 30.0

    def cohort_run(users: int) -> Tuple[float, float, int]:
        # Equal aggregate demand (400/s) spread over `users` clients.
        prepared = prepare_overload(
            variant="admission", users=users,
            rate_per_user=400.0 / users, horizon=horizon)
        started = time.perf_counter()
        prepared.system.run(until=horizon)
        wall = time.perf_counter() - started
        events = prepared.system.sim.fired_count
        return wall, events / wall if wall > 0 else 0.0, events

    wall_10k, eps_10k, events_10k = cohort_run(10_000)
    _, _, events_100k = cohort_run(100_000)

    overload = run_overload("naive", horizon=horizon)
    # The recovery window opens at t=21 (heal + grace), so even the
    # quick variant must run past it.
    storm = run_retry_storm("resilient",
                            horizon=30.0 if quick else 45.0)
    return {
        "wall_s": wall_10k,
        "events_per_s": eps_10k,
        "events_10k_clients": float(events_10k),
        "events_100k_clients": float(events_100k),
        "overload_goodput": round(overload["goodput"], 9),
        "overload_p99_s": round(overload["p99_latency"], 9),
        "storm_recovery_ratio": round(storm["recovery_ratio"], 9),
        "storm_breaker_trips": float(storm["breaker"]["trips"]),
    }


def bench_security(quick: bool) -> Dict[str, float]:
    """Security-plane overhead and the adversary-scenario KPIs.

    The headline number is the cost of the *defense*, not the attack:
    the same byzantine-gossip topology and workload runs with no
    security wiring (attack off, plane idle), with the interceptor +
    auth path enabled on the identical honest workload (``authed``),
    and fully defended under attack (auth + trust + MAPE, attacker
    active).  The signing/verify path is budgeted at <=15% overhead on
    the clean comparison (``overhead_budget_ok``) in both kernel
    events -- deterministic, auth adds zero events -- and wall time.
    The wall estimate is the :func:`paired_min` (off, auth) ratio.  The
    0/1 gate is a gross-regression tripwire (e.g. an accidentally
    quadratic encoding), not a profiler.
    """
    from repro.security.scenarios import (
        prepare_byzantine_gossip,
        run_byzantine_gossip,
        run_raft_equivocation,
        run_sybil_flood,
    )

    horizon = 8.0 if quick else 24.0
    reps = 3 if quick else 5

    def one_run(variant: str, authed: bool = False) -> Tuple[float, int]:
        prepared = prepare_byzantine_gossip(variant=variant, horizon=horizon,
                                            authed=authed)
        started = time.perf_counter()
        prepared.system.run(until=horizon)
        return time.perf_counter() - started, prepared.system.sim.fired_count

    walls, ratios, events = paired_min(reps, {
        "off": lambda: one_run("clean"),
        "auth": lambda: one_run("clean", authed=True),
        "on": lambda: one_run("defended"),
    })
    attack_off_events = events["off"][-1]
    auth_on_events = events["auth"][-1]
    attack_on_events = events["on"][-1]
    wall_overhead = max(0.0, ratios["auth"] - 1.0)
    event_overhead = max(0.0, (auth_on_events - attack_off_events)
                         / attack_off_events if attack_off_events else 0.0)

    gossip = run_byzantine_gossip("defended", horizon=horizon)
    raft = run_raft_equivocation("defended")
    flood = run_sybil_flood("defended")
    return {
        "wall_s": walls["off"],
        "auth_on.wall_s": walls["auth"],
        "attack_on.wall_s": walls["on"],
        "overhead_budget_ok": float(wall_overhead <= 0.15
                                    and event_overhead <= 0.15),
        "auth_event_overhead": round(event_overhead, 9),
        "attack_off_events": float(attack_off_events),
        "auth_on_events": float(auth_on_events),
        "attack_on_events": float(attack_on_events),
        "gossip_quarantined": float(len(gossip["quarantined"])),
        "raft_safety_ok": float(not raft["safety_violated"]),
        "flood_goodput": round(flood["goodput"], 9),
        "flood_sybils": float(flood["sybil_count"]),
    }


def bench_observability(quick: bool) -> Dict[str, float]:
    """Telemetry recording cost on the kernel hot loop, full vs sampled.

    A synthetic gateway poll loop: every event aggregates a batch of
    sensor readings (the real work), every 16th event rolls the current
    poll-round span and batches the tick counter via the
    ``counter_adder`` fast path, and -- when the round's span was kept
    -- every event records a metric sample.  Three modes run
    back-to-back per rep:
    *bare* (no telemetry), *full* (every round's span and every event's
    sample recorded) and *sampled* (2%% head-based sampling, seeded).
    The wall estimate is the :func:`paired_min` (bare, sampled) ratio.
    ``sampled_budget_ok`` trips when even the best rep's sampled
    run exceeds the 10%% overhead budget over bare: the tripwire for
    accidentally de-optimizing the sampled drop path.  Span/sample
    counts are deterministic (the sampler hashes (seed, root ordinal)),
    so they double as a drift check on the sampling decision stream.
    """
    from repro.observability.overhead import SpanSampler
    from repro.observability.spans import SpanRecorder
    from repro.simulation.kernel import Simulator
    from repro.simulation.metrics import MetricsRecorder

    n = 6_000 if quick else 24_000
    reps = 5 if quick else 7
    round_events = 16
    rate = 0.02
    readings = [0.05 * i for i in range(32)]

    def one_run(mode: str):
        sim = Simulator()
        spans = None
        metrics = None
        add = None
        if mode != "bare":
            sampler = SpanSampler(rate, seed=7) if mode == "sampled" else None
            spans = SpanRecorder(sampler=sampler)
            metrics = MetricsRecorder()
            add = metrics.counter_adder("obs.ticks")
        # [fired, ewma, open span, round kept?] -- list, not dict, so the
        # handler's own bookkeeping stays cheap relative to what we meter.
        state: List[Any] = [0, 0.0, None, False]

        def tick(s: Any) -> None:
            fired = state[0] = state[0] + 1
            total = 0.0
            for r in readings:
                total += r * 1.0001 + 0.003
            state[1] = 0.9 * state[1] + 0.1 * total
            if spans is not None:
                if fired % round_events == 1:
                    if state[2] is not None:
                        spans.finish(state[2], s.now)
                        add(float(round_events))
                    span = spans.start("poll-round", "bench", s.now)
                    state[2] = span
                    state[3] = span.sampled
                if state[3]:
                    metrics.record("obs.batch_ewma", s.now, state[1])
            if fired < n:
                s.schedule(0.001, tick)

        sim.schedule(0.0, tick)
        started = time.perf_counter()
        sim.run(until=float(n))
        wall = time.perf_counter() - started
        if spans is not None and state[2] is not None:
            spans.finish(state[2], sim.now)
            add(float(round_events))
        return wall, (spans, metrics)

    walls, ratios, runs = paired_min(
        reps, {mode: (lambda mode=mode: one_run(mode))
               for mode in ("bare", "full", "sampled")})
    full_spans, full_metrics = runs["full"][-1]
    sampled_spans, sampled_metrics = runs["sampled"][-1]
    sampled_overhead = max(0.0, ratios["sampled"] - 1.0)
    return {
        "wall_s": walls["bare"],
        "full.wall_s": walls["full"],
        "sampled.wall_s": walls["sampled"],
        "sampled_budget_ok": float(sampled_overhead <= 0.10),
        "spans_full": float(len(full_spans)),
        "spans_sampled": float(len(sampled_spans)),
        "spans_sampled_out": float(sampled_spans.sampled_out),
        "metric_points_full": float(full_metrics.total_points()),
        "metric_points_sampled": float(sampled_metrics.total_points()),
        "ticks_counted": float(sampled_metrics.counter("obs.ticks")),
    }


def bench_chaos(quick: bool) -> Dict[str, float]:
    """Chaos-plane cost: spec-compile throughput and campaign wall per run.

    Two legs.  First, ``compile.specs_per_s``: sampled specs compiled
    (full system wiring -- topology, traffic, faults, defenses,
    monitor) but never run; the number campaigns pay per case before
    any simulation happens.  Second, a small seeded campaign
    (``shrink=False``, no corpus) measuring end-to-end wall per case at
    a short horizon.  Event and violation counts are deterministic
    functions of the campaign seed, so they double as drift tripwires
    on the sampler and compiler: any change to the sampling stream or
    the compiled wiring shows up as an exact-metric diff before it can
    silently re-name every corpus bundle.
    """
    from repro.chaos import ChaosCampaign, SpecSampler, compile_spec

    n_compile = 20 if quick else 50
    sampler = SpecSampler(84)
    specs = [sampler.sample(index) for index in range(n_compile)]
    started = time.perf_counter()
    for spec in specs:
        compile_spec(spec)
    compile_wall = time.perf_counter() - started

    runs = 2 if quick else 3
    campaign = ChaosCampaign(seed=84, runs=runs, horizon=10.0, shrink=False)
    result = campaign.run()
    return {
        "wall_s": compile_wall + result.wall_s,
        "compile.wall_s": compile_wall,
        "compile.specs_per_s": (n_compile / compile_wall
                                if compile_wall > 0 else 0.0),
        "campaign.wall_s": result.wall_s,
        "campaign.run_wall_s": result.wall_s / runs,
        "campaign.events": float(sum(case.events for case in result.cases)),
        "campaign.violations": float(result.violation_count),
    }


def bench_live(quick: bool) -> Dict[str, float]:
    """Live-service executor overhead over the batch reference driver.

    Pairs a batch ``run_scenario`` with an unpaced (``speed=0``) live
    drive of the same journaled spec per rep; both drain the identical
    event stream, so the wall ratio isolates the real-time executor's
    per-event machinery (peek, drain checks, housekeeping gate).  The
    estimate is the :func:`paired_min` ratio; ``paced_budget_ok`` trips
    when even the best rep exceeds the 10%% overhead budget.
    ``digest_identical`` is the determinism headline: the live journal
    must stay byte-identical to the batch one.
    """
    import shutil
    import tempfile

    from repro.live import LiveService
    from repro.persistence import ScenarioSpec, run_scenario

    until = 20.0 if quick else 45.0
    reps = 3 if quick else 5
    spec = ScenarioSpec(name="traffic-retry-storm")
    tmp = tempfile.mkdtemp(prefix="bench-live-")
    batch_journal = os.path.join(tmp, "batch.jsonl")

    def batch() -> Tuple[float, float]:
        started = time.perf_counter()
        result = run_scenario(spec, journal_path=batch_journal, until=until)
        wall = time.perf_counter() - started
        return wall, float(result.system.sim.fired_count)

    def live() -> Tuple[float, bool]:
        # Runs right after this rep's batch leg, so it checks its journal
        # against the one that leg just wrote.
        out = tempfile.mkdtemp(prefix="live-", dir=tmp)
        service = LiveService(spec, out, speed=0.0, port=None,
                              checkpoint_every=3600.0, until=until)
        service.start()
        started = time.perf_counter()
        service.run()
        wall = time.perf_counter() - started
        with open(batch_journal, "rb") as fh:
            batch_bytes = fh.read()
        with open(os.path.join(out, "journal.jsonl"), "rb") as fh:
            return wall, fh.read() == batch_bytes

    try:
        walls, ratios, runs = paired_min(reps, {"batch": batch,
                                                "live": live})
        events = runs["batch"][-1]
        overhead = max(0.0, ratios["live"] - 1.0)
        return {
            "wall_s": walls["batch"],
            "executor.wall_s": walls["live"],
            "events": events,
            "events_per_s": (events / walls["live"] if walls["live"] > 0
                             else 0.0),
            "paced_budget_ok": float(overhead <= 0.10),
            "digest_identical": float(all(runs["live"])),
        }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def bench_shard(quick: bool) -> Dict[str, float]:
    """Sharded federation scaling: K=1/2/4 over the same federated spec.

    Each rep runs the identical ``smart-city-federated`` spec unsharded
    (K=1) and partitioned across 2 and 4 shard processes; per-K wall is
    the :func:`paired_min` min over reps and the speedups are ratios of
    those mins.  ``digest_stable`` requires every rep of every
    K to reproduce its federation digest bit-for-bit — the determinism
    headline for the parallel driver.  ``speedup_ok`` is the scaling
    tripwire: on runners with >= 4 cores the 4-shard run must beat the
    unsharded one by >= 2.5x; on smaller machines (where parallel shards
    cannot physically win) it records a gated pass, so a 1-core baseline
    stays comparable to a 4-core CI check.
    """
    from repro.persistence import ScenarioSpec
    from repro.shard import ShardedSimulator

    reps = 2 if quick else 3
    params = {
        "domains": 8,
        "devices_per_domain": 2_000 if quick else 10_000,
        "horizon": 6.0 if quick else 9.0,
        "max_event_rate": 80.0 if quick else 250.0,
    }
    spec = ScenarioSpec(name="smart-city-federated", seed=47, params=params)
    def one_run(shards: int) -> Tuple[float, Tuple[float, str]]:
        result = ShardedSimulator(spec, shards=shards).run()
        return result.wall_s, (float(result.events),
                               result.federation_digest)

    walls, _ratios, runs = paired_min(
        reps, {shards: (lambda shards=shards: one_run(shards))
               for shards in (1, 2, 4)})
    events = {shards: runs[shards][-1][0] for shards in runs}
    speedup_k2 = walls[1] / walls[2] if walls[2] > 0 else 0.0
    speedup_k4 = walls[1] / walls[4] if walls[4] > 0 else 0.0
    stable = all(len({digest for _events, digest in seen}) == 1
                 for seen in runs.values())
    cores = os.cpu_count() or 1
    metrics: Dict[str, float] = {
        "wall_s": walls[1],
        "events": events[1],
        "digest_stable": float(stable),
        "speedup_ok": 1.0 if cores < 4 else float(speedup_k4 >= 2.5),
    }
    for shards in (1, 2, 4):
        metrics[f"k{shards}.wall_s"] = walls[shards]
        metrics[f"k{shards}.events_per_s"] = (
            events[shards] / walls[shards] if walls[shards] > 0 else 0.0)
    metrics["speedup_k2"] = speedup_k2
    metrics["speedup_k4"] = speedup_k4
    return metrics


SCENARIOS: Dict[str, Callable[[bool], Dict[str, float]]] = {
    "smart_city": bench_smart_city,
    "mape_outage": bench_mape_outage,
    "kernel": bench_kernel,
    "histogram": bench_histogram,
    "persistence": bench_persistence,
    "traffic": bench_traffic,
    "security": bench_security,
    "observability": bench_observability,
    "chaos": bench_chaos,
    "live": bench_live,
    "shard": bench_shard,
}


# --------------------------------------------------------------------------- #
# snapshot plumbing
# --------------------------------------------------------------------------- #
def take_snapshot(quick: bool, label: str = "",
                  only: Optional[List[str]] = None) -> Dict[str, Any]:
    _RUN_PROFILES.clear()
    benches: Dict[str, Dict[str, float]] = {}
    for name, runner in SCENARIOS.items():
        if only and name not in only:
            continue
        print(f"[regress] running bench {name!r}...", flush=True)
        benches[name] = runner(quick)
    snapshot: Dict[str, Any] = {"schema": SCHEMA, "quick": quick,
                                "label": label, "benches": benches}
    if _RUN_PROFILES:
        snapshot["profiles"] = dict(_RUN_PROFILES)
    return snapshot


def next_snapshot_number(out_dir: str) -> int:
    numbers = [0]
    for path in glob.glob(os.path.join(out_dir, "BENCH_*.json")):
        match = re.fullmatch(r"BENCH_(\d+)\.json", os.path.basename(path))
        if match:
            numbers.append(int(match.group(1)))
    return max(numbers) + 1


def write_snapshot(snapshot: Dict[str, Any], out_dir: str,
                   number: Optional[int] = None) -> str:
    os.makedirs(out_dir, exist_ok=True)
    if number is None:
        number = next_snapshot_number(out_dir)
    path = os.path.join(out_dir, f"BENCH_{number}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(snapshot, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_snapshot(path: str) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as handle:
        snapshot = json.load(handle)
    if snapshot.get("schema") != SCHEMA:
        raise ValueError(f"{path}: unsupported snapshot schema "
                         f"{snapshot.get('schema')!r} (want {SCHEMA})")
    return snapshot


# --------------------------------------------------------------------------- #
# comparison
# --------------------------------------------------------------------------- #
def compare_snapshots(
    baseline: Dict[str, Any], current: Dict[str, Any]
) -> List[Dict[str, Any]]:
    """Tolerance-aware diff; returns one record per regression.

    Only metrics present in *both* snapshots compare (new benches are not
    regressions; removed ones surface as ``missing`` records so a bench
    cannot silently disappear from the trajectory).
    """
    regressions: List[Dict[str, Any]] = []
    base_benches = baseline.get("benches", {})
    cur_benches = current.get("benches", {})
    if baseline.get("quick") != current.get("quick"):
        regressions.append({
            "bench": "*", "metric": "quick", "kind": "incomparable",
            "baseline": baseline.get("quick"), "current": current.get("quick"),
            "detail": "cannot compare quick and full snapshots",
        })
        return regressions
    for bench, base_metrics in sorted(base_benches.items()):
        cur_metrics = cur_benches.get(bench)
        if cur_metrics is None:
            regressions.append({
                "bench": bench, "metric": "*", "kind": "missing",
                "baseline": len(base_metrics), "current": None,
                "detail": "bench present in baseline but not in current run",
            })
            continue
        for metric, base_value in sorted(base_metrics.items()):
            if metric not in cur_metrics:
                regressions.append({
                    "bench": bench, "metric": metric, "kind": "missing",
                    "baseline": base_value, "current": None,
                    "detail": "metric disappeared",
                })
                continue
            cur_value = cur_metrics[metric]
            tol, direction = tolerance_for(f"{bench}.{metric}")
            scale = max(abs(float(base_value)), _EPS)
            drift = (float(cur_value) - float(base_value)) / scale
            exceeded = (
                drift > tol if direction == "higher" else
                -drift > tol if direction == "lower" else
                abs(drift) > tol
            )
            if exceeded:
                regressions.append({
                    "bench": bench, "metric": metric, "kind": "drift",
                    "baseline": base_value, "current": cur_value,
                    "detail": f"drift {drift:+.2%} exceeds "
                              f"{direction} tolerance {tol:.0%}",
                })
    return regressions


def print_report(regressions: List[Dict[str, Any]],
                 baseline: Optional[Dict[str, Any]] = None,
                 current: Optional[Dict[str, Any]] = None) -> None:
    if not regressions:
        print("[regress] OK: no regressions against baseline")
        return
    print(f"[regress] FAIL: {len(regressions)} regression(s) detected")
    for reg in regressions:
        print(f"  - {reg['bench']}.{reg['metric']} [{reg['kind']}]: "
              f"{reg['baseline']} -> {reg['current']} ({reg['detail']})")
    if baseline is not None and current is not None:
        from repro.observability.profile import attribute_regressions

        attribution = attribute_regressions(
            [f"{reg['bench']}.{reg['metric']}: {reg['detail']}"
             for reg in regressions],
            baseline, current)
        for line in attribution:
            print(f"  * {line}")


def print_trajectory(baselines_dir: str) -> int:
    """Per-metric drift across every ``BENCH_<n>.json`` in a directory.

    Where ``--compare`` answers "did THIS change regress anything", the
    trajectory answers "where has this metric been heading" across all
    retained snapshots (oldest -> newest), using the same drift rows the
    HTML report's "Bench trajectory" section renders.  Mixed quick/full
    snapshots are refused: their sizes differ, so drift between them is
    meaningless.
    """
    from repro.observability.export import bench_trajectory_rows

    paths = sorted(
        glob.glob(os.path.join(baselines_dir, "BENCH_*.json")),
        key=lambda p: int(re.fullmatch(
            r"BENCH_(\d+)\.json", os.path.basename(p)).group(1)),
    )
    if not paths:
        print(f"[regress] no BENCH_*.json snapshots under {baselines_dir}")
        return 1
    snapshots = [load_snapshot(path) for path in paths]
    modes = {snap.get("quick", False) for snap in snapshots}
    if len(modes) > 1:
        print("[regress] trajectory refused: snapshots mix --quick and "
              "full runs; drift across sizes is meaningless")
        return 1
    names = " -> ".join(
        f"{os.path.basename(p)}"
        + (f" ({s.get('label')})" if s.get("label") else "")
        for p, s in zip(paths, snapshots))
    print(f"[regress] trajectory over {len(paths)} snapshot(s): {names}")
    rows = bench_trajectory_rows(snapshots)
    width = max(len(row[0]) for row in rows) if rows else 10
    print(f"  {'metric'.ljust(width)}  {'first':>14}  {'last':>14}  "
          f"{'drift':>14}  {'drift%':>8}")
    for metric, first, last, drift, pct in rows:
        def fmt(value: Any) -> str:
            return (f"{value:.6g}" if isinstance(value, (int, float))
                    else str(value))
        print(f"  {metric.ljust(width)}  {fmt(first):>14}  {fmt(last):>14}  "
              f"{fmt(drift):>14}  {pct:>8}")
    return 0


# --------------------------------------------------------------------------- #
# self-test: the harness must catch an injected regression
# --------------------------------------------------------------------------- #
def self_test(tmp_dir: str = ".") -> bool:
    """Round-trip a synthetic snapshot and verify detection behaviour.

    Three properties: identical snapshots compare clean; a perturbed
    deterministic KPI is flagged; a >2x timing blowup is flagged while a
    small timing wobble is not.
    """
    base = {
        "schema": SCHEMA, "quick": True, "label": "self-test",
        "benches": {
            "smart_city": {"wall_s": 0.5, "availability": 0.98,
                           "faults": 2.0, "messages_delivered": 500.0},
            "kernel": {"wall_s": 0.2, "events": 20000.0,
                       "events_per_s": 100000.0},
        },
    }
    path = write_snapshot(base, tmp_dir, number=0)
    loaded = load_snapshot(path)
    os.unlink(path)
    failures: List[str] = []

    if compare_snapshots(loaded, json.loads(json.dumps(base))):
        failures.append("identical snapshots reported a regression")

    drifted = json.loads(json.dumps(base))
    drifted["benches"]["smart_city"]["availability"] = 0.90   # KPI drift
    drifted["benches"]["kernel"]["wall_s"] = 0.55             # 2.75x slower
    drifted["benches"]["smart_city"]["wall_s"] = 0.6          # wobble: fine
    found = compare_snapshots(base, drifted)
    flagged = {(r["bench"], r["metric"]) for r in found}
    if ("smart_city", "availability") not in flagged:
        failures.append("deterministic KPI drift was not detected")
    if ("kernel", "wall_s") not in flagged:
        failures.append("timing regression beyond tolerance was not detected")
    if ("smart_city", "wall_s") in flagged:
        failures.append("in-tolerance timing wobble was wrongly flagged")

    missing = json.loads(json.dumps(base))
    del missing["benches"]["kernel"]
    if not any(r["kind"] == "missing"
               for r in compare_snapshots(base, missing)):
        failures.append("disappearing bench was not detected")

    # Attribution: a regression on a profiled bench must be blamed on the
    # plane whose wall time moved most between the snapshots' profiles.
    from repro.observability.profile import attribute_regressions

    planes = {"transport": {"count": 100, "total_ms": 10.0},
              "mape": {"count": 50, "total_ms": 5.0}}
    profiled_base = json.loads(json.dumps(base))
    profiled_base["profiles"] = {"smart_city": {
        "schema": 1, "meta": {}, "planes": planes, "labels": {}}}
    profiled_cur = json.loads(json.dumps(profiled_base))
    profiled_cur["profiles"]["smart_city"]["planes"]["mape"]["total_ms"] = 25.0
    attribution = attribute_regressions(
        ["smart_city.wall_s: drift +180.00% exceeds higher tolerance 100%"],
        profiled_base, profiled_cur)
    if not any("'mape'" in line for line in attribution):
        failures.append("profile diff did not attribute the regression "
                        f"to the slowed plane (got {attribution!r})")

    for failure in failures:
        print(f"[regress] self-test FAIL: {failure}")
    if not failures:
        print("[regress] self-test OK: injected regressions detected, "
              "clean compare stays clean")
    return not failures


# --------------------------------------------------------------------------- #
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smaller scenario sizes (CI smoke)")
    parser.add_argument("--out", default=".",
                        help="directory for the BENCH_<n>.json snapshot")
    parser.add_argument("--number", type=int, default=None,
                        help="snapshot number (default: next free)")
    parser.add_argument("--label", default="", help="free-form snapshot label")
    parser.add_argument("--only", action="append", choices=sorted(SCENARIOS),
                        help="run only the named bench (repeatable)")
    parser.add_argument("--baseline", default=None,
                        help="compare the fresh snapshot to this baseline")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "CURRENT"),
                        help="compare two existing snapshots; no benches run")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the harness detects injected regressions")
    parser.add_argument(
        "--trajectory", nargs="?", metavar="DIR", default=None,
        const=os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "baselines"),
        help="print per-metric drift across all BENCH_*.json snapshots "
             "in DIR (default: benchmarks/baselines); no benches run")
    args = parser.parse_args(argv)

    if args.self_test:
        return 0 if self_test(args.out) else 1
    if args.trajectory is not None:
        return print_trajectory(args.trajectory)
    if args.compare:
        base, cur = (load_snapshot(args.compare[0]),
                     load_snapshot(args.compare[1]))
        regressions = compare_snapshots(base, cur)
        print_report(regressions, baseline=base, current=cur)
        return 1 if regressions else 0

    snapshot = take_snapshot(args.quick, label=args.label, only=args.only)
    path = write_snapshot(snapshot, args.out, number=args.number)
    print(f"[regress] wrote {path}")
    if args.baseline:
        base = load_snapshot(args.baseline)
        regressions = compare_snapshots(base, snapshot)
        print_report(regressions, baseline=base, current=snapshot)
        return 1 if regressions else 0
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
