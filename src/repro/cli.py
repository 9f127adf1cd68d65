"""Command-line runner for the reproduction experiments.

``python -m repro <command>`` runs a quick (or full) version of each
experiment and prints its tables -- the zero-setup path for a reviewer to
see the paper's shapes without touching pytest.  ``--json`` emits the same
tables as machine-readable JSON on stdout.

Commands
--------
maturity    Tables 1-2: the ML1-ML4 comparison.
landscape   Fig. 1: edge vs cloud latency and outage continuity.
verify      Fig. 2: model checking and quantitative verification demos.
control     Fig. 3: centralized vs decentralized control availability.
dataflows   Fig. 4: privacy / freshness / availability of replication.
mape        Fig. 5: MAPE placement vs time-to-repair.
trace       Run an observed scenario; export spans, Chrome trace, profile.
monitor     Run a scenario under live SLO evaluation; print resilience
            KPIs per disruption vector; exit nonzero on SLO breach
            (CI-gateable).
report      Run a monitored scenario and write the self-contained HTML
            resilience report plus a Prometheus metrics exposition.
checkpoint  Run a persistence scenario up to ``--at`` (or its first
            harness crash), journaling every event, and save a resumable
            checkpoint into ``--out``.
resume      Load the checkpoint in ``--out``, fast-forward deterministically
            to the saved point, verify the state digest, and run to the
            horizon -- the journal continues where it left off.
replay      Re-run the scenario recorded in ``--out``'s journal from its
            seed and compare every event and state digest; on divergence,
            write a divergence report and exit nonzero.
incident    ``incident show <bundle>`` prints a captured incident's
            trigger, ranked causal chain and evidence inventory;
            ``incident replay <bundle>`` deterministically reproduces the
            bundle's triggering window and verifies its state digest.
profile     ``profile run <scenario>`` runs fully observed and captures a
            profile snapshot (per-plane cost attribution, flamegraphs,
            request critical paths); ``profile diff <a> <b>`` attributes
            the delta between two snapshots (or two BENCH baselines) to
            subsystems.
chaos       ``chaos run`` drives a seeded chaos-search campaign over
            declarative specs (topology x workload x traffic x faults x
            adversary x maturity), shrinks every violation to a minimal
            spec and emits replay bundles into ``--corpus``;
            ``chaos shrink <spec.json>`` minimizes one failing spec;
            ``chaos corpus`` replays every corpus bundle and verifies
            each state digest bit-for-bit (exit nonzero on divergence).
scenarios   ``scenarios list`` prints the unified scenario registry --
            every runnable scenario across all planes, with its owning
            plane, variants and description.
shard       ``shard run <scenario> --shards K [--workers W]`` partitions a
            federated scenario into K administrative-domain shards, each
            on its own simulator in a worker process, synchronized with
            conservative lookahead windows; ``shard resume`` continues a
            killed run from its barrier checkpoints; ``shard verify``
            replays every shard journal and verifies the federation
            digest chain bit-for-bit (exit nonzero on divergence).
all         Every table command above, in order.

Every gated command (monitor, traffic, security, replay) runs under a
flight recorder: when its gate fails, a self-contained incident bundle
(telemetry tails + checkpoint + journal) lands under ``--out``/incidents
for the ``incident`` verbs to inspect and replay.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
from typing import Callable, Dict, List, Optional, Tuple

from repro.scenarios import VariantGate, variant_gates

# When --json is active, tables accumulate here instead of printing.
_JSON_COLLECTOR: Optional[List[Dict[str, object]]] = None


# --------------------------------------------------------------------------- #
# Signal handling
# --------------------------------------------------------------------------- #
class _HarnessSignal(BaseException):
    """SIGINT/SIGTERM during a batch command, converted to an exception.

    Derives from BaseException so scenario-level ``except Exception``
    recovery paths (flight-recorder guards, gate handlers) don't swallow
    it; ``main()`` catches it, flushes any armed flight recorder as a
    ``harness-crash`` incident, and exits ``128 + signum`` (130 for
    Ctrl-C) instead of dumping a KeyboardInterrupt traceback.
    """

    def __init__(self, signum: int) -> None:
        super().__init__(f"interrupted by signal {signum}")
        self.signum = signum


# Armed flight recorders to flush if a signal lands mid-run:
# (flight, bundle_dir, journal_path) registered by _run_monitored.
_SIGNAL_FLIGHTS: List[Tuple[object, Optional[str], Optional[str]]] = []


def _install_signal_handlers() -> None:
    """Raise :class:`_HarnessSignal` on SIGINT/SIGTERM (batch commands).

    Best-effort: embedding contexts (non-main threads, restricted
    platforms) simply keep their default handlers.
    """

    def _handler(signum: int, _frame: object) -> None:
        raise _HarnessSignal(signum)

    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            signal.signal(signum, _handler)
        except (ValueError, OSError):  # pragma: no cover - non-main thread
            pass


def _flush_signal_incidents(signum: int) -> List[str]:
    """Capture ``harness-crash`` incidents on every armed flight recorder."""
    try:
        name = signal.Signals(signum).name
    except ValueError:  # pragma: no cover - unknown signal number
        name = str(signum)
    bundles = []
    for flight, bundle_dir, journal_path in list(_SIGNAL_FLIGHTS):
        try:
            flight.trigger("harness-crash", detail={"signal": name})
            flight.finalize()
            flight.disarm()
            if bundle_dir is not None:
                bundles.append(flight.capture(bundle_dir,
                                              journal_path=journal_path))
        except Exception:  # pragma: no cover - best-effort teardown
            continue
    _SIGNAL_FLIGHTS.clear()
    return bundles


def _print_table(title: str, headers: List[str], rows: List[List[object]]) -> None:
    if _JSON_COLLECTOR is not None:
        _JSON_COLLECTOR.append(
            {"title": title, "headers": list(headers),
             "rows": [list(row) for row in rows]})
        return

    def fmt(cell: object) -> str:
        return f"{cell:.4f}" if isinstance(cell, float) else str(cell)

    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(fmt(cell)))
    print(f"\n== {title} ==")
    print("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    print("-" * (sum(widths) + 2 * (len(widths) - 1)))
    for row in rows:
        print("  ".join(fmt(cell).ljust(widths[i]) for i, cell in enumerate(row)))


def _print_block(title: str, text: str) -> None:
    """Pre-formatted text output (e.g. the maturity comparison table)."""
    if _JSON_COLLECTOR is not None:
        _JSON_COLLECTOR.append({"title": title, "text": text})
        return
    print(text)


def _progress(message: str) -> None:
    """Human-facing progress line; silent under --json."""
    if _JSON_COLLECTOR is None:
        print(message)


def _print_data(title: str, data: Dict[str, object]) -> None:
    """Structured payload: emitted under --json only (tables cover text)."""
    if _JSON_COLLECTOR is not None:
        _JSON_COLLECTOR.append({"title": title, "data": data})


# --------------------------------------------------------------------------- #
# Commands
# --------------------------------------------------------------------------- #
def cmd_maturity(quick: bool) -> None:
    from repro.core.assessment import comparison_table
    from repro.core.maturity import ScenarioParams, run_maturity_comparison

    params = ScenarioParams(
        n_sites=2 if quick else 3,
        sensors_per_site=2 if quick else 4,
        horizon=60.0 if quick else 120.0,
        seed=42,
    )
    _progress(f"running ML1..ML4 ({params.n_sites} sites, "
              f"{params.horizon:.0f}s horizon)...")
    reports = run_maturity_comparison(params)
    _progress("\nTables 1-2 (measured): satisfaction under disruption\n")
    _print_block("Tables 1-2: satisfaction under disruption",
                 comparison_table(list(reports.values())))


def cmd_landscape(quick: bool) -> None:
    from repro.faults.models import PartitionFault
    from repro.workloads.smart_city import SmartCityWorkload

    districts = 2 if quick else 5
    sensors = 5 if quick else 20
    workload = SmartCityWorkload(n_districts=districts,
                                 sensors_per_district=sensors, seed=7)
    rows = []
    for d in range(districts):
        device = workload.system.sites[f"edge{d}"][0]
        edge = workload.system.topology.expected_latency(device, f"edge{d}")
        cloud = workload.system.topology.expected_latency(device, "cloud")
        rows.append([device, edge * 1000, cloud * 1000, cloud / edge])
    _print_table("Fig. 1: edge vs cloud one-way latency",
                 ["device", "edge (ms)", "cloud (ms)", "ratio"], rows)
    workload.system.injector.inject_at(20.0, PartitionFault(
        name="outage", duration=20.0, isolate_node="cloud"))
    workload.run(60.0)
    ingest = workload.system.metrics.series("city.ingest")
    _print_table("Fig. 1: edge ingest through a cloud outage",
                 ["phase", "readings/s"],
                 [["before", len(ingest.window(0, 20)) / 20.0],
                  ["during", len(ingest.window(20, 40)) / 20.0],
                  ["after", len(ingest.window(40, 60)) / 20.0]])


def cmd_verify(quick: bool) -> None:
    from repro.modeling.checker import ModelChecker
    from repro.modeling.dtmc import availability_dtmc
    from repro.modeling.lts import build_device_lifecycle_lts, build_grid_lts
    from repro.modeling.properties import Always, Eventually, LeadsTo, prop

    checker = ModelChecker(build_device_lifecycle_lts())
    cases = [
        ("G !(up & down)", Always(~(prop("up") & prop("down")))),
        ("G (serving -> up)", Always(prop("serving") >> prop("up"))),
        ("down ~> up", LeadsTo(prop("down"), prop("up"))),
        ("G !down (false)", Always(~prop("down"))),
    ]
    rows = []
    for label, formula in cases:
        result = checker.check(formula)
        rows.append([label, result.holds,
                     "->".join(map(str, result.counterexample or [])) or "-"])
    _print_table("Fig. 2: device lifecycle properties",
                 ["property", "holds", "counterexample"], rows)
    sizes = [10, 30] if quick else [10, 30, 60, 100]
    rows = []
    for size in sizes:
        result = ModelChecker(build_grid_lts(size, size)).check(
            Eventually(prop("goal")))
        rows.append([size * size, result.states_explored, result.holds])
    _print_table("Fig. 2: checker scaling", ["states", "explored", "holds"], rows)
    chain, analytic = availability_dtmc(0.05, 0.4)
    computed = chain.stationary_distribution()["up"]
    _print_table("Fig. 2: quantitative verification",
                 ["metric", "value"],
                 [["analytic availability", analytic],
                  ["computed availability", computed]])


def cmd_control(quick: bool) -> None:
    from repro.experiments import (
        FIG3_HORIZON,
        FIG3_OUTAGE,
        control_availability,
        run_control_architecture,
    )

    rows = []
    for architecture in ("centralized", "decentralized"):
        system, _ = run_control_architecture(architecture)
        rows.append([
            architecture,
            control_availability(system, 5.0, FIG3_OUTAGE[0]),
            control_availability(system, FIG3_OUTAGE[0] + 2, FIG3_OUTAGE[1]),
            control_availability(system, FIG3_OUTAGE[1] + 5, FIG3_HORIZON),
        ])
    _print_table("Fig. 3: control availability around a cloud outage",
                 ["architecture", "before", "during", "after"], rows)


def cmd_dataflows(quick: bool) -> None:
    from repro.core.system import IoTSystem
    from repro.data.crdt import PNCounter
    from repro.data.quorum import QuorumClient, QuorumReplica
    from repro.data.sync import ReplicaStore, SyncProtocol, converged

    system = IoTSystem.with_edge_cloud_landscape(3, 1, seed=29)
    edges = system.edge_nodes
    for edge in edges:
        QuorumReplica(system.sim, system.network, edge)
    client = QuorumClient(system.sim, system.network, "d0.0", edges, 2, 2)
    stores = {}
    for edge in edges:
        store = ReplicaStore(edge)
        store.register("events", PNCounter(edge))
        stores[edge] = store
        SyncProtocol(system.sim, system.network, store,
                     [e for e in edges if e != edge],
                     system.rngs.stream(f"sync:{edge}"), period=0.5).start()

    def write(s):
        client.write("k", s.now)
        stores["edge0"].get("events").increment(1)
        if s.now < 45.0:
            s.schedule(1.0, write)

    system.sim.schedule(1.0, write)
    system.partitions.schedule_outage(20.0, 20.0, "edge1")
    system.partitions.schedule_outage(20.0, 20.0, "edge2")
    system.run(until=60.0)
    _print_table("Fig. 4: CP (quorum) vs AP (CRDT) under a 20s majority cut",
                 ["metric", "value"],
                 [["quorum write availability", client.write_availability],
                  ["CRDT write availability", 1.0],
                  ["CRDT converged after heal",
                   converged(list(stores.values()), "events")]])


def cmd_mape(quick: bool) -> None:
    from repro.experiments import mape_repair_delays, run_mape_placement

    rows = []
    for placement in ("cloud", "edge"):
        system, loops = run_mape_placement(placement)
        delays = mape_repair_delays(system, loops)
        missed = sum(loop.missed_observations for loop in loops)
        rows.append([placement, delays[0], delays[-1], missed])
    _print_table("Fig. 5: MAPE placement vs time-to-repair",
                 ["placement", "fastest (s)", "slowest (s)", "missed obs"], rows)


# --------------------------------------------------------------------------- #
# trace: observed scenario runs with exportable artifacts
# --------------------------------------------------------------------------- #
TRACE_SCENARIOS = ("smart-city-partition", "mape-outage")


def _run_smart_city_partition(quick: bool, setup=None):
    """The canonical observed run: a smart city losing its cloud.

    Wiring lives in
    :func:`repro.observability.scenarios.prepare_smart_city_partition`
    (so the persistence registry can rebuild and replay the scenario);
    this wrapper prepares, applies the optional ``setup`` hook with
    ``(system, loops)`` -- the attachment point for SLO monitoring --
    and drives the run.
    """
    from repro.observability.scenarios import prepare_smart_city_partition

    prepared = prepare_smart_city_partition(quick=quick)
    system = prepared.system
    if setup is not None:
        setup(system, prepared.aux["loops"])
    system.run(until=prepared.horizon)
    return system


def _run_mape_outage(quick: bool, setup=None):
    """Fig. 5's edge placement, observed end-to-end."""
    from repro.experiments import run_mape_placement

    system, _ = run_mape_placement("edge", observe=True, setup=setup)
    return system


def cmd_trace(quick: bool, scenario: str = "smart-city-partition",
              out: str = "trace-out") -> None:
    from repro.observability.export import (
        write_chrome_trace,
        write_events_jsonl,
        write_metrics_snapshot,
        write_profile,
        write_spans_jsonl,
    )

    runners = {
        "smart-city-partition": _run_smart_city_partition,
        "mape-outage": _run_mape_outage,
    }
    _progress(f"running observed scenario {scenario!r}...")
    system = runners[scenario](quick)
    spans = system.spans
    spans.finish_open(system.sim.now)
    if system.trace.dropped:
        system.metrics.increment("trace.dropped_events", system.trace.dropped)

    os.makedirs(out, exist_ok=True)
    span_path = os.path.join(out, "spans.jsonl")
    event_path = os.path.join(out, "events.jsonl")
    chrome_path = os.path.join(out, "trace.chrome.json")
    metrics_path = os.path.join(out, "metrics.json")
    profile_path = os.path.join(out, "profile.json")
    n_spans = write_spans_jsonl(spans, span_path)
    n_events = write_events_jsonl(system.trace, event_path)
    n_records = write_chrome_trace(chrome_path, spans=spans, events=system.trace)
    write_metrics_snapshot(system.metrics, metrics_path)
    profile = write_profile(system.sim.instrument, profile_path)

    faults = len(spans.select(category="injection"))
    recoveries = len(spans.select(category="recovery"))
    _print_table(
        f"trace: {scenario} (horizon {system.sim.now:.0f}s)",
        ["artifact", "path", "records"],
        [["spans (JSONL)", span_path, n_spans],
         ["events (JSONL)", event_path, n_events],
         ["Chrome trace", chrome_path, n_records],
         ["metrics snapshot", metrics_path,
          len(system.metrics.series_names) + len(system.metrics.counter_names)],
         ["kernel profile", profile_path, profile.get("events", 0)]])
    _print_table(
        "trace: causal summary",
        ["metric", "value"],
        [["fault injections", faults],
         ["recovery spans", recoveries],
         ["message spans", len(spans.select(category="message"))],
         ["kernel events profiled", profile.get("events", 0)],
         ["mean event cost (us)", float(profile.get("mean_event_us", 0.0))]])
    _progress(f"\nload {chrome_path} in chrome://tracing or https://ui.perfetto.dev")


# --------------------------------------------------------------------------- #
# monitor / report: live SLO evaluation + resilience KPIs
# --------------------------------------------------------------------------- #
def _run_monitored(quick: bool, scenario: str, strict: bool,
                   bundle_dir: Optional[str] = None):
    """Run ``scenario`` with SLO monitoring and a flight recorder armed.

    The monitor evaluates inside the simulation (period 2s) so breaches
    land causally among the faults and repairs they concern, and every
    MAPE loop subscribes to alerts -- SLO burn can trigger adaptation.
    Edge nodes additionally run a small gossip mesh sharing liveness
    heartbeats, giving the convergence KPIs a live protocol to measure.

    The run is rebuilt through the persistence scenario registry, so a
    captured incident is deterministically replayable.  With
    ``bundle_dir`` the whole event stream is journaled there (the journal
    joins the bundle on a gate failure; callers remove the directory on
    success).  Returns ``(system, monitor, flight, journal_path)``.
    """
    from repro.observability.flight import FlightRecorder
    from repro.persistence import ScenarioSpec, prepare
    from repro.persistence.journal import JournalWriter
    from repro.persistence.runner import RunRecorder, _drive_to_horizon

    params = {"monitored": True, "strict": strict}
    if scenario == "smart-city-partition":
        params["quick"] = quick
    spec = ScenarioSpec(name=scenario, params=params)
    prepared = prepare(spec)
    system = prepared.system
    monitor = prepared.aux["monitor"]
    recorder = None
    journal_path = None
    if bundle_dir is not None:
        os.makedirs(bundle_dir, exist_ok=True)
        journal_path = os.path.join(bundle_dir, "journal.jsonl")
        recorder = RunRecorder(system, JournalWriter(journal_path,
                                                     spec.to_dict()))
    flight = FlightRecorder(system, spec=spec,
                            loops=prepared.aux.get("loops"))
    flight.arm()   # chains after the journaling observer
    # Registered for the whole drive: a SIGINT/SIGTERM mid-run raises
    # _HarnessSignal (a BaseException, so nothing below catches it) and
    # main() flushes this recorder as a harness-crash incident.
    registration = (flight, bundle_dir, journal_path)
    _SIGNAL_FLIGHTS.append(registration)
    try:
        with flight.guard():
            _drive_to_horizon(system, prepared.horizon)
    except Exception:
        _SIGNAL_FLIGHTS.remove(registration)
        flight.finalize()
        flight.disarm()
        if recorder is not None:
            recorder.abandon()
        if bundle_dir is not None:
            flight.capture(bundle_dir, journal_path=journal_path)
        raise
    _SIGNAL_FLIGHTS.remove(registration)
    monitor.evaluate_now()   # end-of-run evaluation at the final horizon
    flight.finalize()
    flight.disarm()
    if recorder is not None:
        recorder.finish()
    return system, monitor, flight, journal_path


def _incident_rows(flight) -> List[List[object]]:
    """Diagnosis table rows for a triggered flight recorder."""
    diagnosis = flight.diagnosis
    return diagnosis.table_rows() if diagnosis is not None else []


def cmd_monitor(quick: bool, scenario: str = "smart-city-partition",
                strict: bool = False, out: str = "trace-out") -> int:
    """Run with live SLOs; print KPI tables; exit 1 on any SLO breach."""
    import shutil

    _progress(f"running monitored scenario {scenario!r}"
              f"{' (strict SLOs)' if strict else ''}...")
    bundle_dir = os.path.join(out, "incidents", scenario)
    system, monitor, flight, journal_path = _run_monitored(
        quick, scenario, strict, bundle_dir=bundle_dir)
    system.spans.finish_open(system.sim.now)
    report = system.kpi_report()

    _print_table(
        f"monitor: resilience KPIs by disruption vector ({scenario}, "
        f"horizon {system.sim.now:.0f}s)",
        ["vector", "faults", "resolved", "MTTD mean (s)", "MTTR mean (s)",
         "msgs/disruption", "disrupted (s)"],
        report.vector_rows())
    global_rows = [
        ["availability (fleet mean)", report.availability],
        ["availability (worst device)", report.worst_availability],
        ["degraded device-time (s)", report.degraded_time],
        ["runtime-monitor violations", report.violations],
        ["SLO breach alerts", report.alerts],
    ]
    for protocol, stats in sorted(report.convergence.items()):
        global_rows.append([f"convergence: {protocol} mean (s)", stats["mean"]])
        global_rows.append([f"convergence: {protocol} p95 (s)", stats["p95"]])
    _print_table("monitor: run-level KPIs", ["KPI", "value"], global_rows)
    _print_table(
        "monitor: SLOs",
        ["SLO", "kind", "objective", "measured", "burn rate", "status"],
        monitor.table_rows())
    _print_data("monitor: kpis", report.to_dict())
    _print_data("monitor: slos", monitor.to_dict())
    if monitor.ever_breached:
        if not flight.triggered:
            flight.trigger("gate-failure", detail={
                "gate": "slo", "breach_events": monitor.breach_events})
        bundle = flight.capture(bundle_dir, journal_path=journal_path)
        rows = _incident_rows(flight)
        if rows:
            _print_table("monitor: incident causal chain",
                         ["rank", "kind", "subject", "t (s)", "score",
                          "summary"], rows)
        _print_data("monitor: incident", {
            "bundle": bundle,
            "trigger": flight.triggers[0].to_dict(),
            "chain": rows,
        })
        _progress(f"\nSLO GATE: FAIL ({monitor.breach_events} breach "
                  f"event(s); incident bundle: {bundle})")
        return 1
    shutil.rmtree(bundle_dir, ignore_errors=True)
    _progress("\nSLO GATE: OK (no objective breached)")
    return 0


def _bench_trajectory_rows_if_available() -> Optional[List[List[object]]]:
    """Bench-trajectory rows from ``benchmarks/baselines``, if present.

    The report command may run from an installed package or another
    working directory; the trajectory section simply disappears when the
    baselines directory isn't reachable.
    """
    from repro.observability.export import bench_trajectory_rows

    baseline_dir = os.path.join(os.path.dirname(__file__), "..", "..",
                                "benchmarks", "baselines")
    if not os.path.isdir(baseline_dir):
        return None
    snapshots = []
    for name in sorted(os.listdir(baseline_dir)):
        if not (name.startswith("BENCH_") and name.endswith(".json")):
            continue
        try:
            with open(os.path.join(baseline_dir, name),
                      encoding="utf-8") as fh:
                snapshots.append(json.load(fh))
        except (OSError, json.JSONDecodeError):
            continue
    return bench_trajectory_rows(snapshots) if snapshots else None


def cmd_report(quick: bool, scenario: str = "smart-city-partition",
               out: str = "trace-out", strict: bool = False) -> int:
    """Run monitored and write HTML + Prometheus + KPI JSON artifacts."""
    from repro.observability.export import (
        report_inputs,
        write_html_report,
        write_prometheus,
    )

    _progress(f"running monitored scenario {scenario!r}...")
    system, monitor, flight, _ = _run_monitored(quick, scenario, strict)
    system.spans.finish_open(system.sim.now)

    os.makedirs(out, exist_ok=True)
    html_path = os.path.join(out, "resilience-report.html")
    prom_path = os.path.join(out, "metrics.prom")
    kpi_path = os.path.join(out, "kpis.json")
    # One assembly path shared with the live telemetry server, so the
    # written artifacts and the served endpoints can never drift.
    inputs = report_inputs(system, scenario=scenario)
    report = inputs["kpi_report"]
    incidents = None
    if flight.triggered:
        flight.finalize()
        incidents = [{"reason": flight.triggers[0].reason,
                      "time": flight.triggers[0].time,
                      "rows": _incident_rows(flight)}]
    n_bytes = write_html_report(
        html_path, f"Resilience report — {scenario}", report,
        slo_monitor=monitor,
        availability_per_device=inputs["availability"]["per_device"],
        network_kinds=inputs["per_kind"],
        per_source=inputs["per_source"],
        incidents=incidents,
        telemetry=inputs["telemetry"],
        bench_trajectory=_bench_trajectory_rows_if_available(),
        profile=inputs["profile"])
    n_lines = write_prometheus(system.metrics, prom_path,
                               histograms=inputs["histograms"],
                               per_source=inputs["per_source"],
                               telemetry=inputs["telemetry"],
                               profile=inputs["profile"])
    with open(kpi_path, "w", encoding="utf-8") as fh:
        json.dump({"kpis": report.to_dict(), "slos": monitor.to_dict()},
                  fh, indent=2, sort_keys=True, default=str)
    _print_table(
        f"report: {scenario} (horizon {system.sim.now:.0f}s)",
        ["artifact", "path", "size"],
        [["HTML resilience report", html_path, f"{n_bytes}B"],
         ["Prometheus exposition", prom_path, f"{n_lines} lines"],
         ["KPI/SLO JSON", kpi_path, "-"]])
    _progress(f"\nopen {html_path} in a browser")
    return 0


# --------------------------------------------------------------------------- #
# checkpoint / resume / replay: crash-resilient persistence
# --------------------------------------------------------------------------- #
def cmd_checkpoint(quick: bool, scenario: str = "control-outage",
                   out: str = "checkpoint-out", at: Optional[float] = None,
                   seed: Optional[int] = None) -> int:
    from repro.persistence import ScenarioSpec, default_paths, run_to_checkpoint

    _progress(f"running {scenario!r} to its checkpoint point...")
    spec = ScenarioSpec(name=scenario, seed=seed)
    result = run_to_checkpoint(spec, out, at=at)
    checkpoint = result.checkpoint
    paths = default_paths(out)
    checkpoint_path, journal_path = paths["checkpoint"], paths["journal"]
    _print_table(
        f"checkpoint: {scenario}",
        ["field", "value"],
        [["checkpoint", checkpoint_path],
         ["journal", journal_path],
         ["simulated time (s)", checkpoint.time],
         ["events fired", checkpoint.fired],
         ["state digest", checkpoint.digest],
         ["checkpoint size (B)", os.path.getsize(checkpoint_path)]])
    _print_data("checkpoint", {
        "scenario": checkpoint.scenario, "time": checkpoint.time,
        "fired": checkpoint.fired, "digest": checkpoint.digest,
        "path": checkpoint_path, "journal": journal_path,
    })
    _progress(f"\nresume with: python -m repro resume --out {out}")
    return 0


def cmd_resume(quick: bool, out: str = "checkpoint-out",
               until: Optional[float] = None) -> int:
    from repro.persistence import resume_run

    _progress(f"resuming from checkpoint in {out!r}...")
    result = resume_run(directory=out, until=until)
    system = result.system
    report = system.kpi_report()
    _print_table(
        f"resume: {result.spec.name} (horizon {system.sim.now:.0f}s)",
        ["field", "value"],
        [["fast-forwarded events", result.fast_forward_events],
         ["fast-forward wall time (s)", result.fast_forward_s],
         ["events fired (total)", system.sim.fired_count],
         ["final state digest", result.final_digest],
         ["journal", result.journal_path]])
    _print_table(
        "resume: resilience KPIs by disruption vector",
        ["vector", "faults", "resolved", "MTTD mean (s)", "MTTR mean (s)",
         "msgs/disruption", "disrupted (s)"],
        report.vector_rows())
    _print_data("resume: kpis", report.to_dict())
    return 0


def cmd_replay(quick: bool, out: str = "checkpoint-out",
               until: Optional[float] = None) -> int:
    from repro.persistence import (
        default_paths,
        replay_journal,
        write_divergence_report,
    )

    paths = default_paths(out)
    journal_path, divergence_path = paths["journal"], paths["divergence"]
    _progress(f"replaying journal {journal_path!r} from its seed...")
    report = replay_journal(journal_path, until=until)
    rows = [
        ["scenario", report.scenario.get("name", "?")],
        ["journal records checked", report.records_checked],
        ["events replayed", report.events_replayed],
        ["journal complete", report.journal_complete],
        ["verdict", "MATCH" if report.ok else "DIVERGED"],
    ]
    if report.divergence is not None:
        d = report.divergence
        rows.extend([
            ["divergence at record", d.index],
            ["divergence at event", d.fired],
            ["divergence at time (s)", d.time],
            ["diverging field", d.field],
            ["recorded", str(d.recorded)],
            ["replayed", str(d.replayed)],
        ])
    _print_table("replay: deterministic verification", ["field", "value"], rows)
    _print_data("replay", report.to_dict())
    if not report.ok:
        write_divergence_report(report, divergence_path)
        _progress(f"\nREPLAY GATE: FAIL (divergence report: {divergence_path})")
        if report.divergence is not None:
            from repro.observability.flight import capture_divergence_incident

            try:
                bundle = capture_divergence_incident(
                    journal_path, report,
                    os.path.join(out, "incidents", "replay-divergence"))
            except Exception as exc:  # noqa: BLE001 - capture must not
                # mask the gate failure itself
                _progress(f"(incident capture failed: {exc})")
            else:
                _progress(f"incident bundle: {bundle}")
        return 1
    _progress("\nREPLAY GATE: OK (journal matches deterministic re-run)")
    return 0


# --------------------------------------------------------------------------- #
# traffic / security: variant gates (records beside their scenarios)
# --------------------------------------------------------------------------- #
GATE_PLANES = ("traffic", "security")


def _plane_gates(plane: str) -> Dict[str, VariantGate]:
    """The plane's variant gates by CLI scenario name, in gate order."""
    return {gate.name: gate for gate in variant_gates().values()
            if gate.plane == plane}


def cmd_gate(gate: VariantGate, quick: bool, out: str = "trace-out") -> int:
    """Run every variant of a gated scenario, print them, judge the gate.

    The verdict lives beside the scenario (``GATES`` in
    :mod:`repro.traffic.scenarios` and :mod:`repro.security.scenarios`).
    A failing gate exits 1 and captures an incident bundle: the judged
    variant's registered scenario spec re-run under a flight recorder
    (journaled, checkpointed at the horizon), so the bundle is
    self-contained and replayable even though the gate aggregates
    several variant runs.
    """
    horizon = gate.horizons[0] if quick else gate.horizons[1]
    results = {}
    for variant in gate.variants:
        _progress(f"running {gate.name} variant {variant!r}...")
        results[variant] = gate.run(variant, horizon=horizon)
    _print_table(
        gate.title.format(horizon=horizon), list(gate.headers),
        [[round(cell, 4) if isinstance(cell, float) else cell
          for cell in gate.row(result)] for result in results.values()])
    _print_data(f"{gate.plane}: {gate.name}",
                {"results": list(results.values())})
    failures, ok = gate.verdict(results)
    label = f"{gate.plane.upper()} GATE"
    if not failures:
        _progress(f"\n{label}: OK ({ok})")
        return 0
    _progress(f"\n{label}: FAIL (" + "; ".join(failures) + ")")
    from repro.observability.flight import capture_gate_incident
    from repro.persistence import ScenarioSpec

    params = {"variant": gate.judged, "horizon": horizon}
    try:
        bundle = capture_gate_incident(
            ScenarioSpec(name=gate.scenario, params=params),
            os.path.join(out, "incidents", gate.scenario),
            reason="gate-failure",
            detail={"gate": gate.scenario, "failures": failures})
    except Exception as exc:  # noqa: BLE001 - the gate verdict stands
        _progress(f"(incident capture failed: {exc})")
    else:
        _progress(f"incident bundle: {bundle}")
    return 1


# --------------------------------------------------------------------------- #
# profile: subsystem cost attribution and differential profiling
# --------------------------------------------------------------------------- #
PROFILE_VERBS = ("run", "diff")
PROFILE_SCENARIOS = ("smart-city-partition", "mape-outage",
                     "traffic-overload", "traffic-retry-storm")


def cmd_profile_run(quick: bool, scenario: str = "smart-city-partition",
                    out: str = "prof-out",
                    seed: Optional[int] = None) -> int:
    """Run a scenario fully observed and capture a profile snapshot.

    Artifacts under ``out``: ``profile.json`` (the snapshot ``profile
    diff`` consumes), ``kernel.folded`` / ``spans.folded`` (collapsed
    stacks for flamegraph.pl / speedscope), and ``profile.chrome.json``
    (per-plane Perfetto track view).
    """
    from repro.observability.overhead import telemetry_health
    from repro.observability.profile import (
        collapsed_kernel_stacks,
        collapsed_span_stacks,
        profile_plane_rows,
        save_profile,
        write_flamegraph,
        write_profile_chrome_trace,
    )
    from repro.persistence import ScenarioSpec, prepare

    params: Dict[str, object] = {}
    gate = variant_gates().get(scenario)
    if scenario == "smart-city-partition":
        params["quick"] = quick
    elif quick and gate is not None:
        params["horizon"] = gate.horizons[0]
    spec = ScenarioSpec(name=scenario, seed=seed, params=params)
    _progress(f"profiling scenario {scenario!r}...")
    prepared = prepare(spec)
    system = prepared.system
    system.enable_observability(meter=True)
    system.run(until=prepared.horizon)
    system.spans.finish_open(system.sim.now)
    profile = system.profile_snapshot(meta={
        "scenario": scenario, "horizon": prepared.horizon,
        "quick": bool(quick)})

    os.makedirs(out, exist_ok=True)
    profile_path = os.path.join(out, "profile.json")
    kernel_folded = os.path.join(out, "kernel.folded")
    span_folded = os.path.join(out, "spans.folded")
    chrome_path = os.path.join(out, "profile.chrome.json")
    save_profile(profile, profile_path)
    n_kernel = write_flamegraph(kernel_folded, collapsed_kernel_stacks(profile))
    n_spans = write_flamegraph(
        span_folded, collapsed_span_stacks(system.spans, now=system.sim.now))
    n_chrome = write_profile_chrome_trace(chrome_path, system.spans,
                                          now=system.sim.now)
    _print_table(
        f"profile: artifacts ({scenario}, horizon {system.sim.now:.0f}s)",
        ["artifact", "path", "records"],
        [["profile snapshot", profile_path, profile["kernel"]["events"]],
         ["kernel flamegraph (collapsed)", kernel_folded, n_kernel],
         ["span flamegraph (collapsed)", span_folded, n_spans],
         ["Chrome trace (planes)", chrome_path, n_chrome]])
    _print_table(
        "profile: subsystem cost attribution",
        ["plane", "events", "wall (ms)", "share", "mean (us)",
         "queue lag (s)"],
        profile_plane_rows(profile))
    critical = profile.get("critical_path")
    if critical:
        _print_table(
            "profile: request critical path",
            ["segment", "summed (s)", "dominant"],
            [[segment, critical["segments"][segment],
              "<-" if segment == critical["dominant_segment"] else ""]
             for segment in ("queue", "service", "network", "retry")])
    health = telemetry_health(system)
    overhead = (health.get("overhead") or {}).get("recording_fraction")
    if overhead is not None:
        _progress(f"\ntelemetry overhead: {overhead:.2%} of run wall time "
                  "(budget: 10%)")
    _print_data("profile", profile)
    _progress(f"\ndiff against another run with: python -m repro profile "
              f"diff {profile_path} <other-profile.json>")
    return 0


def _profiles_in(data: Dict[str, object]) -> Dict[str, Dict[str, object]]:
    """Named profiles inside a loaded JSON file.

    Accepts either a bare ``capture_profile`` snapshot or a regress.py
    BENCH snapshot (whose ``profiles`` section holds one per scenario).
    """
    from repro.observability.profile import profiles_from_bench

    if "benches" in data:
        return profiles_from_bench(data)
    return {"profile": data}


def cmd_profile_diff(path_a: str, path_b: str) -> int:
    """Attribute the delta between two profile snapshots to subsystems."""
    from repro.observability.profile import (
        diff_profiles,
        load_profile,
        render_profile_diff,
    )

    try:
        before, after = load_profile(path_a), load_profile(path_b)
    except (OSError, json.JSONDecodeError) as exc:
        _progress(f"profile: cannot load snapshot: {exc}")
        return 2
    a_profiles, b_profiles = _profiles_in(before), _profiles_in(after)
    common = sorted(set(a_profiles) & set(b_profiles))
    if not common and len(a_profiles) == 1 and len(b_profiles) == 1:
        # One profile on each side under different names: compare them.
        common = [next(iter(a_profiles))]
        b_profiles = {common[0]: next(iter(b_profiles.values()))}
    if not common:
        _progress("profile: the snapshots share no profiled scenarios "
                  f"({sorted(a_profiles)} vs {sorted(b_profiles)})")
        return 2
    for name in common:
        diff = diff_profiles(a_profiles[name], b_profiles[name])
        _print_block(f"profile diff: {name}",
                     f"\n== profile diff: {name} ==\n"
                     + render_profile_diff(diff))
        _print_data(f"profile diff: {name}", diff)
    return 0


# --------------------------------------------------------------------------- #
# incident: inspect and replay captured incident bundles
# --------------------------------------------------------------------------- #
INCIDENT_VERBS = ("show", "replay")


def cmd_incident_show(path: str) -> int:
    """Print a bundle's trigger, causal chain and evidence inventory."""
    from repro.observability.diagnosis import Diagnosis
    from repro.observability.flight import FlightError, load_manifest

    try:
        manifest = load_manifest(path)
    except FlightError as exc:
        _progress(f"incident: {exc}")
        return 2
    trigger = manifest["trigger"]
    barrier = manifest["barrier"]
    scenario = manifest.get("scenario") or {}
    rows = [
        ["bundle", path],
        ["trigger", trigger["reason"]],
        ["trigger time (s)", trigger["time"]],
        ["trigger detail", json.dumps(trigger.get("detail", {}),
                                      sort_keys=True, default=str)],
        ["scenario", scenario.get("name", "-")],
        ["barrier time (s)", barrier["time"]],
        ["barrier events", barrier["fired"]],
        ["barrier digest", barrier["digest"][:16] + "..."],
        ["replayable", "yes" if manifest.get("evidence", {}).get("checkpoint")
         else "no (no checkpoint)"],
    ]
    for extra in manifest.get("additional_triggers", []):
        rows.append([f"also triggered ({extra['reason']})",
                     f"t={extra['time']:g}s"])
    _print_table("incident: summary", ["field", "value"], rows)
    diagnosis = Diagnosis.from_dict(manifest.get("diagnosis", {}))
    if diagnosis.chain:
        _print_table(
            f"incident: ranked causal chain (window {diagnosis.window:g}s)",
            ["rank", "kind", "subject", "t (s)", "score", "summary"],
            diagnosis.table_rows())
    evidence = manifest.get("evidence", {})
    if evidence:
        _print_table("incident: evidence inventory", ["artifact", "records"],
                     [[key, value] for key, value in sorted(evidence.items())])
    _print_data("incident: manifest", manifest)
    return 0


def cmd_incident_replay(path: str) -> int:
    """Deterministically reproduce a bundle's triggering window."""
    from repro.observability.flight import FlightError, replay_incident
    from repro.persistence import CheckpointError

    _progress(f"replaying incident bundle {path!r}...")
    try:
        result = replay_incident(path)
    except FlightError as exc:
        _progress(f"incident: {exc}")
        return 2
    except CheckpointError as exc:
        _progress(f"\nINCIDENT REPLAY: DIVERGED ({exc})")
        return 1
    _print_table(
        "incident replay: deterministic verification",
        ["field", "value"],
        [["scenario", result["spec"].name],
         ["barrier time (s)", result["barrier_time"]],
         ["events fast-forwarded", result["barrier_fired"]],
         ["state digest", result["digest"][:16] + "..."],
         ["replay wall time (s)", result["replay_wall_s"]],
         ["verdict", "MATCH"]])
    _print_data("incident replay", {
        "scenario": result["spec"].to_dict(),
        "barrier_time": result["barrier_time"],
        "barrier_fired": result["barrier_fired"],
        "digest": result["digest"],
    })
    _progress("\nINCIDENT REPLAY: MATCH (triggering window reproduced "
              "bit-for-bit)")
    return 0


# --------------------------------------------------------------------------- #
# chaos: seeded spec-space search, shrinking and the replay corpus
# --------------------------------------------------------------------------- #
CHAOS_VERBS = ("run", "shrink", "corpus")
SCENARIOS_VERBS = ("list",)

#: The documented demo seed (EXPERIMENTS.md CHAOS-1): this campaign
#: rediscovers the retry-storm metastable collapse on a naive config.
CHAOS_DEMO_SEED = 84
CHAOS_DEMO_RUNS = 6


def cmd_chaos_run(quick: bool, seed: Optional[int] = None,
                  runs: Optional[int] = None, out: str = "chaos-out",
                  corpus: str = "corpus") -> int:
    """Run a seeded campaign; shrink and bundle every violation."""
    from repro.chaos import ChaosCampaign
    from repro.observability.export import write_chaos_report

    seed = CHAOS_DEMO_SEED if seed is None else seed
    if runs is None:
        runs = 3 if quick else CHAOS_DEMO_RUNS
    _progress(f"chaos campaign: seed {seed}, {runs} sampled specs, "
              f"corpus -> {corpus!r}...")
    campaign = ChaosCampaign(seed=seed, runs=runs, shrink=True,
                             corpus_dir=corpus, progress=_progress)
    result = campaign.run()
    payload = result.to_dict()
    _print_table(
        "chaos campaign: cases",
        ["case", "spec", "digest", "events", "verdict"],
        [[index, case.spec.describe(), case.spec.digest(), case.events,
          ", ".join(case.violations) if case.violated else "ok"]
         for index, case in enumerate(result.cases)])
    if result.findings:
        _print_table(
            "chaos campaign: shrunk findings",
            ["found", "shrunk to", "attempts", "violations", "bundle"],
            [[f.case.spec.describe(), f.shrunk.describe(),
              f.shrink_attempts, ", ".join(f.shrunk_violations),
              f.bundle or "-"] for f in result.findings])
    _print_data("chaos campaign", payload)
    os.makedirs(out, exist_ok=True)
    report_path = os.path.join(out, "chaos-report.html")
    write_chaos_report(report_path, f"Chaos campaign (seed {seed})",
                       campaign=payload)
    _progress(f"\nchaos: {result.violation_count}/{len(result.cases)} "
              f"specs violated in {result.wall_s:.1f}s; "
              f"report: {report_path}")
    return 0


def cmd_chaos_shrink(path: str, out: str = "chaos-out") -> int:
    """Minimize one failing spec (a spec.json file or a bundle dir)."""
    from repro.chaos import ChaosSpec, shrink_spec

    spec_path = (os.path.join(path, "spec.json")
                 if os.path.isdir(path) else path)
    try:
        with open(spec_path, encoding="utf-8") as fh:
            spec = ChaosSpec.from_json(fh.read())
    except (OSError, ValueError, KeyError) as exc:
        _progress(f"chaos shrink: cannot load a spec from {path!r} ({exc})")
        return 2
    _progress(f"shrinking {spec.describe()} ({spec.axis_count()} axes)...")
    try:
        report = shrink_spec(spec)
    except ValueError as exc:
        _progress(f"chaos shrink: {exc}")
        return 1
    os.makedirs(out, exist_ok=True)
    shrunk_path = os.path.join(out, f"chaos-shrunk-{report.spec.digest()}.json")
    with open(shrunk_path, "w", encoding="utf-8") as fh:
        fh.write(report.spec.to_json() + "\n")
    _print_table(
        "chaos shrink: minimal failing spec",
        ["field", "value"],
        [["found", spec.describe()],
         ["found axes", spec.axis_count()],
         ["shrunk", report.spec.describe()],
         ["shrunk axes", report.spec.axis_count()],
         ["attempts", report.attempts],
         ["violations", ", ".join(report.violations)],
         ["spec", shrunk_path]])
    _print_data("chaos shrink", {
        "found": spec.to_dict(), "shrunk": report.spec.to_dict(),
        "shrunk_digest": report.spec.digest(),
        "attempts": report.attempts,
        "violations": list(report.violations),
        "accepted": list(report.accepted), "spec_path": shrunk_path})
    return 0


def cmd_chaos_corpus(corpus: str = "corpus") -> int:
    """Replay every corpus bundle; exit nonzero on any divergence."""
    from repro.chaos import replay_corpus

    _progress(f"replaying failure corpus {corpus!r}...")
    verdicts, ok = replay_corpus(corpus)
    payload = {"bundles": [v.to_dict() for v in verdicts], "ok": ok}
    _print_data("chaos corpus", payload)
    if not verdicts:
        _progress("chaos corpus: empty (nothing to replay)")
        return 0
    _print_table(
        "chaos corpus: replay verification",
        ["bundle", "barrier (s)", "events", "verdict"],
        [[os.path.basename(v.bundle),
          "-" if v.barrier_time is None else v.barrier_time,
          "-" if v.barrier_fired is None else v.barrier_fired,
          "MATCH" if v.ok else (v.error or "FAILED")] for v in verdicts])
    if ok:
        _progress(f"\nCHAOS CORPUS: MATCH ({len(verdicts)} bundle(s) "
                  "reproduced bit-for-bit)")
        return 0
    failed = sum(1 for v in verdicts if not v.ok)
    _progress(f"\nCHAOS CORPUS: DIVERGED ({failed}/{len(verdicts)} "
              "bundle(s) failed to reproduce)")
    return 1


def cmd_scenarios_list() -> int:
    """Print the unified cross-plane scenario registry."""
    from repro.scenarios import catalog

    infos = catalog()
    _print_table(
        "scenarios: unified registry",
        ["name", "plane", "variants", "description"],
        [[info.name, info.plane,
          ", ".join(info.variants) if info.variants else "-",
          info.description] for info in infos])
    _print_data("scenarios",
                {"scenarios": [info.to_dict() for info in infos]})
    return 0


# --------------------------------------------------------------------------- #
# shard: parallel multi-domain federation runs
# --------------------------------------------------------------------------- #
SHARD_VERBS = ("run", "verify", "resume")


def _shard_report(title: str, result, out: str) -> int:
    """Print a federation result; write the metrics/report artifacts."""
    from repro.observability.export import write_html_report, write_prometheus
    from repro.simulation.metrics import MetricsRecorder

    _print_table(
        f"{title}: per-shard statistics",
        ["shard", "domains", "events", "wall (s)", "sync wait (s)",
         "mailbox peak", "injected", "digest"],
        [[row["shard"], ", ".join(row["domains"]), row["events"],
          f"{row['wall_s']:.2f}", f"{row['sync_wait_s']:.2f}",
          row["mailbox_peak"], row["injected"],
          (row["digest"] or "-")[:16]] for row in result.shard_rows()])
    _print_data(title, result.to_dict())
    if not result.complete:
        _progress(f"\n{title}: stopped mid-run (emulated kill); resume with "
                  f"'python -m repro shard resume --out {out}'")
        return 0
    summary = result.report_summary()
    prom_path = os.path.join(out, "metrics.prom")
    html_path = os.path.join(out, "report.html")
    # A federation has no single-system recorder: the shard families
    # carry the whole exposition, over an empty recorder.
    write_prometheus(MetricsRecorder(), prom_path, shards=summary)
    write_html_report(html_path, f"Federation: {result.spec.name}", None,
                      shards=summary)
    resumed = ("" if result.resumed_from_window is None
               else f" (resumed from window {result.resumed_from_window})")
    _progress(f"\n{title}: {result.shards} shard(s) x {result.windows} "
              f"window(s), {result.events} events, "
              f"{result.devices:,} devices in {result.wall_s:.1f}s "
              f"wall{resumed}")
    _progress(f"federation digest: {result.federation_digest}")
    _progress(f"report: {html_path}; metrics: {prom_path}; verify with "
              f"'python -m repro shard verify --out {out}'")
    return 0


def cmd_shard_run(quick: bool, scenario: str = "smart-city-federated",
                  shards: int = 4, workers: Optional[int] = None,
                  out: str = "shard-out", seed: Optional[int] = None,
                  checkpoint_every: int = 10,
                  stop_after: Optional[int] = None) -> int:
    """Run a federated scenario partitioned across shard processes."""
    from repro.persistence import ScenarioSpec
    from repro.shard import ShardedSimulator

    params: Dict[str, object] = {}
    if quick:
        params["quick"] = True
    spec = ScenarioSpec(name=scenario, seed=seed, params=params)
    driver = ShardedSimulator(spec, shards=shards, workers=workers,
                              out_dir=out, checkpoint_every=checkpoint_every,
                              stop_after_window=stop_after)
    _progress(f"shard run: {scenario} across {driver.shards} shard(s), "
              f"{driver.workers} worker process(es) -> {out!r}...")
    result = driver.run()
    return _shard_report("shard run", result, out)


def cmd_shard_resume(out: str = "shard-out",
                     workers: Optional[int] = None) -> int:
    """Resume a killed federation run from its shard checkpoints."""
    from repro.persistence import CheckpointError
    from repro.shard import ShardedSimulator

    _progress(f"shard resume: fast-forwarding shards in {out!r}...")
    try:
        result = ShardedSimulator.resume(out, workers=workers)
    except CheckpointError as exc:
        _progress(f"shard resume: {exc}")
        return 2
    return _shard_report("shard resume", result, out)


def cmd_shard_verify(out: str = "shard-out",
                     workers: Optional[int] = None) -> int:
    """Replay every shard journal; verify the federation digest chain."""
    from repro.persistence import CheckpointError
    from repro.shard import verify_federation

    _progress(f"shard verify: replaying shards in {out!r}...")
    try:
        report = verify_federation(out, workers=workers or 1)
    except (CheckpointError, OSError, ValueError, KeyError) as exc:
        _progress(f"shard verify: {exc}")
        return 2
    _print_table(
        "shard verify: per-shard replay",
        ["shard", "records", "events", "digest", "verdict"],
        [[r["shard"], r["records_checked"], r["events"],
          (r["digest"] or "-")[:16],
          "MATCH" if r["ok"] else "DIVERGED"] for r in report["reports"]])
    _print_data("shard verify", report)
    if report["ok"]:
        _progress(f"\nSHARD VERIFY: MATCH ({report['shards']} shard(s) "
                  "reproduced bit-for-bit; federation digest chain intact)")
        return 0
    _progress("\nSHARD VERIFY: DIVERGED (see per-shard verdicts above)")
    return 1


def cmd_live(quick: bool, scenario: str = "traffic-retry-storm",
             out: str = "live-out", speed: float = 1.0,
             port: int = 8321, checkpoint_every: float = 10.0,
             reload_dir: Optional[str] = None,
             until: Optional[float] = None,
             seed: Optional[int] = None) -> int:
    """Run a scenario as a long-lived, operable service.

    Pacing, serving and checkpointing are all telemetry-only: the
    journal in ``--out`` stays byte-identical to a batch
    ``run_scenario`` of the same spec.  SIGINT/SIGTERM drain cleanly
    (final checkpoint + incident flush, exit ``128 + signum``); a
    SIGKILL'd service restarted on the same ``--out`` resumes from its
    last periodic checkpoint.
    """
    from repro.live import LiveService
    from repro.persistence import ScenarioSpec

    params: Dict[str, object] = {}
    if quick and scenario == "smart-city-partition":
        params["quick"] = True
    spec = ScenarioSpec(name=scenario, seed=seed, params=params)
    service = LiveService(spec, out, speed=speed, port=port,
                          checkpoint_every=checkpoint_every,
                          reload_dir=reload_dir, until=until)
    service.start(log=_progress)
    _progress(f"live: {scenario} at speed {speed:g} "
              f"(horizon {service.horizon:g}s); Ctrl-C drains cleanly")

    # The batch handlers raise out of the run; a service instead drains
    # at the next event boundary so no checkpoint ever captures a
    # half-executed event.
    received: Dict[str, int] = {}

    def _drain_handler(signum: int, _frame: object) -> None:
        received["signum"] = signum
        service.request_drain()

    previous = []
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            previous.append((signum, signal.signal(signum, _drain_handler)))
        except (ValueError, OSError):  # pragma: no cover - non-main thread
            pass
    try:
        outcome = service.run()
    finally:
        for signum, handler in previous:
            signal.signal(signum, handler)

    stats = service.executor.stats
    _print_table(
        f"live: {scenario} ({outcome})",
        ["signal", "value"],
        [["outcome", outcome],
         ["resumed from checkpoint", "yes" if service.resumed else "no"],
         ["simulated time (s)", service.system.sim.now],
         ["events fired", service.system.sim.fired_count],
         ["speed factor", speed],
         ["wall time (s)", stats.wall_s],
         ["pacing sleep (s)", stats.slept_s],
         ["max pacing lag (s)", stats.max_lag_s],
         ["checkpoints written", service.checkpoints_written],
         ["hot loads applied", len(service.hot_loads_applied)]])
    _print_data("live", {
        "outcome": outcome,
        "resumed": service.resumed,
        "checkpoints": service.checkpoints_written,
        "hot_loads": service.hot_loads_applied,
        "pacing": stats.to_dict(),
    })
    if outcome == "drained" and "signum" in received:
        return 128 + received["signum"]
    return 0


COMMANDS: Dict[str, Callable[[bool], None]] = {
    "maturity": cmd_maturity,
    "landscape": cmd_landscape,
    "verify": cmd_verify,
    "control": cmd_control,
    "dataflows": cmd_dataflows,
    "mape": cmd_mape,
}


def main(argv: List[str] = None) -> int:
    global _JSON_COLLECTOR
    from repro.persistence import UnknownScenarioError, scenario_names

    persistence_scenarios = tuple(scenario_names())
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Run the resilient-IoT reproduction experiments.",
    )
    parser.add_argument("command",
                        choices=sorted(COMMANDS) + ["all", "trace", "monitor",
                                                    "report", "checkpoint",
                                                    "resume", "replay",
                                                    "traffic", "security",
                                                    "incident", "profile",
                                                    "chaos", "scenarios",
                                                    "live", "shard"],
                        help="which experiment to run")
    parser.add_argument("scenario", nargs="?",
                        choices=sorted(set(TRACE_SCENARIOS)
                                       | set(persistence_scenarios)
                                       | {gate.name for gate
                                          in variant_gates().values()}
                                       | set(INCIDENT_VERBS)
                                       | set(PROFILE_VERBS)
                                       | set(CHAOS_VERBS)
                                       | set(SCENARIOS_VERBS)
                                       | set(SHARD_VERBS)),
                        default=None,
                        help="scenario for the trace/monitor/report/"
                             "checkpoint/traffic/security commands, "
                             "show|replay for the incident command, "
                             "run|diff for the profile command, "
                             "run|shrink|corpus for the chaos command, "
                             "list for the scenarios command, or "
                             "run|verify|resume for the shard command")
    parser.add_argument("path", nargs="?", default=None,
                        help="incident: path to a captured incident bundle; "
                             "profile run / shard run: scenario name; "
                             "profile diff: first snapshot")
    parser.add_argument("path2", nargs="?", default=None,
                        help="profile diff: second snapshot")
    parser.add_argument("--quick", action="store_true",
                        help="smaller/faster variants of the experiments")
    parser.add_argument("--json", action="store_true",
                        help="emit tables as JSON instead of text")
    parser.add_argument("--out", default=None,
                        help="output directory for trace/report/checkpoint "
                             "artifacts")
    parser.add_argument("--strict", action="store_true",
                        help="monitor/report: add strict SLOs (cloud "
                             "availability) that sustained outages breach")
    parser.add_argument("--at", type=float, default=None,
                        help="checkpoint: simulated time to checkpoint at "
                             "(default: the scenario's crash point or "
                             "mid-horizon)")
    parser.add_argument("--seed", type=int, default=None,
                        help="checkpoint / profile run: override the "
                             "scenario seed")
    parser.add_argument("--until", type=float, default=None,
                        help="resume/replay: stop at this simulated time "
                             "instead of the scenario horizon")
    parser.add_argument("--runs", type=int, default=None,
                        help="chaos run: number of sampled specs "
                             f"(default {CHAOS_DEMO_RUNS}, 3 with --quick)")
    parser.add_argument("--corpus", default="corpus",
                        help="chaos: failure-corpus directory "
                             "(default 'corpus')")
    parser.add_argument("--speed", type=float, default=1.0,
                        help="live: simulated seconds per wall second "
                             "(default 1.0 = real time, 0 = unpaced)")
    parser.add_argument("--port", type=int, default=8321,
                        help="live: telemetry server port (default 8321, "
                             "0 = ephemeral)")
    parser.add_argument("--checkpoint-every", type=float, default=10.0,
                        dest="checkpoint_every",
                        help="live: wall seconds between periodic "
                             "checkpoints; shard run: lookahead windows "
                             "between barrier checkpoints (default 10)")
    parser.add_argument("--reload-dir", default=None, dest="reload_dir",
                        help="live: directory polled for hot-load payload "
                             "JSON files (fault schedules, chaos specs)")
    parser.add_argument("--shards", type=int, default=4,
                        help="shard run: number of domain shards "
                             "(default 4; 1 = unsharded reference)")
    parser.add_argument("--workers", type=int, default=None,
                        help="shard: worker processes (default: one per "
                             "shard for run/resume, serial for verify)")
    parser.add_argument("--stop-after", type=int, default=None,
                        dest="stop_after",
                        help="shard run: abort after this lookahead window "
                             "(emulated mid-run kill; resume with "
                             "'shard resume')")
    args = parser.parse_args(argv)
    if args.command in ("trace", "monitor", "report"):
        if args.scenario is None:
            args.scenario = "smart-city-partition"
        elif args.scenario not in TRACE_SCENARIOS:
            parser.error(f"scenario {args.scenario!r} is not available for "
                         f"{args.command!r} (choose from {TRACE_SCENARIOS})")
    elif args.command == "checkpoint":
        if args.scenario is None:
            args.scenario = "control-outage"
        elif args.scenario not in persistence_scenarios:
            parser.error(f"scenario {args.scenario!r} is not available for "
                         "'checkpoint' (choose from "
                         f"{persistence_scenarios})")
    elif args.command in GATE_PLANES:
        gates = _plane_gates(args.command)
        if args.scenario is None:
            args.scenario = next(iter(gates))
        elif args.scenario not in gates:
            parser.error(f"scenario {args.scenario!r} is not available for "
                         f"{args.command!r} (choose from {tuple(gates)})")
    elif args.command == "incident":
        if args.scenario not in INCIDENT_VERBS:
            parser.error("incident needs a verb: "
                         f"choose from {INCIDENT_VERBS}")
        if args.path is None:
            parser.error(f"incident {args.scenario} needs a bundle path")
    elif args.command == "profile":
        if args.scenario not in PROFILE_VERBS:
            parser.error(f"profile needs a verb: choose from {PROFILE_VERBS}")
        if args.scenario == "run":
            if args.path is None:
                args.path = "smart-city-partition"
            elif args.path not in PROFILE_SCENARIOS:
                parser.error(f"scenario {args.path!r} is not available for "
                             f"'profile run' (choose from {PROFILE_SCENARIOS})")
        elif args.path is None or args.path2 is None:
            parser.error("profile diff needs two snapshot paths")
    elif args.command == "chaos":
        if args.scenario is None:
            args.scenario = "run"
        elif args.scenario not in CHAOS_VERBS:
            parser.error(f"chaos needs a verb: choose from {CHAOS_VERBS}")
        if args.scenario == "shrink" and args.path is None:
            parser.error("chaos shrink needs a spec.json (or bundle) path")
    elif args.command == "scenarios":
        if args.scenario is None:
            args.scenario = "list"
        elif args.scenario not in SCENARIOS_VERBS:
            parser.error("scenarios needs a verb: "
                         f"choose from {SCENARIOS_VERBS}")
    elif args.command == "live":
        if args.scenario is None:
            args.scenario = "traffic-retry-storm"
        elif args.scenario not in persistence_scenarios:
            parser.error(f"scenario {args.scenario!r} is not available for "
                         f"'live' (choose from {persistence_scenarios})")
    elif args.command == "shard":
        if args.scenario is None:
            args.scenario = "run"
        elif args.scenario not in SHARD_VERBS:
            parser.error(f"shard needs a verb: choose from {SHARD_VERBS}")
        if args.scenario == "run":
            if args.path is None:
                args.path = "smart-city-federated"
            elif args.path not in persistence_scenarios:
                parser.error(f"scenario {args.path!r} is not available for "
                             "'shard run' (choose from "
                             f"{persistence_scenarios})")
    if args.out is None:
        args.out = ("checkpoint-out"
                    if args.command in ("checkpoint", "resume", "replay")
                    else "prof-out" if args.command == "profile"
                    else "chaos-out" if args.command == "chaos"
                    else "live-out" if args.command == "live"
                    else "shard-out" if args.command == "shard"
                    else "trace-out")
    if args.json:
        _JSON_COLLECTOR = []
    _install_signal_handlers()
    exit_code = 0
    try:
        if args.command == "all":
            for name in ("maturity", "landscape", "verify", "control",
                         "dataflows", "mape"):
                COMMANDS[name](args.quick)
        elif args.command == "trace":
            cmd_trace(args.quick, scenario=args.scenario, out=args.out)
        elif args.command == "monitor":
            exit_code = cmd_monitor(args.quick, scenario=args.scenario,
                                    strict=args.strict, out=args.out)
        elif args.command == "report":
            exit_code = cmd_report(args.quick, scenario=args.scenario,
                                   out=args.out, strict=args.strict)
        elif args.command == "checkpoint":
            exit_code = cmd_checkpoint(args.quick, scenario=args.scenario,
                                       out=args.out, at=args.at,
                                       seed=args.seed)
        elif args.command == "resume":
            exit_code = cmd_resume(args.quick, out=args.out, until=args.until)
        elif args.command == "replay":
            exit_code = cmd_replay(args.quick, out=args.out, until=args.until)
        elif args.command in GATE_PLANES:
            exit_code = cmd_gate(_plane_gates(args.command)[args.scenario],
                                 args.quick, out=args.out)
        elif args.command == "incident":
            exit_code = (cmd_incident_show(args.path)
                         if args.scenario == "show"
                         else cmd_incident_replay(args.path))
        elif args.command == "profile":
            exit_code = (cmd_profile_run(args.quick, scenario=args.path,
                                         out=args.out, seed=args.seed)
                         if args.scenario == "run"
                         else cmd_profile_diff(args.path, args.path2))
        elif args.command == "chaos":
            if args.scenario == "run":
                exit_code = cmd_chaos_run(args.quick, seed=args.seed,
                                          runs=args.runs, out=args.out,
                                          corpus=args.corpus)
            elif args.scenario == "shrink":
                exit_code = cmd_chaos_shrink(args.path, out=args.out)
            else:
                exit_code = cmd_chaos_corpus(args.corpus)
        elif args.command == "scenarios":
            exit_code = cmd_scenarios_list()
        elif args.command == "live":
            exit_code = cmd_live(args.quick, scenario=args.scenario,
                                 out=args.out, speed=args.speed,
                                 port=args.port,
                                 checkpoint_every=args.checkpoint_every,
                                 reload_dir=args.reload_dir,
                                 until=args.until, seed=args.seed)
        elif args.command == "shard":
            if args.scenario == "run":
                exit_code = cmd_shard_run(
                    args.quick, scenario=args.path, shards=args.shards,
                    workers=args.workers, out=args.out, seed=args.seed,
                    checkpoint_every=int(args.checkpoint_every),
                    stop_after=args.stop_after)
            elif args.scenario == "verify":
                exit_code = cmd_shard_verify(out=args.out,
                                             workers=args.workers)
            else:
                exit_code = cmd_shard_resume(out=args.out,
                                             workers=args.workers)
        else:
            COMMANDS[args.command](args.quick)
        if _JSON_COLLECTOR is not None:
            print(json.dumps({"tables": _JSON_COLLECTOR,
                              "exit_code": exit_code}, indent=2,
                             default=str))
    except _HarnessSignal as exc:
        # A batch command was interrupted (SIGINT/SIGTERM).  Flush any
        # armed flight recorder as a harness-crash incident before
        # exiting with the conventional 128+signum code.
        exit_code = 128 + exc.signum
        bundles = _flush_signal_incidents(exc.signum)
        _progress(f"interrupted by signal {exc.signum}; exiting "
                  f"{exit_code}")
        for bundle in bundles:
            _progress(f"  harness-crash incident captured: {bundle}")
        _print_data("interrupted", {"signal": exc.signum,
                                    "exit_code": exit_code,
                                    "bundles": bundles})
        if _JSON_COLLECTOR is not None:
            print(json.dumps({"tables": _JSON_COLLECTOR,
                              "exit_code": exit_code}, indent=2,
                             default=str))
    except UnknownScenarioError as exc:
        # Journals, checkpoints and bundles can name scenarios this
        # checkout no longer registers; list what *is* available instead
        # of dumping a KeyError traceback.
        exit_code = 2
        _progress(f"error: unknown scenario {exc.name!r}")
        _progress("available scenarios (python -m repro scenarios list):")
        for name in exc.available:
            _progress(f"  {name}")
        _print_data("error", {"error": f"unknown scenario {exc.name!r}",
                              "available": list(exc.available)})
        if _JSON_COLLECTOR is not None:
            print(json.dumps({"tables": _JSON_COLLECTOR,
                              "exit_code": exit_code}, indent=2,
                             default=str))
    finally:
        _JSON_COLLECTOR = None
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())
