"""Canonical traffic experiments: overload and retry-storm.

Both scenarios put numbers on the paper's availability/elasticity story
(§II-§IV): what users actually experience when demand exceeds an edge
site's capacity, and when a transient fault meets naive retries.

``overload``
    An open-loop cohort offers ~1.6x an edge server's capacity.  The
    *naive* variant queues blindly: waiting time at a full queue exceeds
    the client timeout, so almost every served reply arrives late and
    goodput collapses far below capacity.  The *admission* variant
    bounds the queue so admitted requests finish in time -- goodput sits
    at capacity and the rest is rejected cheaply.  The *adaptive*
    variant starts naive but runs a MAPE loop with a
    :class:`~repro.adaptation.analyzer.BackpressureAnalyzer`: sustained
    backpressure re-routes the cohort to the elastic cloud pool.

``retry-storm``
    Demand is comfortably below capacity (~0.7x), but the edge server
    crashes for a while.  The *naive* variant retries every timeout up
    to 4 attempts with no budget or breaker: after the server heals, the
    retry amplification keeps the queue saturated, waiting time stays
    above the timeout, and goodput never recovers -- a metastable
    failure sustained by its own mitigation.  The *resilient* variant
    adds a retry budget and circuit breaker: the breaker fast-fails
    during the outage (no backlog forms), probes the healed server, and
    closes -- goodput recovers to the offered rate within seconds.

Deterministic by construction: all randomness comes from named RNG
streams, so these runs checkpoint/resume bit-identically like every
other registered scenario.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro import components
from repro.components import EDGE_CAPACITY
from repro.core.system import IoTSystem
from repro.faults.models import CrashRecoveryFault
from repro.persistence.scenarios import PreparedRun
from repro.scenarios import VariantGate, require_variant
from repro.traffic.client import COMPLETIONS_SERIES
from repro.traffic.stats import windowed_rate

OVERLOAD_HORIZON = 30.0
OVERLOAD_VARIANTS = ("naive", "admission", "adaptive")

RETRY_STORM_HORIZON = 45.0
RETRY_STORM_VARIANTS = ("naive", "resilient")
RETRY_STORM_OUTAGE = (10.0, 8.0)     # (start, duration) of the edge crash


def prepare_overload(seed: int = 23, variant: str = "admission",
                     users: int = 8000, rate_per_user: float = 0.04,
                     horizon: float = OVERLOAD_HORIZON) -> PreparedRun:
    """Wire (but do not run) one overload variant.

    The cohort offers ``users * rate_per_user`` req/s (default 320/s)
    against a 200 req/s edge server; variants differ only in the
    overload countermeasure.
    """
    require_variant("overload", variant, OVERLOAD_VARIANTS)
    system = IoTSystem.with_edge_cloud_landscape(2, 2, seed=seed)
    registry, edge, _cloud = components.serving(
        system, admission=variant == "admission")
    aux: Dict[str, Any] = {"edge": edge, "variant": variant,
                           "horizon": horizon}
    if variant == "adaptive":
        aux["loop"] = components.backpressure_loop(system, edge)
    client, cohort = components.user_cohort(system, registry, users,
                                            rate_per_user, stop=horizon)
    aux.update(registry=registry, client=client, cohort=cohort)
    return PreparedRun(system=system, horizon=horizon, aux=aux)


def prepare_retry_storm(seed: int = 29, variant: str = "resilient",
                        users: int = 3500, rate_per_user: float = 0.04,
                        horizon: float = RETRY_STORM_HORIZON) -> PreparedRun:
    """Wire (but do not run) one retry-storm variant.

    Offered load (default 140/s) is well under the 200/s capacity; an
    8s crash of the edge server plus aggressive retries is what makes
    the naive variant metastable.
    """
    require_variant("retry-storm", variant, RETRY_STORM_VARIANTS)
    system = IoTSystem.with_edge_cloud_landscape(2, 2, seed=seed)
    registry, edge, _cloud = components.serving(system)
    client, cohort = components.user_cohort(
        system, registry, users, rate_per_user, stop=horizon, retries=True,
        guarded=variant == "resilient")
    outage_at, outage_for = RETRY_STORM_OUTAGE
    system.injector.inject_at(outage_at, CrashRecoveryFault(
        name="edge0-crash", device_id="edge0", duration=outage_for))
    aux = {"registry": registry, "client": client, "cohort": cohort,
           "edge": edge, "variant": variant, "horizon": horizon,
           "outage": RETRY_STORM_OUTAGE}
    return PreparedRun(system=system, horizon=horizon, aux=aux)


# --------------------------------------------------------------------------- #
# Result extraction
# --------------------------------------------------------------------------- #
def recovery_window(horizon: float) -> tuple:
    """The measurement window for post-heal goodput recovery.

    Starts a grace period after the fault heals (breaker re-close plus
    queue drain time), ends at the horizon.
    """
    heal = RETRY_STORM_OUTAGE[0] + RETRY_STORM_OUTAGE[1]
    return (heal + 3.0, horizon)


def overload_result(prepared: PreparedRun) -> Dict[str, Any]:
    """KPIs of one finished overload run, plus the capacity yardsticks."""
    system = prepared.system
    aux = prepared.aux
    horizon = aux["horizon"]
    cohort = aux["cohort"]
    client = aux["client"]
    stats = client.stats
    goodput = stats.completed / horizon
    return {
        "variant": aux["variant"],
        "offered_rate": cohort.aggregate_rate,
        "capacity": EDGE_CAPACITY,
        "goodput": goodput,
        "goodput_vs_capacity": goodput / EDGE_CAPACITY,
        "success_ratio": stats.success_ratio,
        "p99_latency": stats.latency.quantile(0.99),
        "timed_out": stats.timed_out,
        "rejected": stats.rejected,
        "late": stats.late,
        "edge": aux["edge"].summary(),
        "events": system.sim.fired_count,
    }


def retry_storm_result(prepared: PreparedRun) -> Dict[str, Any]:
    """KPIs of one finished retry-storm run, centered on recovery."""
    system = prepared.system
    aux = prepared.aux
    horizon = aux["horizon"]
    cohort = aux["cohort"]
    client = aux["client"]
    start, end = recovery_window(horizon)
    recovered_goodput = windowed_rate(system.metrics, COMPLETIONS_SERIES,
                                      start, end)
    offered = cohort.aggregate_rate
    stats = client.stats
    out = {
        "variant": aux["variant"],
        "offered_rate": offered,
        "recovery_window": [start, end],
        "recovered_goodput": recovered_goodput,
        "recovery_ratio": recovered_goodput / offered,
        "goodput": stats.completed / horizon,
        "success_ratio": stats.success_ratio,
        "retries": stats.retries,
        "timed_out": stats.timed_out,
        "short_circuited": stats.short_circuited,
        "late": stats.late,
        "events": system.sim.fired_count,
    }
    breaker = client.breaker
    if breaker is not None:
        out["breaker"] = {"state": breaker.state, "trips": breaker.trips}
    return out


def run_overload(variant: str, seed: int = 23, **params: Any) -> Dict[str, Any]:
    prepared = prepare_overload(seed=seed, variant=variant, **params)
    prepared.system.run(until=prepared.horizon)
    return overload_result(prepared)


def run_retry_storm(variant: str, seed: int = 29, **params: Any) -> Dict[str, Any]:
    prepared = prepare_retry_storm(seed=seed, variant=variant, **params)
    prepared.system.run(until=prepared.horizon)
    return retry_storm_result(prepared)


# --------------------------------------------------------------------------- #
# CI gates: the resilient variant must hold where the naive one fails
# --------------------------------------------------------------------------- #
def _overload_verdict(by: Dict[str, Dict[str, Any]]) -> Tuple[List[str], str]:
    held = by["admission"]["goodput_vs_capacity"]
    if held < 0.8:
        return [f"admission goodput at {held:.0%} of capacity"], ""
    return [], f"admission control holds goodput at {held:.0%} of capacity"


def _retry_storm_verdict(by: Dict[str, Dict[str, Any]]
                         ) -> Tuple[List[str], str]:
    recovered = by["resilient"]["recovery_ratio"]
    if recovered < 0.9:
        return [f"post-heal goodput recovered only {recovered:.0%} "
                "of offered"], ""
    return [], f"budget+breaker recover {recovered:.0%} of offered goodput"


GATES = [
    VariantGate(
        scenario="traffic-overload", variants=OVERLOAD_VARIANTS,
        judged="admission", horizons=(15.0, OVERLOAD_HORIZON),
        run=run_overload,
        title="traffic: overload at 1.6x capacity (horizon {horizon:g}s)",
        headers=("variant", "offered/s", "capacity/s", "goodput/s",
                 "success", "p99 (s)", "rejected", "timed out"),
        row=lambda r: [r["variant"], r["offered_rate"], r["capacity"],
                       r["goodput"], r["success_ratio"], r["p99_latency"],
                       r["rejected"], r["timed_out"]],
        verdict=_overload_verdict),
    VariantGate(
        scenario="traffic-retry-storm", variants=RETRY_STORM_VARIANTS,
        judged="resilient", horizons=(35.0, RETRY_STORM_HORIZON),
        run=run_retry_storm,
        title="traffic: retry storm across an 8s edge crash "
              "(horizon {horizon:g}s)",
        headers=("variant", "offered/s", "recovered/s", "recovery",
                 "retries", "short-circuited", "breaker trips"),
        row=lambda r: [r["variant"], r["offered_rate"],
                       r["recovered_goodput"], r["recovery_ratio"],
                       r["retries"], r["short_circuited"],
                       r.get("breaker", {}).get("trips", "-")],
        verdict=_retry_storm_verdict),
]
