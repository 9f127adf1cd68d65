"""Canonical active-adversary experiments: the security plane under fire.

Three scenarios put numbers on the paper's trust/security story (§VI):
what coordination and serving actually deliver when a *member* of the
system -- not the environment -- turns hostile, and what the defended
stack (signed digests, trust scoring, MAPE intrusion response) buys back.

``byzantine-gossip``
    Five edge sites gossip a configuration key.  A compromised site
    equivocates: every peer is told a different value at an absurdly
    high version.  The *naive* mesh (no authentication) is permanently
    split-brained -- same version, same owner, different values, so no
    entry ever dominates.  The *defended* mesh signs digests: the
    tampered pushes fail verification at delivery, every drop charges
    the attacker ``digest-mismatch`` evidence, trust collapses, and the
    MAPE loop quarantines the attacker -- honest sites converge at
    clean-run speed.

``raft-equivocation``
    Five Raft nodes with two compromised voters that grant *every*
    candidate.  Naive: two honest candidates in the same term each
    count themselves plus the two liars -- quorum twice, two leaders,
    leader-safety violated.  Defended: the forged replies are rewritten
    below the signing layer, fail verification, and are dropped;
    elections need real honest votes, so at most one leader per term,
    and the liars' ``append_reply`` forgeries get them distrusted and
    quarantined.

``sybil-flood``
    An edge server serves a 140/s cohort at 200/s capacity.  A
    compromised peer site floods 600/s of validly-signed requests and
    showers SWIM with fabricated identities.  Naive: the queue fills
    with flood, goodput collapses, sybils pollute membership.
    Defended: bounded admission keeps latency sane, the flood sentry
    reads the transport's per-source counters and charges ``flood-rate``
    evidence, the membership update filter rejects unknown identities
    (charging ``sybil-join``), and the MAPE loop quarantines the
    flooder -- goodput holds at >=90% of the clean run.

Deterministic by construction: all randomness comes from named RNG
streams, attack schedules ride the fault injector, and every variant is
registered for checkpoint/resume/replay like any other scenario.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Dict, List, Optional, Tuple

from repro import components
from repro.coordination.gossip import GossipNode
from repro.coordination.raft import RaftNode
from repro.core.system import IoTSystem
from repro.persistence.scenarios import PreparedRun
from repro.scenarios import VariantGate, require_variant
from repro.security.adversary import (
    FloodBehavior,
    GossipEquivocateBehavior,
    SybilJoinBehavior,
    VoteEquivocateBehavior,
)
from repro.security.plane import SecurityPlane
from repro.traffic.client import COMPLETIONS_SERIES
from repro.traffic.stats import windowed_rate

BYZANTINE_GOSSIP_HORIZON = 24.0
BYZANTINE_GOSSIP_VARIANTS = ("clean", "naive", "defended")
#: The contested configuration key and when the attacker turns.
_GOSSIP_KEY = "cfg"
_GOSSIP_COMPROMISE_AT = 1.0

RAFT_EQUIVOCATION_HORIZON = 12.0
RAFT_EQUIVOCATION_VARIANTS = ("naive", "defended")
_RAFT_COMPROMISE_AT = 0.2

SYBIL_FLOOD_HORIZON = 20.0
SYBIL_FLOOD_VARIANTS = ("clean", "naive", "defended")
_FLOOD_COMPROMISE_AT = 5.0
#: Goodput measurement window: opens just after the compromise so the
#: clean/naive/defended comparison covers the attacked regime.
SYBIL_FLOOD_WINDOW = (6.0, 20.0)

#: Series the byzantine-gossip agreement probe records (1.0 = all honest
#: sites agree on the contested key).
AGREEMENT_SERIES = "security.gossip.agreement"

_AGREEMENT_PERIOD = 0.5


# --------------------------------------------------------------------------- #
# byzantine-gossip
# --------------------------------------------------------------------------- #
def prepare_byzantine_gossip(seed: int = 37, variant: str = "defended",
                             horizon: float = BYZANTINE_GOSSIP_HORIZON,
                             authed: bool = False) -> PreparedRun:
    """Wire (but do not run) one byzantine-gossip variant.

    Five edge sites gossip ``cfg`` (written once by edge0); ``edge4``
    equivocates on it from t=1 in the naive and defended variants.
    ``authed=True`` adds just the signer/verifier pair to a non-defended
    variant: the bench's price of the interceptor+auth path alone,
    without trust hooks or the MAPE loop.
    """
    require_variant("byzantine-gossip", variant, BYZANTINE_GOSSIP_VARIANTS)
    system = IoTSystem.with_edge_cloud_landscape(5, 1, seed=seed)
    plane = SecurityPlane(system)
    edges = list(system.edge_nodes)
    attacker = edges[-1]
    honest = [e for e in edges if e != attacker]
    defended = variant == "defended"
    if defended or authed:
        plane.enable_auth(edges, protected_kinds=("gossip.",))
    nodes: Dict[str, GossipNode] = {}
    for edge in edges:
        evidence = partial(plane.trust.record, edge) if defended else None
        node = GossipNode(
            system.sim, system.network, edge,
            [e for e in edges if e != edge],
            system.rngs.stream(f"security-gossip:{edge}"),
            period=0.5, evidence=evidence,
        )
        nodes[edge] = node
        plane.attach_gossip(node)
    nodes[edges[0]].set(_GOSSIP_KEY, "stable-config")
    for edge in edges:
        nodes[edge].start()

    loop = (components.intrusion_loop(system, plane, edges[0], list(edges))
            if defended else None)

    if variant != "clean":
        components.compromise(system, attacker, _GOSSIP_COMPROMISE_AT,
                              [GossipEquivocateBehavior(key=_GOSSIP_KEY)])

    def probe(sim: Any) -> None:
        values = {nodes[e].get(_GOSSIP_KEY) for e in honest}
        agreed = len(values) == 1 and None not in values
        system.metrics.record(AGREEMENT_SERIES, sim.now,
                              1.0 if agreed else 0.0)
        sim.schedule(_AGREEMENT_PERIOD, probe, label="security.probe")

    system.sim.schedule(_AGREEMENT_PERIOD, probe, label="security.probe")
    aux: Dict[str, Any] = {"plane": plane, "nodes": nodes, "edges": edges,
                           "attacker": attacker, "honest": honest,
                           "variant": variant, "horizon": horizon,
                           "loop": loop}
    return PreparedRun(system=system, horizon=horizon, aux=aux)


def _converged_at(metrics: Any, horizon: float) -> Optional[float]:
    """Earliest probe time after which agreement holds through the end."""
    samples = metrics.series(AGREEMENT_SERIES).window(0.0, horizon + 1.0)
    if not samples or samples[-1][1] < 1.0:
        return None
    converged = samples[-1][0]
    for time, value in reversed(samples):
        if value < 1.0:
            break
        converged = time
    return converged


def byzantine_gossip_result(prepared: PreparedRun) -> Dict[str, Any]:
    system = prepared.system
    aux = prepared.aux
    plane: SecurityPlane = aux["plane"]
    nodes: Dict[str, GossipNode] = aux["nodes"]
    converged = _converged_at(system.metrics, aux["horizon"])
    return {
        "variant": aux["variant"],
        "attacker": aux["attacker"],
        "converged_at": converged,
        "converged": converged is not None,
        "honest_values": sorted({str(nodes[e].get(_GOSSIP_KEY))
                                 for e in aux["honest"]}),
        "quarantined": sorted(plane.quarantined),
        "distrusted": plane.trust.flagged,
        "security": plane.kpis(aux["horizon"]),
        "events": system.sim.fired_count,
    }


def run_byzantine_gossip(variant: str, seed: int = 37,
                         **params: Any) -> Dict[str, Any]:
    prepared = prepare_byzantine_gossip(seed=seed, variant=variant, **params)
    prepared.system.run(until=prepared.horizon)
    return byzantine_gossip_result(prepared)


# --------------------------------------------------------------------------- #
# raft-equivocation
# --------------------------------------------------------------------------- #
def prepare_raft_equivocation(seed: int = 41, variant: str = "defended",
                              horizon: float = RAFT_EQUIVOCATION_HORIZON
                              ) -> PreparedRun:
    """Wire (but do not run) one raft-equivocation variant.

    Five Raft nodes; the last two grant every vote and ack every append.
    Election timeouts are deliberately tight (0.8-1.1s against ~20ms
    vote RTTs) so same-term honest candidacies actually collide -- the
    collision is what the forged quorum turns into a double leader.
    """
    require_variant("raft-equivocation", variant, RAFT_EQUIVOCATION_VARIANTS)
    system = IoTSystem.with_edge_cloud_landscape(5, 1, seed=seed)
    plane = SecurityPlane(system)
    edges = list(system.edge_nodes)
    attackers = edges[-2:]
    defended = variant == "defended"
    if defended:
        plane.enable_auth(edges, protected_kinds=("raft.",))
    nodes: Dict[str, RaftNode] = {}
    for edge in edges:
        evidence = partial(plane.trust.record, edge) if defended else None
        nodes[edge] = RaftNode(
            system.sim, system.network, edge, list(edges),
            system.rngs.stream(f"security-raft:{edge}"),
            heartbeat_interval=0.3, election_timeout=(0.8, 1.1),
            evidence=evidence,
        )
    for edge in edges:
        nodes[edge].start()
    loop = (components.intrusion_loop(system, plane, edges[0], list(edges))
            if defended else None)
    for attacker in attackers:
        components.compromise(system, attacker, _RAFT_COMPROMISE_AT,
                              [VoteEquivocateBehavior()])
    aux: Dict[str, Any] = {"plane": plane, "nodes": nodes, "edges": edges,
                           "attackers": attackers, "variant": variant,
                           "horizon": horizon, "loop": loop}
    return PreparedRun(system=system, horizon=horizon, aux=aux)


def raft_equivocation_result(prepared: PreparedRun) -> Dict[str, Any]:
    system = prepared.system
    aux = prepared.aux
    plane: SecurityPlane = aux["plane"]
    nodes: Dict[str, RaftNode] = aux["nodes"]
    winners_by_term: Dict[int, List[str]] = {}
    for edge in aux["edges"]:
        for term in nodes[edge].won_terms:
            winners_by_term.setdefault(term, []).append(edge)
    double_wins = {term: sorted(winners) for term, winners
                   in sorted(winners_by_term.items()) if len(winners) > 1}
    leaders = sorted(e for e in aux["edges"]
                     if nodes[e].role.value == "leader")
    return {
        "variant": aux["variant"],
        "attackers": list(aux["attackers"]),
        "terms_won": {e: list(nodes[e].won_terms) for e in aux["edges"]},
        "double_wins": double_wins,
        "safety_violated": bool(double_wins),
        "elections_won": sum(nodes[e].elections_won for e in aux["edges"]),
        "leader_elected": bool(leaders),
        "final_leaders": leaders,
        "quarantined": sorted(plane.quarantined),
        "distrusted": plane.trust.flagged,
        "security": plane.kpis(aux["horizon"]),
        "events": system.sim.fired_count,
    }


def run_raft_equivocation(variant: str, seed: int = 41,
                          **params: Any) -> Dict[str, Any]:
    prepared = prepare_raft_equivocation(seed=seed, variant=variant, **params)
    prepared.system.run(until=prepared.horizon)
    return raft_equivocation_result(prepared)


# --------------------------------------------------------------------------- #
# sybil-flood
# --------------------------------------------------------------------------- #
def prepare_sybil_flood(seed: int = 43, variant: str = "defended",
                        horizon: float = SYBIL_FLOOD_HORIZON) -> PreparedRun:
    """Wire (but do not run) one sybil-flood variant.

    ``edge0`` serves a 140/s cohort at 200/s capacity; from t=5 a
    compromised ``edge1`` floods 600/s of signed requests and pushes
    fabricated SWIM identities at ``edge0``/``edge2``.
    """
    require_variant("sybil-flood", variant, SYBIL_FLOOD_VARIANTS)
    system = IoTSystem.with_edge_cloud_landscape(3, 2, seed=seed)
    plane = SecurityPlane(system)
    attacker = "edge1"
    defended = variant == "defended"
    if defended:
        components.authenticate_mesh(system, plane)
    registry, server, _cloud = components.serving(system, admission=defended,
                                                  cloud=False)
    client, cohort = components.user_cohort(system, registry, users=3500,
                                            rate_per_user=0.04, stop=horizon)
    members = components.membership_mesh(system, plane, "security-swim",
                                         defended)
    sentry = loop = None
    if defended:
        sentry, loop = components.flood_response(system, plane)

    if variant != "clean":
        components.compromise(system, attacker, _FLOOD_COMPROMISE_AT, [
            FloodBehavior(target="edge0", rate=600.0),
            SybilJoinBehavior(targets=["edge0", "edge2"]),
        ])

    aux: Dict[str, Any] = {"plane": plane, "registry": registry,
                           "server": server, "client": client,
                           "cohort": cohort, "members": members,
                           "attacker": attacker, "variant": variant,
                           "horizon": horizon, "sentry": sentry,
                           "loop": loop}
    return PreparedRun(system=system, horizon=horizon, aux=aux)


def sybil_flood_result(prepared: PreparedRun) -> Dict[str, Any]:
    system = prepared.system
    aux = prepared.aux
    plane: SecurityPlane = aux["plane"]
    start, end = SYBIL_FLOOD_WINDOW
    goodput = windowed_rate(system.metrics, COMPLETIONS_SERIES, start, end)
    sybils = components.sybil_members(aux["members"], aux["attacker"])
    stats = aux["client"].stats
    per_source = system.network.stats.per_source
    return {
        "variant": aux["variant"],
        "attacker": aux["attacker"],
        "offered_rate": aux["cohort"].aggregate_rate,
        "window": [start, end],
        "goodput": goodput,
        "success_ratio": stats.success_ratio,
        "timed_out": stats.timed_out,
        "rejected": stats.rejected,
        "sybil_members": sybils,
        "sybil_count": len(sybils),
        "attacker_messages": per_source.get(aux["attacker"], [0, 0])[0],
        "quarantined": sorted(plane.quarantined),
        "distrusted": plane.trust.flagged,
        "security": plane.kpis(aux["horizon"]),
        "events": system.sim.fired_count,
    }


def run_sybil_flood(variant: str, seed: int = 43,
                    **params: Any) -> Dict[str, Any]:
    prepared = prepare_sybil_flood(seed=seed, variant=variant, **params)
    prepared.system.run(until=prepared.horizon)
    return sybil_flood_result(prepared)


# --------------------------------------------------------------------------- #
# CI gates: the naive variant must fail where the defended one holds
# --------------------------------------------------------------------------- #
def _byzantine_gossip_verdict(by: Dict[str, Dict[str, Any]]
                              ) -> Tuple[List[str], str]:
    clean, naive, defended = by["clean"], by["naive"], by["defended"]
    failures = []
    if naive["converged"]:
        failures.append("naive mesh converged despite the equivocator")
    if not defended["converged"]:
        failures.append("defended mesh never converged")
    elif defended["converged_at"] > 2.0 * clean["converged_at"]:
        failures.append(
            f"defended convergence {defended['converged_at']:.1f}s "
            f"exceeds 2x clean ({clean['converged_at']:.1f}s)")
    if naive["attacker"] not in defended["quarantined"]:
        failures.append("defended run did not quarantine the attacker")
    if failures:
        return failures, ""
    return [], (f"defended converges at {defended['converged_at']:.1f}s "
                f"vs clean {clean['converged_at']:.1f}s; naive never "
                "converges")


def _sybil_flood_verdict(by: Dict[str, Dict[str, Any]]
                         ) -> Tuple[List[str], str]:
    clean, naive, defended = by["clean"], by["naive"], by["defended"]
    failures = []
    if naive["goodput"] >= 0.5 * clean["goodput"]:
        failures.append("naive run did not collapse under the flood")
    if defended["goodput"] < 0.9 * clean["goodput"]:
        failures.append(
            f"defended goodput {defended['goodput']:.1f}/s is below "
            f"90% of clean ({clean['goodput']:.1f}/s)")
    if defended["sybil_count"]:
        failures.append(
            f"defended membership admitted {defended['sybil_count']} "
            "sybil identities")
    if not naive["sybil_count"]:
        failures.append("naive membership rejected the sybils "
                        "(attack had no teeth)")
    if failures:
        return failures, ""
    return [], (f"defended holds "
                f"{defended['goodput'] / clean['goodput']:.0%} of clean "
                f"goodput; naive collapses to "
                f"{naive['goodput'] / clean['goodput']:.0%}")


def _raft_equivocation_verdict(by: Dict[str, Dict[str, Any]]
                               ) -> Tuple[List[str], str]:
    naive, defended = by["naive"], by["defended"]
    failures = []
    if not naive["safety_violated"]:
        failures.append("naive run never double-elected "
                        "(attack had no teeth)")
    if defended["safety_violated"]:
        failures.append("defended run elected two leaders in one term")
    if not defended["leader_elected"]:
        failures.append("defended run never elected a leader")
    if failures:
        return failures, ""
    return [], (f"naive double-elects in {len(naive['double_wins'])} "
                f"term(s); defended keeps one safe leader and quarantines "
                f"{','.join(defended['quarantined'])}")


#: Gate order is the CLI's: the first is ``python -m repro security``'s
#: default scenario.
GATES = [
    VariantGate(
        scenario="security-byzantine-gossip",
        variants=BYZANTINE_GOSSIP_VARIANTS, judged="defended",
        horizons=(12.0, BYZANTINE_GOSSIP_HORIZON), run=run_byzantine_gossip,
        title="security: byzantine gossip (horizon {horizon:g}s)",
        headers=("variant", "converged", "converged at (s)",
                 "honest values", "quarantined", "auth drops"),
        row=lambda r: [r["variant"], r["converged"], r["converged_at"],
                       len(r["honest_values"]),
                       ",".join(r["quarantined"]) or "-",
                       r["security"]["dropped_auth"]],
        verdict=_byzantine_gossip_verdict),
    VariantGate(
        scenario="security-sybil-flood", variants=SYBIL_FLOOD_VARIANTS,
        judged="defended",
        horizons=(SYBIL_FLOOD_HORIZON, SYBIL_FLOOD_HORIZON),
        run=run_sybil_flood,
        title="security: sybil flood against an edge server",
        headers=("variant", "offered/s", "goodput/s", "success", "sybils",
                 "attacker msgs", "quarantined"),
        row=lambda r: [r["variant"], r["offered_rate"], r["goodput"],
                       r["success_ratio"], r["sybil_count"],
                       r["attacker_messages"],
                       ",".join(r["quarantined"]) or "-"],
        verdict=_sybil_flood_verdict),
    VariantGate(
        scenario="security-raft-equivocation",
        variants=RAFT_EQUIVOCATION_VARIANTS, judged="defended",
        horizons=(RAFT_EQUIVOCATION_HORIZON, RAFT_EQUIVOCATION_HORIZON),
        run=run_raft_equivocation,
        title="security: raft equivocation with f=2 of n=5 compromised",
        headers=("variant", "elections won", "double-win terms", "safety",
                 "final leaders", "quarantined"),
        row=lambda r: [r["variant"], r["elections_won"],
                       ",".join(str(t) for t in r["double_wins"]) or "-",
                       "VIOLATED" if r["safety_violated"] else "safe",
                       ",".join(r["final_leaders"]) or "-",
                       ",".join(r["quarantined"]) or "-"],
        verdict=_raft_equivocation_verdict),
]
