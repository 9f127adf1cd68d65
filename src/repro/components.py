"""The parts every scenario composes, each built in exactly one place.

The paper's maturity ladder (SSIV) stacks defences: admission, then a
retry budget, circuit breaker and backpressure MAPE loop, then
authentication, trust, flood sentry, guarded membership and intrusion
response.  The traffic and security scenarios and the chaos compiler
are points on that ladder; they build each rung here (same RNG stream
names in every caller) and differ only in which rungs they pick and in
what order they start them.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Dict, List, Optional, Tuple

from repro.adaptation import (
    BackpressureAnalyzer,
    Executor,
    IntrusionAnalyzer,
    MapeLoop,
    RuleBasedPlanner,
)
from repro.coordination.membership import MembershipProtocol
from repro.faults.models import NodeCompromiseFault
from repro.security.trust import FloodSentry
from repro.traffic.admission import QueueLengthAdmission
from repro.traffic.client import TrafficClient
from repro.traffic.loadgen import ClientCohort
from repro.traffic.patterns import CircuitBreaker, RetryBudget, RetryPolicy
from repro.traffic.server import Server, ServiceModel
from repro.traffic.stats import TrafficRegistry

#: The edge site under test and the device its user cohort sits behind.
EDGE = "edge0"
CLIENT_NODE = "d0.0"

#: Edge serving capacity: 4 slots x 50 req/s each = 200 req/s.
EDGE_CONCURRENCY = 4
SERVICE_MEAN = 0.02
EDGE_CAPACITY = EDGE_CONCURRENCY / SERVICE_MEAN


def _server(system: Any, registry: TrafficRegistry, node: str,
            concurrency: int, queue_capacity: int) -> Server:
    return registry.add_server(Server(
        system.sim, system.network, node,
        rng=system.rngs.stream(f"traffic:server:{node}"),
        concurrency=concurrency, queue_capacity=queue_capacity,
        service=ServiceModel(mean=SERVICE_MEAN),
        metrics=system.metrics, trace=system.trace,
    ))


def serving(system: Any, admission: bool = False, cloud: bool = True
            ) -> Tuple[TrafficRegistry, Server, Optional[Server]]:
    """A traffic registry, the 200 req/s edge server and the cloud pool.

    ``admission`` bounds the edge queue; ``cloud`` adds the elastic pool
    an overloaded edge offloads to.
    """
    registry = TrafficRegistry(system)
    edge = _server(system, registry, EDGE, EDGE_CONCURRENCY, 64)
    if admission:
        # 8 entries / 200 req/s = 40ms worst-case wait against the 250ms
        # client deadline.
        edge.admission = QueueLengthAdmission(8)
    pool = _server(system, registry, "cloud", 32, 512) if cloud else None
    return registry, edge, pool


def user_cohort(system: Any, registry: TrafficRegistry, users: int,
                rate_per_user: float, stop: float, retries: bool = False,
                guarded: bool = False) -> Tuple[TrafficClient, ClientCohort]:
    """A started open-loop user cohort behind one client to the edge.

    ``retries`` gives the client the aggressive retry policy that turns
    an outage metastable when nothing bounds its amplification;
    ``guarded`` bounds it with a retry budget and a circuit breaker.
    """
    retry = budget = breaker = None
    if retries:
        retry = RetryPolicy(max_attempts=4, base_delay=0.05, multiplier=2.0,
                            max_delay=1.0, jitter=0.3)
        if guarded:
            budget = RetryBudget(ratio=0.1, cap=50.0, initial=10.0)
            breaker = CircuitBreaker(failure_threshold=5, recovery_time=1.0,
                                     half_open_probes=1, success_threshold=3)
    client = registry.add_client(TrafficClient(
        system.sim, system.network, "cohort", CLIENT_NODE, EDGE,
        rng=system.rngs.stream("traffic:client"),
        timeout=0.25, retry=retry, budget=budget, breaker=breaker,
        metrics=system.metrics, trace=system.trace,
    ))
    cohort = ClientCohort(
        system.sim, client, users=users, rate_per_user=rate_per_user,
        rng=system.rngs.stream("traffic:arrivals"), stop=stop,
    )
    cohort.start()
    return client, cohort


def host_loop(system: Any, host: str, scope: List[str],
              analyzers: List[Any], period: float = 1.0) -> MapeLoop:
    """An unstarted rule-planned MAPE loop on ``host`` over ``scope``."""
    return MapeLoop(
        system.sim, system.network, system.fleet, host, scope,
        analyzers=analyzers,
        planner=RuleBasedPlanner(),
        executor=Executor(system.sim, system.network, system.fleet, host,
                          system.rngs.stream(f"exec:{host}"),
                          trace=system.trace),
        period=period, metrics=system.metrics, trace=system.trace,
    )


def backpressure_loop(system: Any, edge: Server) -> MapeLoop:
    """Started loop that offloads the cohort to the cloud on backpressure."""
    loop = host_loop(system, EDGE, [CLIENT_NODE], [BackpressureAnalyzer()])
    # The elasticity escape hatch the overload rule consults.
    loop.knowledge.facts["offload_target"] = "cloud"
    edge.attach_backpressure(loop.knowledge)
    loop.start()
    return loop


def intrusion_loop(system: Any, plane: Any, host: str, scope: List[str],
                   period: float = 1.0) -> MapeLoop:
    """Started intrusion-response loop: trust facts in, quarantine out."""
    loop = host_loop(system, host, scope, [IntrusionAnalyzer()], period)
    plane.trust.attach(loop.knowledge)
    loop.start()
    return loop


def membership_mesh(system: Any, plane: Any, stream_prefix: str,
                    defended: bool) -> Dict[str, MembershipProtocol]:
    """A started SWIM mesh over every edge site, attached to ``plane``.

    ``defended`` admits only keyed (enrolled) identities, charging the
    relayer of any other ``sybil-join`` evidence, and bounds incarnation
    jumps.  Site ``e`` draws from RNG stream ``f"{stream_prefix}:{e}"``.
    """
    edges = list(system.edge_nodes)
    members: Dict[str, MembershipProtocol] = {}
    for edge in edges:
        update_filter = evidence = None
        if defended:
            evidence = partial(plane.trust.record, edge)

            def update_filter(src: Optional[str], node: str, state: str,
                              incarnation: int, _obs=edge) -> bool:
                if plane.keychain.known(node):
                    return True
                if src is not None:
                    plane.trust.record(_obs, src, "sybil-join", detail=node)
                return False
        protocol = MembershipProtocol(
            system.sim, system.network, edge,
            [e for e in edges if e != edge],
            system.rngs.stream(f"{stream_prefix}:{edge}"),
            probe_period=1.0,
            update_filter=update_filter, evidence=evidence,
            max_incarnation_jump=8 if defended else None,
        )
        members[edge] = protocol
        plane.attach_membership(protocol)
    for edge in edges:
        members[edge].start()
    return members


def sybil_members(members: Dict[str, MembershipProtocol],
                  attacker: Optional[str]) -> List[str]:
    """Fabricated identities in any membership view but the attacker's."""
    return sorted({m for edge, protocol in members.items()
                   if edge != attacker
                   for m in protocol.members()
                   if m.startswith("sybil-")})


def authenticate_mesh(system: Any, plane: Any) -> None:
    """Key every edge site and the cohort's device; sign SWIM traffic."""
    plane.enable_auth(list(system.edge_nodes) + [CLIENT_NODE],
                      protected_kinds=("swim.",))


def flood_response(system: Any, plane: Any) -> Tuple[FloodSentry, MapeLoop]:
    """The edge's started flood sentry and the intrusion loop it feeds.

    The sentry charges ``flood-rate`` evidence against any source over
    300 msg/s; the loop quarantines whoever trust flags, edge-wide.
    """
    sentry = FloodSentry(system, plane.trust, observer=EDGE, period=0.5,
                         rate_threshold=300.0, exempt=[EDGE])
    sentry.start()
    loop = intrusion_loop(system, plane, EDGE, list(system.edge_nodes),
                          period=0.5)
    return sentry, loop


def compromise(system: Any, attacker: str, at: float,
               behaviors: List[Any]) -> None:
    """Turn ``attacker`` hostile at ``at`` with the given behaviours."""
    system.injector.inject_at(at, NodeCompromiseFault(
        name=f"compromise:{attacker}", device_id=attacker,
        behaviors=behaviors))
