"""Compile a :class:`~repro.chaos.spec.ChaosSpec` onto the plane builders.

The compiler is the bridge between the declarative cross-product and the
component builders in :mod:`repro.components` -- the same builders the
canonical traffic and security scenarios call, so a spec and the
hand-written variant it describes wire identical parts.  One
:meth:`ScenarioCompiler.compile` call builds the workload's landscape,
attaches the traffic plane, schedules the fault and adversary timeline,
applies the maturity level's defense stack and wires the SLO monitor --
returning the same :class:`~repro.persistence.scenarios.PreparedRun`
shape every registered scenario returns, so journaling, checkpointing,
deterministic replay and flight-recorder capture all work unchanged.

Maturity levels map onto cumulative defense wiring (paper SSIV):

==== ==============================================================
ML1  naive: no countermeasures at all
ML2  + bounded admission (``QueueLengthAdmission``) at the edge
ML3  + retry budget, circuit breaker, backpressure MAPE loop with a
     cloud offload target
ML4  + security defenses when an adversary is present: authenticated
     transport, trust scoring, flood sentry, membership identity
     filter, intrusion-response MAPE loop
==== ==============================================================

The SLO monitor is part of the *spec*, not of the campaign that happens
to run it: it is always wired, so a spec found failing by a campaign and
the same spec replayed from a corpus bundle produce bit-identical event
streams.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro import components
from repro.chaos.spec import ChaosSpec
from repro.components import EDGE_CAPACITY
from repro.core.system import IoTSystem
from repro.faults.models import (
    CrashRecoveryFault,
    Fault,
    LatencySpikeFault,
    LinkFailureFault,
    PartitionFault,
)
from repro.persistence.scenarios import PreparedRun

#: SLO evaluation period (sim seconds) and goodput objective window.
SLO_PERIOD = 2.0
GOODPUT_WINDOW = 8.0

#: End-state goodput objective: half of what the system should sustain.
#: Transient dips during an outage do not breach the *latest* evaluation;
#: a metastable collapse that outlives its cause does.
GOODPUT_OBJECTIVE_FRACTION = 0.5


class CompileError(ValueError):
    """A spec that cannot be wired onto the landscape it describes."""


class ScenarioCompiler:
    """Stateless spec -> :class:`PreparedRun` compiler."""

    def compile(self, spec: ChaosSpec) -> PreparedRun:
        spec.validate()
        system, workload = self._build_landscape(spec)
        aux: Dict[str, Any] = {"chaos_spec": spec, "workload": workload,
                               "horizon": spec.horizon}
        plane = self._build_security_plane(spec, system, aux)
        self._wire_traffic(spec, system, aux)
        self._wire_membership(spec, system, plane, aux)
        self._wire_defenses(spec, system, plane, aux)
        self._schedule_faults(spec, system)
        self._schedule_adversary(spec, system, aux)
        self._wire_monitor(spec, system, aux)
        return PreparedRun(system=system, horizon=spec.horizon, aux=aux)

    # -- landscape ---------------------------------------------------------- #
    def _build_landscape(self, spec: ChaosSpec) -> tuple:
        topo = spec.topology
        if spec.workload == "smart-city":
            from repro.workloads.smart_city import SmartCityWorkload

            workload = SmartCityWorkload(
                n_districts=topo.sites,
                sensors_per_district=topo.devices_per_site, seed=spec.seed)
            return workload.system, workload
        if spec.workload == "energy":
            from repro.workloads.energy import EnergyGridWorkload

            workload = EnergyGridWorkload(
                n_feeders=topo.sites,
                meters_per_feeder=topo.devices_per_site, seed=spec.seed)
            return workload.system, workload
        if spec.workload == "mobility":
            from repro.workloads.mobility import MobilityWorkload

            workload = MobilityWorkload(
                n_vehicles=topo.sites * topo.devices_per_site,
                n_sites=topo.sites, seed=spec.seed)
            return workload.system, workload
        system = IoTSystem.with_edge_cloud_landscape(
            topo.sites, topo.devices_per_site, seed=spec.seed)
        return system, None

    # -- security plane ----------------------------------------------------- #
    def _build_security_plane(self, spec: ChaosSpec, system: IoTSystem,
                              aux: Dict[str, Any]):
        if spec.adversary.attack == "none":
            aux["plane"] = None
            return None
        from repro.security.plane import SecurityPlane

        plane = SecurityPlane(system)
        aux["plane"] = plane
        return plane

    # -- traffic ------------------------------------------------------------ #
    def _wire_traffic(self, spec: ChaosSpec, system: IoTSystem,
                      aux: Dict[str, Any]) -> None:
        if spec.traffic.pattern == "none":
            aux["registry"] = None
            return
        registry, edge, cloud = components.serving(
            system, admission=spec.maturity >= 2)
        # Storm retries make outages metastable when no budget bounds
        # the amplification (ML < 3).
        client, cohort = components.user_cohort(
            system, registry, spec.traffic.users, spec.traffic.rate_per_user,
            stop=spec.horizon, retries=spec.traffic.pattern == "retry-storm",
            guarded=spec.maturity >= 3)
        aux.update(registry=registry, edge=edge, cloud=cloud,
                   client=client, cohort=cohort)

    # -- membership mesh (the sybil attack's substrate) ---------------------- #
    def _wire_membership(self, spec: ChaosSpec, system: IoTSystem,
                         plane, aux: Dict[str, Any]) -> None:
        if plane is None:
            aux["members"] = None
            return
        aux["members"] = components.membership_mesh(
            system, plane, "chaos-swim", defended=spec.maturity >= 4)

    # -- maturity defenses (ML2 admission is wired with the edge) ------------ #
    def _wire_defenses(self, spec: ChaosSpec, system: IoTSystem,
                       plane, aux: Dict[str, Any]) -> None:
        edge = aux.get("edge")
        if spec.maturity >= 3 and edge is not None:
            aux["backpressure_loop"] = components.backpressure_loop(
                system, edge)
        if spec.maturity >= 4 and plane is not None:
            components.authenticate_mesh(system, plane)
            aux["sentry"], aux["intrusion_loop"] = components.flood_response(
                system, plane)

    # -- fault schedule ------------------------------------------------------ #
    def _schedule_faults(self, spec: ChaosSpec, system: IoTSystem) -> None:
        for index, event in enumerate(spec.faults):
            fault = self._build_fault(index, event, system)
            system.injector.inject_at(event.at, fault)

    def _build_fault(self, index: int, event, system: IoTSystem) -> Fault:
        name = f"chaos-{event.kind}-{index}@{event.at:g}"
        if event.kind == "crash":
            self._require_device(event.target, system)
            return CrashRecoveryFault(name=name, device_id=event.target,
                                      duration=event.duration)
        if event.kind == "partition":
            self._require_device(event.target, system)
            return PartitionFault(name=name, isolate_node=event.target,
                                  duration=event.duration)
        node_a, _, node_b = event.target.partition(":")
        if system.topology.link_between(node_a, node_b) is None:
            raise CompileError(
                f"fault {name}: no link {node_a!r}-{node_b!r} in the "
                f"compiled topology")
        if event.kind == "latency":
            return LatencySpikeFault(name=name, node_a=node_a, node_b=node_b,
                                     factor=8.0, duration=event.duration)
        return LinkFailureFault(name=name, node_a=node_a, node_b=node_b,
                                duration=event.duration)

    @staticmethod
    def _require_device(device_id: str, system: IoTSystem) -> None:
        try:
            system.fleet.get(device_id)
        except KeyError:
            raise CompileError(
                f"fault target {device_id!r} not in the compiled fleet "
                f"(devices: cloud, edge0..edge{len(system.sites) - 1}, "
                f"d<site>.<i>)") from None

    # -- adversary ----------------------------------------------------------- #
    def _schedule_adversary(self, spec: ChaosSpec, system: IoTSystem,
                            aux: Dict[str, Any]) -> None:
        if spec.adversary.attack == "none":
            return
        from repro.security.adversary import FloodBehavior, SybilJoinBehavior

        attacker = "edge1"
        behaviors: List[Any] = [
            FloodBehavior(target="edge0", rate=spec.adversary.rate)]
        if spec.adversary.attack == "sybil-flood":
            edges = list(system.edge_nodes)
            targets = [e for e in edges if e != attacker][:2]
            behaviors.append(SybilJoinBehavior(targets=targets))
        components.compromise(system, attacker, spec.adversary.at, behaviors)
        aux["attacker"] = attacker

    # -- SLO monitor --------------------------------------------------------- #
    def _wire_monitor(self, spec: ChaosSpec, system: IoTSystem,
                      aux: Dict[str, Any]) -> None:
        from repro.observability.slo import SloMonitor, SloSpec

        slos: List[SloSpec] = [SloSpec(
            name="chaos-edge-up", kind="availability", series="up:edge0",
            objective=0.9, window=GOODPUT_WINDOW, subject="edge0",
        )]
        if spec.traffic.pattern != "none":
            from repro.traffic.client import COMPLETIONS_SERIES

            expected = min(spec.traffic.offered_rate, EDGE_CAPACITY)
            slos.append(SloSpec(
                name="chaos-goodput", kind="rate",
                series=COMPLETIONS_SERIES,
                objective=GOODPUT_OBJECTIVE_FRACTION * expected,
                window=GOODPUT_WINDOW, subject="edge0", service="serving",
            ))
        monitor = SloMonitor(system.sim, system.metrics, slos,
                             trace=system.trace, period=SLO_PERIOD)
        monitor.start()
        aux["monitor"] = monitor


def compile_spec(spec: ChaosSpec) -> PreparedRun:
    """Module-level convenience: one-off compile of ``spec``."""
    return ScenarioCompiler().compile(spec)
