"""Experiment F5: the MAPE loop for IoT (Figure 5).

Figure 5 places Analysis and Planning at the edge, with monitoring/
execution reaching the end devices.  The bench injects identical service
failures into a device fleet and compares loop placements:

* **cloud-hosted loop** -- Monitor/Analyze/Plan/Execute all on the cloud;
* **edge-hosted loops** -- one loop per edge site (the Fig. 5 placement).

Measured: time-to-repair for faults injected while connectivity is
healthy and while the cloud is partitioned, plus missed observations
(loop blindness).  Expected shape: edge loops repair within ~1 loop
period regardless; the cloud loop's repair of the mid-outage fault is
delayed by the remaining outage duration.

The runners live in :mod:`repro.experiments` (shared with the CLI).
"""

import pytest

from conftest import print_table

from repro.adaptation import DeviceLivenessAnalyzer, ServiceHealthAnalyzer
from repro.components import host_loop
from repro.core.system import IoTSystem
from repro.devices.software import Service, ServiceState
from repro.experiments import (
    FIG5_FAULTS,
    FIG5_OUTAGE,
    mape_repair_delays,
    run_mape_placement,
)
from repro.faults.models import ServiceFailureFault


@pytest.mark.parametrize("placement", ["cloud", "edge"])
def test_mape_placement(benchmark, placement):
    system, loops = benchmark.pedantic(
        lambda: run_mape_placement(placement), rounds=1, iterations=1)
    # Both placements eventually repair everything within the horizon.
    for _, device in FIG5_FAULTS:
        service = system.fleet.get(device).stack.service(f"svc-{device}")
        assert service.state == ServiceState.RUNNING


def test_fig5_shape(benchmark):
    rows = []
    results = {}
    for placement in ("cloud", "edge"):
        system, loops = run_mape_placement(placement)
        delays = mape_repair_delays(system, loops)
        missed = sum(loop.missed_observations for loop in loops)
        results[placement] = (delays, missed)
        rows.append([placement,
                     delays[0] if delays else "-",
                     delays[-1] if delays else "-",
                     missed])
    print_table(
        "Fig. 5: MAPE placement vs time-to-repair (2 faults; 2nd mid-outage)",
        ["loop placement", "fastest repair (s)", "slowest repair (s)",
         "missed observations"], rows)
    cloud_delays, cloud_missed = results["cloud"]
    edge_delays, edge_missed = results["edge"]
    assert len(cloud_delays) == len(edge_delays) == len(FIG5_FAULTS)
    # Edge loops repair every fault within ~2 loop periods.
    assert edge_delays[-1] < 3.0
    # The cloud loop's mid-outage repair waited for the partition to heal.
    assert cloud_delays[-1] > (FIG5_OUTAGE[1] - FIG5_FAULTS[1][0]) - 3.0
    # The cloud loop was blind for the outage; edge loops were not.
    assert cloud_missed > 0
    assert edge_missed == 0


def test_mape_repairs_scale_with_fleet(benchmark):
    """Loop overhead scales: inject one failure per device, measure that
    every one is repaired by edge loops within a bounded delay."""
    system = IoTSystem.with_edge_cloud_landscape(3, 5, seed=23)
    loops = []
    for edge, devices in sorted(system.sites.items()):
        for device_id in devices:
            system.fleet.get(device_id).host(Service(f"svc-{device_id}"))
        loops.append(host_loop(system, edge, list(devices), [
            ServiceHealthAnalyzer(), DeviceLivenessAnalyzer()]))
    for loop in loops:
        loop.start()
    for index, (_, devices) in enumerate(sorted(system.sites.items())):
        for j, device_id in enumerate(devices):
            system.injector.inject_at(
                5.0 + index * 3 + j, ServiceFailureFault(
                    name=f"f:{device_id}", device_id=device_id,
                    service_name=f"svc-{device_id}"))
    system.run(until=60.0)
    delays = []
    for loop in loops:
        delays.extend(loop.time_to_repair(system.trace,
                                          fault_names=["service-failure"]))
    rows = [["faults injected", 15],
            ["faults repaired", len(delays)],
            ["max repair delay (s)", max(delays) if delays else "-"]]
    print_table("Fig. 5: edge MAPE at fleet scale", ["metric", "value"], rows)
    assert len(delays) == 15
    assert max(delays) < 3.0
