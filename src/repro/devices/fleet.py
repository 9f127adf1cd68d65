"""Device fleet: the registry of all devices in a running system.

The fleet owns device lifecycle bookkeeping (up/down levels in the metrics
recorder, trace events on crash/recover) and synchronizes device liveness
with the network layer, so fault injection only needs one call.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional

from repro.devices.base import Device, DeviceClass
from repro.network.transport import Network
from repro.simulation.kernel import Simulator
from repro.simulation.metrics import MetricsRecorder
from repro.simulation.trace import TraceLog


class DeviceFleet:
    """All devices of a system, indexed by id, domain, class and location."""

    def __init__(
        self,
        sim: Simulator,
        network: Optional[Network] = None,
        metrics: Optional[MetricsRecorder] = None,
        trace: Optional[TraceLog] = None,
    ) -> None:
        self.sim = sim
        self.network = network
        self.metrics = metrics
        self.trace = trace
        self._devices: Dict[str, Device] = {}

    # -- membership -------------------------------------------------------- #
    def add(self, device: Device) -> Device:
        if device.device_id in self._devices:
            raise ValueError(f"device {device.device_id!r} already in fleet")
        self._devices[device.device_id] = device
        if self.metrics is not None:
            self.metrics.set_level(f"up:{device.device_id}", self.sim.now, 1.0)
        return device

    def remove(self, device_id: str) -> Device:
        device = self._devices.pop(device_id)
        if self.network is not None:
            self.network.unregister_node(device_id)
        return device

    def get(self, device_id: str) -> Device:
        device = self._devices.get(device_id)
        if device is None:
            raise KeyError(f"no device {device_id!r} in fleet")
        return device

    def __contains__(self, device_id: str) -> bool:
        return device_id in self._devices

    def __len__(self) -> int:
        return len(self._devices)

    # -- queries ------------------------------------------------------------- #
    @property
    def device_ids(self) -> List[str]:
        return sorted(self._devices)

    @property
    def devices(self) -> List[Device]:
        return [self._devices[k] for k in sorted(self._devices)]

    def by_class(self, device_class: DeviceClass) -> List[Device]:
        return [d for d in self.devices if d.device_class == device_class]

    def by_domain(self, domain: str) -> List[Device]:
        return [d for d in self.devices if d.domain == domain]

    def by_location(self, location: str) -> List[Device]:
        return [d for d in self.devices if d.location == location]

    def select(self, predicate: Callable[[Device], bool]) -> List[Device]:
        return [d for d in self.devices if predicate(d)]

    def up_fraction(self, device_ids: Optional[Iterable[str]] = None) -> float:
        """Fraction of (selected) devices currently up."""
        ids = list(device_ids) if device_ids is not None else self.device_ids
        if not ids:
            return 1.0
        return sum(1 for i in ids if self._devices[i].up) / len(ids)

    # -- liveness transitions (fault-injection entry points) --------------- #
    def crash(self, device_id: str, reason: str = "crash") -> None:
        """Take a device down: device state, network and records together."""
        device = self.get(device_id)
        if not device.up:
            return
        device.crash()
        if self.network is not None:
            self.network.set_node_up(device_id, False)
        if self.metrics is not None:
            self.metrics.set_level(f"up:{device_id}", self.sim.now, 0.0)
        if self.trace is not None:
            self.trace.emit(self.sim.now, "fault", reason, subject=device_id)

    def recover(self, device_id: str) -> None:
        device = self.get(device_id)
        if device.up:
            return
        device.recover()
        if self.network is not None:
            self.network.set_node_up(device_id, True)
        if self.metrics is not None:
            self.metrics.set_level(f"up:{device_id}", self.sim.now, 1.0)
        if self.trace is not None:
            self.trace.emit(self.sim.now, "recovery", "device-recover", subject=device_id)

    # -- persistence -------------------------------------------------------- #
    def snapshot_state(self) -> Dict[str, Dict]:
        """Per-device snapshots, keyed by id."""
        return {device_id: self._devices[device_id].snapshot_state()
                for device_id in sorted(self._devices)}

    def transfer_domain(self, device_id: str, new_domain: str) -> str:
        """Administrative domain transfer (a named disruption class, §I)."""
        device = self.get(device_id)
        old = device.domain
        device.domain = new_domain
        if self.trace is not None:
            self.trace.emit(
                self.sim.now, "fault", "domain-transfer",
                subject=device_id, old_domain=old, new_domain=new_domain,
            )
        return old
