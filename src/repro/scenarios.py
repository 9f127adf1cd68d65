"""One discoverable registry over every plane's scenarios.

Historically each plane kept its own scenario surface
(``traffic/scenarios.py``, ``security/scenarios.py``,
``persistence/scenarios.py``) and only the persistence registry knew the
full set of *runnable* names.  This module is the single front door: the
persistence registry remains the authoritative name -> builder store
(checkpoints must stay rebuildable from it), and this facade adds the
discovery layer -- which plane owns a scenario, which variants it takes,
what it does -- consumed by ``python -m repro scenarios list`` and the
docs.  Compiled chaos specs register through the same path (scenario
``"chaos"``), so a declarative spec and a hand-written scenario are
interchangeable everywhere a scenario name is accepted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.persistence.scenarios import (
    PreparedRun,
    ScenarioSpec,
    UnknownScenarioError,
    prepare,
    register_scenario,
    scenario_builders,
    scenario_names,
)

__all__ = [
    "PreparedRun",
    "ScenarioInfo",
    "ScenarioSpec",
    "UnknownScenarioError",
    "VariantGate",
    "catalog",
    "describe_scenario",
    "prepare",
    "register_scenario",
    "require_variant",
    "scenario_names",
    "variant_gates",
]

#: Owning plane by exact name; prefixes cover the rest.
_PLANES: Dict[str, str] = {
    "mape-outage": "adaptation",
    "control-outage": "adaptation",
    "smart-city-partition": "observability",
    "harness-crash": "persistence",
    "chaos": "chaos",
    "smart-city-federated": "shard",
}


def _plane_of(name: str) -> str:
    if name in _PLANES:
        return _PLANES[name]
    prefix = name.split("-", 1)[0]
    if prefix in ("traffic", "security"):
        return prefix
    return "core"


@dataclass(frozen=True)
class VariantGate:
    """A CI gate judged over every variant of one registered scenario.

    ``python -m repro <plane> <name>`` runs each variant at the quick or
    full horizon, prints one table row per result, and exits 1 with an
    incident bundle of the ``judged`` variant when ``verdict`` -- given
    the results by variant -- returns failure messages; otherwise it
    prints the returned OK message.
    """

    scenario: str                     # registered name: "<plane>-<name>"
    variants: Tuple[str, ...]
    judged: str                       # the variant an incident re-runs
    horizons: Tuple[float, float]     # (quick, full)
    run: Callable[..., Dict[str, Any]]
    title: str                        # may use {horizon}
    headers: Tuple[str, ...]
    row: Callable[[Dict[str, Any]], List[Any]]
    verdict: Callable[[Dict[str, Dict[str, Any]]], Tuple[List[str], str]]

    @property
    def plane(self) -> str:
        return self.scenario.split("-", 1)[0]

    @property
    def name(self) -> str:
        return self.scenario.split("-", 1)[1]


def require_variant(scenario: str, variant: str,
                    variants: Tuple[str, ...]) -> None:
    """Reject a ``variant`` param the scenario does not define."""
    if variant not in variants:
        raise ValueError(f"unknown {scenario} variant {variant!r}; "
                         f"expected one of {variants}")


def variant_gates() -> Dict[str, VariantGate]:
    """Every variant gate, keyed by registered scenario name."""
    from repro.security.scenarios import GATES as SECURITY_GATES
    from repro.traffic.scenarios import GATES as TRAFFIC_GATES

    return {gate.scenario: gate for gate in TRAFFIC_GATES + SECURITY_GATES}


def _variants_of(name: str) -> Tuple[str, ...]:
    """The ``variant`` param values a scenario accepts (empty if none)."""
    gate = variant_gates().get(name)
    if gate is not None:
        return gate.variants
    if name == "control-outage":
        return ("centralized", "decentralized")
    if name == "mape-outage":
        return ("edge", "cloud")
    return ()


@dataclass(frozen=True)
class ScenarioInfo:
    """Catalog row: everything discovery needs, nothing a run needs."""

    name: str
    plane: str
    variants: Tuple[str, ...]
    description: str

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "plane": self.plane,
                "variants": list(self.variants),
                "description": self.description}


def describe_scenario(name: str) -> ScenarioInfo:
    """Catalog entry for one registered scenario.

    Raises :class:`UnknownScenarioError` (with the available names) for
    anything not in the registry.
    """
    builders = scenario_builders()
    builder = builders.get(name)
    if builder is None:
        raise UnknownScenarioError(name, sorted(builders))
    doc = (builder.__doc__ or "").strip()
    description = doc.splitlines()[0] if doc else ""
    return ScenarioInfo(name=name, plane=_plane_of(name),
                        variants=_variants_of(name), description=description)


def catalog(plane: Optional[str] = None) -> List[ScenarioInfo]:
    """Every registered scenario, optionally filtered by owning plane."""
    infos = [describe_scenario(name) for name in scenario_names()]
    if plane is not None:
        infos = [info for info in infos if info.plane == plane]
    return infos
