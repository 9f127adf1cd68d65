"""Benchmark inputs, generated from the ``--seed`` argument alone.

Each workload turns the seed into the values the program receives: chaos
specs (with their fault schedules) for ``landscape`` and ``churn``, a
scenario spec for ``federation`` and the order of the campaign seed pool
for ``campaign``.
The benchmark's own :class:`random.Random` draws them, so the same seed
gives the same inputs on every host, independently of the program's
generators.  Sizes are fixed; only seeds, fault times and fault targets
vary with the seed.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Any, Dict, Tuple

WORKLOADS = ("landscape", "churn", "federation", "campaign")

#: The seed whose digests are recorded in ``expected.json``.
DEFAULT_SEED = 1

#: ``landscape``: smart city, 8 districts x 50 sensors (417 nodes),
#: 2500 users x 0.04 = 100 req/s steady, ML3, no faults.
LANDSCAPE = {"sites": 8, "devices": 50, "users": 2500, "horizon": 0.5}

#: ``churn``: mobility, 8 sites x 12 vehicles, 600 users x 0.04 = 24
#: req/s steady, ML3, plus ``CHURN_FAULTS`` link/crash faults drawn from
#: the seed.  Vehicles first hand over at t = 10 s (the mobility
#: workload's handover period), so the horizon must pass it.
CHURN = {"sites": 8, "devices": 12, "users": 600, "horizon": 13.0}
CHURN_FAULTS = 4

#: ``federation``: smart-city-federated at quick scale (8 domains x 20k
#: devices) over a 6 s horizon (quick: 9 s), 4 shards on 2 workers.
FEDERATION = {"shards": 4, "workers": 2}

#: Workloads whose timed runs keep ``nproc`` (2) processes busy.
PARALLEL = ("federation",)
FEDERATION_HORIZON = 6.0

#: ``campaign``: chaos campaigns of 2 cases over a 15 s horizon,
#: shrinking on, no corpus; one run searches every pool seed.
CAMPAIGN = {"runs": 2, "horizon": 15.0}

#: Campaign seeds of about equal search cost, each with one finding to
#: shrink, an ML4 case under attack and an ML3+ case with traffic (see
#: README).  A campaign's length depends on its seed by more than 10x,
#: so a seed-drawn campaign would make run-to-run spread measure the
#: sampler; the benchmark seed only orders the pool.
CAMPAIGN_SEEDS: Tuple[int, ...] = (99, 1022)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench:{workload}:{seed}")


def chaos_spec(workload: str, seed: int) -> Any:
    """The ChaosSpec a ``landscape`` or ``churn`` run compiles."""
    from repro.chaos import ChaosSpec, FaultEvent, TopologyAxis, TrafficAxis

    rng = _rng(workload, seed)
    shape = LANDSCAPE if workload == "landscape" else CHURN
    faults: Tuple[Any, ...] = ()
    if workload == "churn":
        drawn = []
        for _ in range(CHURN_FAULTS):
            kind = rng.choice(("link", "crash"))
            # edge0 serves the traffic; faults hit the other sites.
            edge = f"edge{rng.randint(1, shape['sites'] - 1)}"
            drawn.append(FaultEvent(
                kind=kind,
                at=round(rng.uniform(1.0, 0.7 * shape["horizon"]), 2),
                duration=round(rng.uniform(1.0, 3.0), 2),
                target=f"{edge}:cloud" if kind == "link" else edge))
        faults = tuple(sorted(drawn, key=lambda f: (f.at, f.target)))
    return ChaosSpec(
        workload="smart-city" if workload == "landscape" else "mobility",
        topology=TopologyAxis(sites=shape["sites"],
                              devices_per_site=shape["devices"]),
        traffic=TrafficAxis(pattern="steady", users=shape["users"],
                            rate_per_user=0.04),
        faults=faults, maturity=3, horizon=shape["horizon"],
        seed=rng.randint(1, 1 << 30))


def quarter_spec(spec: Any) -> Any:
    """The same chaos spec with a quarter of the devices per site."""
    return replace(spec, topology=replace(
        spec.topology, devices_per_site=max(1, spec.topology.devices_per_site
                                            // 4)))


def federation_spec(seed: int, quarter: bool = False) -> Any:
    from repro.persistence.scenarios import ScenarioSpec

    params: Dict[str, Any] = {"quick": True, "horizon": FEDERATION_HORIZON}
    if quarter:
        params["devices_per_domain"] = 5_000
    return ScenarioSpec(name="smart-city-federated",
                        seed=_rng("federation", seed).randint(1, 1 << 30),
                        params=params)


def campaign_seeds(seed: int) -> Tuple[int, ...]:
    """The pool, in the order a run at ``seed`` searches it."""
    start = seed % len(CAMPAIGN_SEEDS)
    return CAMPAIGN_SEEDS[start:] + CAMPAIGN_SEEDS[:start]


def input_key(workload: str, seed: int) -> str:
    """Identity of a run's input: its key in ``expected.json``.

    Every campaign run searches the whole pool, so it has one key.
    """
    return "pool" if workload == "campaign" else f"seed-{seed}"


def describe(workload: str, seed: int) -> Dict[str, Any]:
    """The generated inputs as plain data (for results and tests)."""
    if workload in ("landscape", "churn"):
        return {"chaos_spec": chaos_spec(workload, seed).to_dict()}
    if workload == "federation":
        return {"scenario": federation_spec(seed).to_dict(), **FEDERATION}
    if workload == "campaign":
        return {"campaign_seeds": list(campaign_seeds(seed)), **CAMPAIGN}
    raise ValueError(f"unknown workload {workload!r}; "
                     f"expected one of {WORKLOADS}")
