"""Pinned journal digests: every registered scenario, byte for byte.

Each case runs one registered scenario (and each of its variants)
through :func:`run_scenario` with a journal and a short horizon, then
compares the journal's sha256 against a pinned value.  The journal holds
every fired event and periodic full-state digests, so any change to how
a scenario is wired -- component construction order, RNG stream names,
``start()`` order, a dropped or added defence -- changes the hash.

Each horizon is long enough to reach the scenario's disruption (the
retry-storm crash at t=10, the sybil compromise at t=5, the raft
compromise at t=0.2, the Fig. 3/5 partitions at t=30, ...), so the
defence wiring is exercised, not just the warm-up.

The values were recorded with CPython 3.11.7 and networkx 3.6.1.  A
deliberate behaviour change re-records them and says why in CHANGES.md.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.chaos.campaign import SpecSampler
from repro.persistence import ScenarioSpec
from repro.persistence.runner import run_scenario

#: (scenario, params, until, sha256 of the journal)
CASES = [
    ("traffic-overload", {"variant": "naive"}, 4.0,
     "3deab35f1ae7c5997ac2f3bf6be22bbbe6cbf5579a6a588f43fdb01a7f2e9d78"),
    ("traffic-overload", {"variant": "admission"}, 4.0,
     "a80c3d9ac6428520fa89c33fac9ea6c16858cc8d272f91f08bd6419f1a5a06df"),
    ("traffic-overload", {"variant": "adaptive"}, 4.0,
     "2dd6b84fc9727531cb4de6c7def9a4c08cc349eb2c4d7db6e31ccf0481db929d"),
    ("traffic-retry-storm", {"variant": "naive"}, 11.0,
     "49a36470740a43e72c227766856e42ae7d28e01ff977b89735272747109eee84"),
    ("traffic-retry-storm", {"variant": "resilient"}, 11.0,
     "f5a3d3b04343624563ea1c0432336937cc462cf2e179bf3bd362d7df969f11cf"),
    ("security-byzantine-gossip", {"variant": "clean"}, 3.0,
     "3d7afa01e06528b05e84c98650515a0f1c8a119c69786c4d49716c76350ddc0a"),
    ("security-byzantine-gossip", {"variant": "naive"}, 3.0,
     "5cbf8cb99fd4f1e2c959b086c6a9a86396fbabb1a3c0bd9c945b20ffda6a4270"),
    ("security-byzantine-gossip", {"variant": "defended"}, 3.0,
     "bde6019a0bbd5d5cfc9cc8c2a7c147a91a814c095aa802222e0ec01cd3bfe438"),
    ("security-raft-equivocation", {"variant": "naive"}, 2.0,
     "58612fc7444d753a88f1f78616d7b239dcdd8c18b75f2f6f01771822346e32e2"),
    ("security-raft-equivocation", {"variant": "defended"}, 2.0,
     "5665dde127456fcb77bb5ea3edecbeb34a9f1eaade4d79bd45cf0f7345ce0e6e"),
    ("security-sybil-flood", {"variant": "clean"}, 6.5,
     "f02f3a92a86ae211c2c4fc31a6e425ab77c3ff2dec210c3788f1853b9dbc1d04"),
    ("security-sybil-flood", {"variant": "naive"}, 6.5,
     "72512b3969de13252679e868d7d2f010e9c30617b2006e43993a6be639e40b01"),
    ("security-sybil-flood", {"variant": "defended"}, 6.5,
     "3ffd560cc40e9903b06703c89c74052d17d0e8f77311576b2e89bdf226f18421"),
    ("control-outage", {"architecture": "centralized"}, 32.0,
     "f15d41d0832e8b32ca943f3f91e57d04544d2e8e21631cd8bf88688ba55acca3"),
    ("control-outage", {"architecture": "decentralized"}, 32.0,
     "67514d3750ae7573bc8f6f7dce6a0a4956f23e6c49c75585239b9762096927a4"),
    ("mape-outage", {"placement": "edge"}, 32.0,
     "d371280d0e71715c471cc189859e157c6956e5d21116b97896758ff6ffa762a0"),
    ("mape-outage", {"placement": "cloud"}, 32.0,
     "5e74f247ff5296d67288b61726eb0aeeb319be0f0c9b0e9929ff72605875337d"),
    ("harness-crash", {"crash_at": 5.0}, 8.0,
     "b2965f17b8dab42738e4bb2960a0b35d53fa6921e86f04c8969ae24580404594"),
    ("smart-city-partition", {"quick": True}, 21.0,
     "68a1662e07de35c5ad9670bf1939a2c2b12cad121df80df298b29debc192ed0d"),
    ("smart-city-federated", {"quick": True, "devices_per_domain": 200}, 3.0,
     "3bb2258d9dd7ee06aa968fcaefe33b264f49c59a17dfe9bfa78c58a840bd9f43"),
]

#: Three sampled chaos specs (campaign seed 84) that between them wire
#: every compiler branch: ML4 retry-storm with budget, breaker and the
#: backpressure loop (index 5); an undefended ML2 membership mesh under
#: a sybil flood (index 7); the full ML4 stack -- auth, sentry, guarded
#: mesh, intrusion loop -- on a mobility landscape (index 10).
CHAOS_CASES = [
    (5, 8.0,
     "b86fee757d01beb30359a1ef16d1c28745238dc9b3c622f9053620536ea72e05"),
    (7, 12.0,
     "c51db9887b60f40ef781b56ac4f4f27a8319d8cf7c24d9525d674e2cb1ab8427"),
    (10, 7.0,
     "8f2b1e2a28fa8520e071aeb3af0758d9f833c2787398a33defaeaa708f47ac61"),
]


def _journal_sha256(spec: ScenarioSpec, until: float, tmp_path) -> str:
    path = tmp_path / "journal.jsonl"
    run_scenario(spec, journal_path=str(path), until=until)
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize(
    "name,params,until,digest", CASES,
    ids=[f"{name}-{'-'.join(str(v) for v in params.values())}"
         for name, params, _until, _digest in CASES])
def test_scenario_journal_digest(name, params, until, digest, tmp_path):
    spec = ScenarioSpec(name, params=params)
    assert _journal_sha256(spec, until, tmp_path) == digest


@pytest.mark.parametrize("index,until,digest", CHAOS_CASES,
                         ids=[f"chaos-84-{c[0]}" for c in CHAOS_CASES])
def test_chaos_spec_journal_digest(index, until, digest, tmp_path):
    chaos = SpecSampler(84).sample(index)
    spec = ScenarioSpec("chaos", params={"spec": chaos.to_dict()})
    assert _journal_sha256(spec, until, tmp_path) == digest
