"""The five traffic/security CLI gates, judged on synthetic variant results.

Each case swaps a gate's runner for one that returns canned results,
runs ``python -m repro <plane> <scenario> --quick`` through ``main``, and
checks the exact verdict line, the exit code and -- on failure -- the
incident bundle requested for the judged variant.  The real scenarios
(slow, and tuned to pass) are covered by tests/test_cli.py; this file
pins every failure branch and the OK line of every gate.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.cli import main
from repro.security import scenarios as security_scenarios
from repro.traffic import scenarios as traffic_scenarios


# --------------------------------------------------------------------------- #
# synthetic results: a passing trio per gate, broken one field at a time
# --------------------------------------------------------------------------- #
def _overload(admission_vs_capacity):
    def result(variant, held):
        return {"variant": variant, "offered_rate": 320.0,
                "capacity": 200.0, "goodput": 200.0 * held,
                "goodput_vs_capacity": held, "success_ratio": 0.6,
                "p99_latency": 0.2, "rejected": 10, "timed_out": 5}
    return {"naive": result("naive", 0.1),
            "admission": result("admission", admission_vs_capacity),
            "adaptive": result("adaptive", 1.2)}


def _retry_storm(recovery):
    def result(variant, ratio):
        return {"variant": variant, "offered_rate": 140.0,
                "recovered_goodput": 140.0 * ratio, "recovery_ratio": ratio,
                "retries": 40, "short_circuited": 3}
    return {"naive": result("naive", 0.05),
            "resilient": result("resilient", recovery)}


def _byzantine(**defended):
    def result(variant, converged_at, quarantined=()):
        return {"variant": variant, "attacker": "edge4",
                "converged": converged_at is not None,
                "converged_at": converged_at, "honest_values": ["a"],
                "quarantined": list(quarantined),
                "security": {"dropped_auth": 7}}
    naive_at = defended.pop("naive_at", None)
    fields = {"converged_at": 4.5, "quarantined": ["edge4"]}
    fields.update(defended)
    return {"clean": result("clean", 3.0),
            "naive": result("naive", naive_at),
            "defended": result("defended", **fields)}


def _sybil(naive_goodput=28.0, defended_goodput=134.4, defended_sybils=0,
           naive_sybils=4):
    def result(variant, goodput, sybils):
        return {"variant": variant, "offered_rate": 140.0,
                "goodput": goodput, "success_ratio": 0.9,
                "sybil_count": sybils, "attacker_messages": 900,
                "quarantined": ["edge1"] if variant == "defended" else []}
    return {"clean": result("clean", 140.0, 0),
            "naive": result("naive", naive_goodput, naive_sybils),
            "defended": result("defended", defended_goodput,
                               defended_sybils)}


def _raft(naive_double=True, defended_double=False, defended_leader=True):
    def result(variant, double, leader, quarantined):
        wins = {3: ["edge0", "edge1"], 5: ["edge1", "edge2"]} if double \
            else {}
        return {"variant": variant, "elections_won": 4,
                "double_wins": wins, "safety_violated": double,
                "leader_elected": leader,
                "final_leaders": ["edge0"] if leader else [],
                "quarantined": quarantined}
    return {"naive": result("naive", naive_double, True, []),
            "defended": result("defended", defended_double,
                               defended_leader, ["edge3", "edge4"])}


#: (plane, scenario, synthetic results, expected verdict line)
PASSING = [
    ("traffic", "overload", _overload(0.95),
     "TRAFFIC GATE: OK (admission control holds goodput at 95% of "
     "capacity)"),
    ("traffic", "retry-storm", _retry_storm(0.97),
     "TRAFFIC GATE: OK (budget+breaker recover 97% of offered goodput)"),
    ("security", "byzantine-gossip", _byzantine(),
     "SECURITY GATE: OK (defended converges at 4.5s vs clean 3.0s; "
     "naive never converges)"),
    ("security", "sybil-flood", _sybil(),
     "SECURITY GATE: OK (defended holds 96% of clean goodput; naive "
     "collapses to 20%)"),
    ("security", "raft-equivocation", _raft(),
     "SECURITY GATE: OK (naive double-elects in 2 term(s); defended keeps "
     "one safe leader and quarantines edge3,edge4)"),
]

#: (plane, scenario, synthetic results, expected failure messages)
FAILING = [
    ("traffic", "overload", _overload(0.75),
     ["admission goodput at 75% of capacity"]),
    ("traffic", "retry-storm", _retry_storm(0.5),
     ["post-heal goodput recovered only 50% of offered"]),
    ("security", "byzantine-gossip", _byzantine(naive_at=5.0),
     ["naive mesh converged despite the equivocator"]),
    ("security", "byzantine-gossip", _byzantine(converged_at=None),
     ["defended mesh never converged"]),
    ("security", "byzantine-gossip", _byzantine(converged_at=9.0),
     ["defended convergence 9.0s exceeds 2x clean (3.0s)"]),
    ("security", "byzantine-gossip", _byzantine(quarantined=[]),
     ["defended run did not quarantine the attacker"]),
    ("security", "byzantine-gossip",
     _byzantine(naive_at=5.0, converged_at=None, quarantined=[]),
     ["naive mesh converged despite the equivocator",
      "defended mesh never converged",
      "defended run did not quarantine the attacker"]),
    ("security", "sybil-flood", _sybil(naive_goodput=70.0),
     ["naive run did not collapse under the flood"]),
    ("security", "sybil-flood", _sybil(defended_goodput=100.0),
     ["defended goodput 100.0/s is below 90% of clean (140.0/s)"]),
    ("security", "sybil-flood", _sybil(defended_sybils=3),
     ["defended membership admitted 3 sybil identities"]),
    ("security", "sybil-flood", _sybil(naive_sybils=0),
     ["naive membership rejected the sybils (attack had no teeth)"]),
    ("security", "raft-equivocation", _raft(naive_double=False),
     ["naive run never double-elected (attack had no teeth)"]),
    ("security", "raft-equivocation", _raft(defended_double=True),
     ["defended run elected two leaders in one term"]),
    ("security", "raft-equivocation", _raft(defended_leader=False),
     ["defended run never elected a leader"]),
]

#: Quick horizon and judged variant per gate, as the CLI contract states.
QUICK = {
    "overload": (15.0, "admission"),
    "retry-storm": (35.0, "resilient"),
    "byzantine-gossip": (12.0, "defended"),
    "sybil-flood": (20.0, "defended"),
    "raft-equivocation": (12.0, "defended"),
}


@pytest.fixture
def fake_gates(monkeypatch):
    """Swap a gate's runner for canned results; record runs and incidents."""
    calls = {"runs": [], "incidents": []}

    def install(plane, name, results):
        module = {"traffic": traffic_scenarios,
                  "security": security_scenarios}[plane]

        def run(variant, horizon):
            calls["runs"].append((variant, horizon))
            return results[variant]
        gates = [dataclasses.replace(gate, run=run)
                 if gate.scenario == f"{plane}-{name}" else gate
                 for gate in module.GATES]
        monkeypatch.setattr(module, "GATES", gates)

    def capture(spec, directory, reason="gate-failure", detail=None,
                until=None):
        calls["incidents"].append(
            {"spec": spec.to_dict(), "reason": reason, "detail": detail})
        return str(directory)

    monkeypatch.setattr("repro.observability.flight.capture_gate_incident",
                        capture)
    calls["install"] = install
    return calls


def _ids(cases):
    return [f"{plane}-{name}-{i}"
            for i, (plane, name, _r, _e) in enumerate(cases)]


@pytest.mark.parametrize("plane,name,results,line", PASSING,
                         ids=_ids(PASSING))
def test_gate_ok_line(fake_gates, capsys, tmp_path, plane, name, results,
                      line):
    fake_gates["install"](plane, name, results)
    assert main([plane, name, "--quick", "--out", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == line
    horizon, _judged = QUICK[name]
    assert fake_gates["runs"] == [(v, horizon) for v in results]
    assert fake_gates["incidents"] == []


@pytest.mark.parametrize("plane,name,results,failures", FAILING,
                         ids=_ids(FAILING))
def test_gate_failure(fake_gates, capsys, tmp_path, plane, name, results,
                      failures):
    fake_gates["install"](plane, name, results)
    assert main([plane, name, "--quick", "--out", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    label = f"{plane.upper()} GATE"
    assert f"\n{label}: FAIL ({'; '.join(failures)})\n" in out
    assert f"{label}: OK" not in out
    horizon, judged = QUICK[name]
    scenario = f"{plane}-{name}"
    assert fake_gates["incidents"] == [{
        "spec": {"name": scenario, "seed": None,
                 "params": {"variant": judged, "horizon": horizon}},
        "reason": "gate-failure",
        "detail": {"gate": scenario, "failures": failures},
    }]
    assert f"incident bundle: {tmp_path / 'incidents' / scenario}" in out


def test_failed_incident_capture_keeps_the_verdict(fake_gates, capsys,
                                                   tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("disk full")

    monkeypatch.setattr("repro.observability.flight.capture_gate_incident",
                        broken)
    fake_gates["install"]("traffic", "retry-storm", _retry_storm(0.5))
    assert main(["traffic", "retry-storm", "--quick",
                 "--out", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "(incident capture failed: disk full)" in out


def test_full_horizons_reach_the_runner(fake_gates, capsys, tmp_path):
    fake_gates["install"]("security", "byzantine-gossip", _byzantine())
    assert main(["security", "byzantine-gossip", "--out",
                 str(tmp_path)]) == 0
    assert {h for _v, h in fake_gates["runs"]} == {24.0}
    assert "(horizon 24s)" in capsys.readouterr().out


def test_unknown_security_scenario_lists_the_gates(capsys):
    with pytest.raises(SystemExit):
        main(["security", "overload"])
    err = capsys.readouterr().err
    assert ("scenario 'overload' is not available for 'security' (choose "
            "from ('byzantine-gossip', 'sybil-flood', 'raft-equivocation'))"
            in err)
