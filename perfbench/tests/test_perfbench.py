"""Tests of the benchmark itself (not of the program it measures).

Run from the root of the repository::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import os
import sys

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import calibrate  # noqa: E402
import compare  # noqa: E402
import inputs  # noqa: E402
import rep  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


def _targets():
    """Every (owner, attribute) the tracer patches, with its current value."""
    import importlib

    rows = []
    specs = ([(m, o, a) for m, o, a, _ in tracing.SPANNED + tracing.COUNTED]
             + list(tracing.TOPOLOGY_WRITES)
             + [(m, o, "__init__") for m, o, _ in tracing.COLLECTED])
    for module_name, owner, attr in specs:
        module = importlib.import_module(module_name)
        target = getattr(module, owner) if owner else module
        rows.append((target, attr, getattr(target, attr)))
    return rows


def _small_spec(seed=3):
    from repro.chaos import ChaosSpec, FaultEvent, TopologyAxis, TrafficAxis

    return ChaosSpec(workload="mobility", topology=TopologyAxis(3, 2),
                     traffic=TrafficAxis("steady", 500, 0.04),
                     faults=(FaultEvent("link", 2.0, 1.0, "edge1:cloud"),),
                     maturity=3, horizon=12.0, seed=seed)


class TestTracer:
    def test_restore_puts_every_original_back(self):
        before = _targets()
        tracer = tracing.Tracer().install()
        try:
            patched = [getattr(t, a) for t, a, _ in before]
            assert all(tracing._is_wrapper(v) for v in patched)
        finally:
            tracer.restore()
        after = _targets()
        assert [v for _, _, v in after] == [v for _, _, v in before]
        for name, module in list(sys.modules.items()):
            if name == "repro" or name.startswith("repro."):
                assert not any(tracing._is_wrapper(v)
                               for v in vars(module).values()), name

    def test_restore_runs_when_the_traced_run_raises(self):
        from repro.simulation.kernel import Simulator

        original = Simulator.step
        try:
            with tracing.Tracer():
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert Simulator.step is original

    def test_traced_run_keeps_the_digest_and_counts_layers(self):
        from repro.chaos import persistence_spec
        from repro.persistence.runner import run_scenario

        spec = persistence_spec(_small_spec())
        plain = run_scenario(spec)
        with tracing.Tracer() as tracer:
            traced = run_scenario(spec)
        assert traced.final_digest == plain.final_digest
        times = tracer.self_times()
        assert tracer.counts["simulation.events"] == \
            plain.system.sim.fired_count
        assert times["network.send"][0] == plain.system.network.stats.sent
        assert times["network.route"][0] > 0
        assert tracer.counts["network.topology_writes"] > 0
        for name, (count, inclusive, own) in times.items():
            assert count > 0 and 0.0 <= own <= inclusive + 1e-9, name

    def test_self_time_subtracts_children(self):
        tracer = tracing.Tracer()
        tracer.spans[:] = [("a.x", 0.0, 10.0, -1, "run"),
                           ("b.y", 1.0, 4.0, 0, "run"),
                           ("b.y", 5.0, 6.0, 0, "run"),
                           ("a.x", 20.0, 21.0, -1, "quarter")]
        times = tracer.self_times("run")
        assert times["a.x"] == (1, 10.0, 6.0)
        assert times["b.y"] == (2, 4.0, 4.0)


class TestCorrectness:
    def _rep(self, digest, key="seed-5"):
        return {"key": key, "check": {"digest": digest, "events": 10},
                "verified": True}

    def test_wrong_expected_digest_is_a_failed_operation(self):
        references = {"seed-5": {"digest": "expected", "events": 10}}
        failures = run.check_reps([self._rep("expected"),
                                   self._rep("something-else")], references)
        assert len(failures) == 1 and failures[0].startswith("run 1:")

    def test_without_expectation_reps_must_match_the_first(self):
        failures = run.check_reps([self._rep("a"), self._rep("a"),
                                   self._rep("b")], {})
        assert len(failures) == 1 and failures[0].startswith("run 2:")

    def test_each_input_is_checked_against_its_own_reference(self):
        references = {"seed-1": {"digest": "x", "events": 10}}
        reps = [self._rep("x", "seed-1"), self._rep("y", "seed-2"),
                self._rep("y", "seed-2"), self._rep("y", "seed-1")]
        failures = run.check_reps(reps, references)
        assert len(failures) == 1 and failures[0].startswith("run 3:")

    def test_failed_verification_and_crashed_reps_are_failures(self):
        bad = dict(self._rep("a"), verified=False)
        crashed = {"error": "timed repetition exited 1: boom"}
        runs = run.operations([{"runs": [self._rep("a"), bad]}, crashed])
        assert len(runs) == 3
        assert len(run.check_reps(runs, {})) == 2

    def test_repetition_past_the_timeout_is_a_failure(self, monkeypatch):
        monkeypatch.setattr(run, "REP_TIMEOUT_S", 0.5)
        result = run.spawn_rep("landscape", 1, "timed", index=7)
        assert "exceeded" in result["error"]
        assert run.check_reps([result], {})
        assert not os.path.exists(os.path.join(
            run.OUT, f"rep-{os.getpid()}-timed-7"))

    def test_default_seed_is_recorded_for_every_workload(self):
        expected = run.load_expected()
        assert set(expected) == set(inputs.WORKLOADS)
        for workload in inputs.WORKLOADS:
            key = inputs.input_key(workload, inputs.DEFAULT_SEED)
            assert key in expected[workload], (workload, key)
        assert set(expected["campaign"]["pool"]) == \
            {str(s) for s in inputs.CAMPAIGN_SEEDS} | {"events"}


class TestInputs:
    def test_same_seed_same_chaos_specs(self):
        for workload in ("landscape", "churn"):
            first = inputs.chaos_spec(workload, 7)
            assert first == inputs.chaos_spec(workload, 7)
            assert first.to_json() == inputs.chaos_spec(workload, 7).to_json()
            assert first != inputs.chaos_spec(workload, 8)

    def test_churn_fault_schedule_is_seeded_and_compiles(self):
        from repro.chaos import ScenarioCompiler

        spec = inputs.chaos_spec("churn", 11)
        assert [f.to_dict() for f in spec.faults] == [
            f.to_dict() for f in inputs.chaos_spec("churn", 11).faults]
        assert len(spec.faults) == inputs.CHURN_FAULTS
        assert {f.kind for f in spec.faults} <= {"link", "crash"}
        ScenarioCompiler().compile(spec)

    def test_other_inputs_are_seeded(self):
        assert (inputs.federation_spec(4).to_dict()
                == inputs.federation_spec(4).to_dict())
        assert inputs.campaign_seeds(4) == inputs.campaign_seeds(4)
        assert sorted(inputs.campaign_seeds(5)) == \
            sorted(inputs.CAMPAIGN_SEEDS)
        for workload in inputs.WORKLOADS:
            assert inputs.describe(workload, 2) == inputs.describe(workload, 2)

    def test_quarter_spec_keeps_everything_but_devices(self):
        spec = inputs.chaos_spec("landscape", 1)
        quarter = inputs.quarter_spec(spec)
        assert quarter.topology.devices_per_site == \
            spec.topology.devices_per_site // 4
        assert quarter.traffic == spec.traffic and quarter.seed == spec.seed


class TestReporting:
    def test_summary_reports_medians_with_sample_counts(self):
        ref = [calibrate.REFERENCE_S]
        reps = [{"setup_s": s, "peak_rss_mb": 50.0, "setup_kernel_s": ref,
                 "runs": [{"run_s": t, "events": 100, "verify_s": 1.0,
                           "kernel_s": ref, "verify_kernel_s": ref}
                          for t in (2.0, 4.0)]}
                for s in (1.0, 3.0, 2.0)] + [{"error": "x"}]
        metrics = run.summarize(reps)
        assert set(metrics) == set(run.END_TO_END)
        assert metrics["setup_s"]["value"] == 2.0
        assert metrics["setup_s"]["n"] == 3
        assert metrics["run_s"]["value"] == 3.0
        assert metrics["run_s"]["n"] == 6
        assert metrics["events_per_s"]["value"] == 37.5

    def test_times_are_scaled_to_the_reference_host_speed(self):
        # The readings next to each part average twice the reference
        # host's: the host was half as fast, so the scaled times halve.
        ref = calibrate.REFERENCE_S
        rep = {"setup_s": 1.0, "peak_rss_mb": 50.0,
               "setup_kernel_s": [2 * ref],
               "runs": [{"run_s": 4.0, "events": 100, "verify_s": 3.0,
                         "kernel_s": [ref, 3 * ref],
                         "verify_kernel_s": [2 * ref]}]}
        metrics = run.summarize([rep])
        assert metrics["run_s"]["value"] == 2.0
        assert metrics["setup_s"]["value"] == 0.5
        assert metrics["verify_s"]["value"] == 1.5
        assert metrics["events_per_s"]["value"] == 50.0
        assert metrics["peak_rss_mb"]["value"] == 50.0

    def test_parts_without_readings_stay_as_measured(self):
        rep = {"setup_s": 1.0, "peak_rss_mb": 50.0, "setup_kernel_s": [],
               "runs": [{"run_s": 4.0, "events": 100, "verify_s": 3.0,
                         "kernel_s": [], "verify_kernel_s": []}]}
        metrics = run.summarize([rep])
        assert metrics["run_s"]["value"] == 4.0
        assert metrics["setup_s"]["value"] == 1.0
        assert metrics["verify_s"]["value"] == 3.0

    def test_calibration_kernel_is_fixed(self):
        # The kernel's work must never change: scaled times from before
        # and after would not be comparable.
        assert calibrate.kernel() == calibrate.kernel() == (
            "7751fc132e625cea2550fae0c27ba17d"
            "799b4db7924fbe1a3f482e65cb92b5a3")

    def test_metric_names_and_units_match_benchmark_json(self):
        import json

        path = os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")
        with open(path, encoding="utf-8") as fh:
            declared = json.load(fh)
        assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == \
            run.END_TO_END
        assert {m["name"]: m["unit"] for m in declared["per_layer"]} == \
            run.PER_LAYER
        assert [w["name"] for w in declared["workloads"]] == \
            list(inputs.WORKLOADS)

    def test_layer_summary_names_every_per_layer_metric(self):
        traced = {"layers": {name: 1 for name in run.PER_LAYER},
                  "runs": [{"run_s": 3.0, "kernel_s": [1.0]}]}
        plain = {"runs": [{"run_s": 2.0, "kernel_s": [1.0]}]}
        layers = run.layer_summary(traced, plain, [])
        assert list(layers) == list(run.PER_LAYER)
        assert layers["trace.overhead"]["value"] == 0.5

    def test_fingerprint_mismatch_warns(self):
        host = run.fingerprint()
        same = {"host": dict(host)}
        other = {"host": dict(host, nproc=host["nproc"] + 1)}
        assert compare.fingerprint_warning(same, dict(same)) == ""
        assert "WARNING" in compare.fingerprint_warning(same, other)

    def test_observe_returns_restores_the_original(self):
        from repro.persistence import runner

        original = vars(runner)["prepare"]
        seen = []
        with rep.observe_returns(runner, "prepare", seen.append):
            assert vars(runner)["prepare"] is not original
        assert vars(runner)["prepare"] is original
