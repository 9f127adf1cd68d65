"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload landscape --seed 1 --seconds 30 \
        --trace 0

A run is up to ``REPS`` repetitions, each a fresh interpreter (``rep.py``) that
sets up (interpreter start, imports, the landscape build) and then runs
the workload again and again for its share of ``--seconds``.  After each
run and each verification the repetition reads the host's speed
(``calibrate.py``); every time is scaled by the readings next to it to a
host of reference speed, and every metric is the median over the runs
(``setup_s``, ``peak_rss_mb``: over the repetitions).  With ``--trace
1`` one timed run, then one under the span tracer and one with the same
settings untraced, each in its own interpreter, and the per-layer
metrics are printed instead.

Every run's output is checked: when its input is recorded in
``expected.json`` (the default seed; the campaign pool) against the
recorded digests, otherwise against the first run of that input.  Each
run must also pass the program's own verification (journal replay,
``verify_federation``, or re-running the campaign's cases).  A mismatch
is a failed operation, never a traceback.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full result,
stamped with the host fingerprint, is written to ``perfbench/_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "_out")
EXPECTED = os.path.join(HERE, "expected.json")
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import inputs  # noqa: E402

#: Fresh interpreters per timed run; each gives one set-up sample.
REPS = 5
REP_TIMEOUT_S = 150.0

END_TO_END = {"setup_s": "s", "run_s": "s", "events_per_s": "1/s",
              "peak_rss_mb": "MB", "verify_s": "s"}

PER_LAYER = {
    "network.sends": "count", "network.send_s": "s",
    "network.send_us": "us", "network.routes": "count",
    "network.route_s": "s", "network.route_us": "us",
    "network.topology_writes": "count", "network.delivery_ratio": "ratio",
    "network.size_cost_ratio": "ratio",
    "persistence.digests": "count", "persistence.digest_s": "s",
    "persistence.digest_us": "us", "persistence.journal_s": "s",
    "persistence.journal_bytes": "bytes",
    "shard.windows": "count", "shard.busy_s": "s",
    "shard.sync_wait_s": "s", "shard.envelopes": "count",
    "shard.gateway_s": "s", "shard.mailbox_peak": "count",
    "simulation.events": "count", "simulation.schedules": "count",
    "simulation.self_s": "s",
    "traffic.submits": "count", "traffic.goodput_ratio": "ratio",
    "security.signs": "count", "security.verifies": "count",
    "security.auth_s": "s",
    "adaptation.mape_iterations": "count",
    "adaptation.plans_executed": "count",
    "observability.slo_evals": "count", "observability.slo_s": "s",
    "chaos.compiles": "count", "chaos.compile_s": "s",
    "chaos.cases": "count",
    "trace.overhead": "ratio",
}


#: Per-repetition values kept in the result file as measured.
RAW = ("setup_s", "setup_kernel_s", "peak_rss_mb", "wall_s", "error")
RUN_RAW = ("run_s", "verify_s", "events", "kernel_s", "verify_kernel_s")


def fingerprint() -> Dict[str, Any]:
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "platform": platform.platform()}


def spawn_rep(workload: str, seed: int, mode: str, index: int = 0,
              budget: float = 0.0) -> Dict[str, Any]:
    """Run one repetition in a fresh interpreter; never raises.

    A timed repetition runs the workload until ``budget`` seconds after
    its start are nearly spent, at least once.
    """
    out_dir = os.path.join(OUT, f"rep-{os.getpid()}-{mode}-{index}")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    started = time.monotonic()
    # Its own session, so a timeout or an interrupt ends the repetition's
    # worker processes with it.
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "rep.py"), workload, str(seed),
         mode, repr(started), out_dir, repr(budget)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=budget + REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"{mode} repetition exceeded "
                         f"{budget + REP_TIMEOUT_S:g} s",
                "wall_s": time.monotonic() - started}
    finally:
        if proc.returncode is None:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.communicate()
            shutil.rmtree(out_dir, ignore_errors=True)
    wall = time.monotonic() - started
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = stderr.strip().splitlines()[-3:]
        return {"error": f"{mode} repetition exited {proc.returncode}: "
                         + " | ".join(tail), "wall_s": wall}
    try:
        rep = json.loads(lines[-1])
    except json.JSONDecodeError:
        return {"error": f"{mode} repetition printed no result",
                "wall_s": wall}
    rep["wall_s"] = wall
    return rep


def load_expected() -> Dict[str, Any]:
    with open(EXPECTED, encoding="utf-8") as fh:
        return json.load(fh)


def operations(reps: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Every run of the repetitions; a crashed repetition is one entry."""
    return [run for rep in reps
            for run in (rep.get("runs") or [rep])]


def check_reps(reps: List[Dict[str, Any]], references: Dict[str, Any],
               label: str = "run") -> List[str]:
    """One failure line per run whose output is wrong.

    ``reps`` are runs (``operations``).  ``references`` maps an input key
    to its expected outputs; a key seen for the first time takes the
    run's outputs as its reference, so later runs of the same input must
    reproduce them.
    """
    failures = []
    for index, rep in enumerate(reps):
        if "error" in rep:
            failures.append(f"{label} {index}: {rep['error']}")
            continue
        reference = references.setdefault(rep["key"], rep["check"])
        if rep["check"] != reference:
            failures.append(f"{label} {index}: {rep['key']} output differs "
                            f"from expected {json.dumps(reference)[:200]}")
        elif rep.get("verified") is False:
            failures.append(f"{label} {index}: program verification failed")
    return failures


def quartiles(values: List[float]) -> List[float]:
    if len(values) < 2:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q2, q3]


def scaled(seconds: float, readings: List[float]) -> float:
    """``seconds`` on a host of reference speed.

    ``readings`` are the kernel readings taken on either side of the
    timed part (``calibrate.py``); a part without readings (one that
    keeps every vCPU busy) stays as measured.
    """
    if not readings:
        return seconds
    return seconds * calibrate.REFERENCE_S / statistics.fmean(readings)


def summarize(reps: List[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """Median, quartiles and sample count of each end-to-end metric.

    Every time is scaled by the host speed read next to it (``scaled``);
    ``setup_s`` by the readings around set-up (``setup_kernel_s``).
    ``setup_s`` and ``peak_rss_mb`` have one sample per repetition, the
    other metrics one per run.
    """
    samples: Dict[str, List[float]] = {name: [] for name in END_TO_END}
    for rep in reps:
        if "error" in rep:
            continue
        samples["setup_s"].append(scaled(rep["setup_s"],
                                         rep["setup_kernel_s"]))
        samples["peak_rss_mb"].append(rep["peak_rss_mb"])
        for run in rep["runs"]:
            run_s = scaled(run["run_s"], run["kernel_s"])
            samples["run_s"].append(run_s)
            samples["events_per_s"].append(run["events"] / run_s)
            samples["verify_s"].append(scaled(run["verify_s"],
                                              run["verify_kernel_s"]))
    return {name: {"value": statistics.median(values),
                   "unit": END_TO_END[name], "n": len(values),
                   "quartiles": quartiles(values), "samples": values}
            for name, values in samples.items() if values}


def layer_summary(traced: Dict[str, Any], plain: Dict[str, Any],
                  reps: List[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """Per-layer metrics of the traced run plus ShardedSimulator's stats."""
    values: Dict[str, float] = dict(traced["layers"])
    shard = [run["shard"] for run in operations(reps) if "shard" in run]
    for key in ("windows", "busy_s", "sync_wait_s", "mailbox_peak"):
        values[f"shard.{key}"] = (statistics.median(s[key] for s in shard)
                                  if shard else 0)
    traced_run, plain_run = traced["runs"][0], plain["runs"][0]
    values["trace.overhead"] = (
        scaled(traced_run["run_s"], traced_run["kernel_s"])
        / scaled(plain_run["run_s"], plain_run["kernel_s"]) - 1.0)
    return {name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER.items()}


def measure(workload: str, seed: int, seconds: float, trace: bool,
            log: Any) -> Dict[str, Any]:
    started = time.monotonic()
    reps: List[Dict[str, Any]] = []
    # A traced run needs one timed run (correctness and the
    # ShardedSimulator's shard stats); its time goes to the traced pair.
    count = 1 if trace else REPS
    while len(reps) < count:
        left = started + seconds - time.monotonic()
        if reps and left < reps[-1]["wall_s"] / 2:
            # A repetition runs the workload at least once, so one started
            # now would overrun --seconds by more than half its time (a
            # campaign run lasts about 10 s); the run stops here.
            break
        rep = spawn_rep(workload, seed, "timed", len(reps),
                        0.0 if trace else left / (count - len(reps)))
        reps.append(rep)
        log(f"rep {len(reps) - 1}: " + (rep.get("error") or
            f"setup {rep['setup_s']:.3f} s, {len(rep['runs'])} runs, "
            f"run {statistics.median(r['run_s'] for r in rep['runs']):.3f}"
            f" s (unscaled)"))
    references = dict(load_expected().get(workload, {}))
    failures = check_reps(operations(reps), references)
    metrics = summarize(reps)
    attempted = len(operations(reps))
    layers: Dict[str, Dict[str, Any]] = {}
    if trace and "run_s" in metrics:
        # An untraced repetition with the traced run's settings, right
        # before the traced one, is the baseline of trace.overhead.
        pair = [spawn_rep(workload, seed, "plain"),
                spawn_rep(workload, seed, "traced")]
        attempted += len(pair)
        failures += check_reps(operations(pair), references,
                               label="plain/traced")
        if not any("error" in rep for rep in pair):
            layers = layer_summary(pair[1], pair[0], reps)
    return {"workload": workload, "seed": seed, "trace": trace,
            "host": fingerprint(),
            "inputs": next((rep["inputs"] for rep in reps if "inputs" in rep),
                           None),
            "attempted": attempted, "failures": failures,
            "wall_s": time.monotonic() - started,
            "metrics": metrics, "per_layer": layers,
            "reps": [unscaled(rep) for rep in reps]}


def unscaled(rep: Dict[str, Any]) -> Dict[str, Any]:
    """A repetition's times and kernel readings, as measured."""
    out = {key: rep[key] for key in RAW if key in rep}
    if "runs" in rep:
        out["runs"] = [{key: run[key] for key in RUN_RAW if key in run}
                       for run in rep["runs"]]
    return out


def record_expected(workload: str, seed: int) -> int:
    """Store the checked outputs of this seed's input in ``expected.json``."""
    rep = spawn_rep(workload, seed, "timed")
    run = rep["runs"][0] if "runs" in rep else rep
    if "error" in run or not run.get("verified"):
        print(f"perfbench: cannot record {workload}: "
              f"{run.get('error', 'verification failed')}", file=sys.stderr)
        return 1
    expected = load_expected()
    expected.setdefault(workload, {})[run["key"]] = run["check"]
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"perfbench: recorded {workload} {run['key']}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="record this seed's outputs in expected.json")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no program to measure: {ROOT}/src/repro is "
              f"missing", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    if args.record:
        return record_expected(args.workload, args.seed)

    def log(line: str) -> None:
        print(f"[{args.workload}] {line}", file=sys.stderr, flush=True)

    result = measure(args.workload, args.seed, args.seconds,
                     bool(args.trace), log)
    path = os.path.join(OUT, f"result-{args.workload}-seed{args.seed}"
                             f"-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    if "run_s" not in result["metrics"]:
        print("perfbench: every repetition failed: "
              + "; ".join(result["failures"]), file=sys.stderr)
        return 1
    for line in result["failures"]:
        log(f"FAILED {line}")
    host = result["host"]
    print(f"host: nproc={host['nproc']} python={host['python']} "
          f"platform={host['platform']}")
    for name, metric in result["metrics"].items():
        q1, _, q3 = metric["quartiles"]
        print(f"{name:>14} {metric['value']:12.4f} {metric['unit']:<4} "
              f"q1 {q1:.4f} q3 {q3:.4f} n={metric['n']}")
    shown = (result["per_layer"] if args.trace else result["metrics"])
    print(json.dumps({
        "correct": not result["failures"],
        "attempted": result["attempted"],
        "failed": len(result["failures"]),
        "metrics": {name: {"value": metric["value"], "unit": metric["unit"]}
                    for name, metric in shown.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
