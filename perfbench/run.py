"""The repository's benchmark: one command, four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py                     # every workload, seed 1

Every instance runs in a fresh single-threaded interpreter (see
:mod:`passes`):

1. the timed pass repeats whole cycles -- one instance per generator
   seed of the cycle -- a fixed number of times, derived from
   ``--seconds`` alone (:func:`cycle_count`); each phase time is, per
   instance, the sum over the phase's timed blocks of each block's
   lowest time over the cycles, averaged over the instances (the
   host's speed swings within seconds, and the least figure is the one
   a slow moment inflated least); counts and join durations are pooled
   over each instance's fastest repeat;
2. with ``--trace 1``, a traced pass then runs the first instance with
   span wrappers on every layer and reports the per-layer metrics,
   plus its own overhead: traced ``run_s`` minus the untraced one.

Metric names, units and bounds come from ``BENCHMARK.json``.  The last
line printed is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is non-zero, with no result
printed, when a pass cannot run; it is 1, after the result, when an
independent correctness check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
from typing import Dict, List

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import CYCLE_SECONDS, WORKLOADS, instance_seeds  # noqa: E402

#: Whatever ``--seconds`` asks, no more cycles than fit in this much
#: wall time on the reference host, so that a run ends within three
#: minutes.
WALL_CAP_S = 120.0
PHASES = ("setup_s", "run_s", "verify_s")
PASS_TIMEOUT_S = 150.0
SPANS_DIR = ROOT / ".perfbench"


class PassError(RuntimeError):
    """A pass exited non-zero or printed no result."""


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def cycle_count(workload: str, seconds: float) -> int:
    """Cycles a run makes: as many nominal cycles of ``workload`` as
    fit ``seconds``, at least one and at most ``WALL_CAP_S`` worth."""
    per_cycle = CYCLE_SECONDS[workload]
    return max(1, min(int(seconds / per_cycle + 0.5),
                      int(WALL_CAP_S // per_cycle)))


def run_pass(mode: str, workload: str, seed: int, *extra: str) -> dict:
    """One pass in a fresh interpreter; returns its JSON result."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, str(HERE / "passes.py"), mode, workload, str(seed),
         *extra],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=PASS_TIMEOUT_S, env=env, cwd=str(ROOT),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassError(
            f"{mode} pass of {workload} (seed {seed}) exited "
            f"{proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def figures(cycles: List[List[dict]]) -> Dict[str, float]:
    """End-to-end figures of a run from its cycles, each a list of
    instance results in generator-seed order.

    Phase times: per instance, the sum over the phase's timed blocks of
    each block's lowest time over the cycles; resident-set growth per
    node: each instance's lowest; both averaged over the instances.
    Messages,
    bytes and join durations: pooled over the instances, each taken
    from its repeat with the lowest ``run_s`` (in the simulator every
    repeat gives the same counts; over UDP they follow the host's
    speed, as ``run_s`` does)."""
    repeats = list(zip(*cycles))
    out = {
        key: statistics.fmean(
            sum(min(block) for block in zip(*(r["seconds"][key]
                                              for r in runs)))
            for runs in repeats)
        for key in PHASES
    }
    out["peak_kib_per_node"] = statistics.fmean(
        min(r["peak_bytes"] / 1024.0 / r["nodes"] for r in runs)
        for runs in repeats)
    best = [min(runs, key=lambda r: sum(r["seconds"]["run_s"]))
            for runs in repeats]
    ops = sum(r["ops"] for r in best)
    durations = sorted(d for r in best for d in r["join_vt"])
    out.update({
        "msgs_per_op": sum(r["msgs"] for r in best) / ops,
        "kib_per_op": sum(r["bytes"] for r in best) / 1024.0 / ops,
        "join_vt_p50": statistics.median(durations),
        "join_vt_p90": statistics.quantiles(durations, n=10)[-1],
    })
    return out


def per_layer(traced: dict, untraced_run_s: float) -> Dict[str, float]:
    """Per-layer metrics from the traced pass (spans, counts, and the
    instance's own count-type figures)."""
    spans = traced["spans"]

    def total(name: str) -> float:
        return spans.get(name, {}).get("total", 0.0)

    out: Dict[str, float] = {
        "oracle.build_s": total("oracle.build"),
        "topology.build_s": total("topology.build"),
        "topology.latency_s": total("topology.latency"),
        "protocol.register_s": total("protocol.register"),
        "sim.dispatch_s": spans.get("sim.run", {}).get("self", 0.0),
        "network.send_s": total("network.send"),
        "consistency.check_s": total("consistency.check"),
        "consistency.incremental.check_s":
            total("consistency.incremental.check"),
        "audit.samples": spans.get("audit.sample", {}).get("calls", 0),
        "audit.sample_s": total("audit.sample"),
        "audit.finalize_s": total("audit.finalize"),
        "leave.s": total("leave"),
        "recovery.s": total("recovery"),
        "wire.encode_s": total("wire.encode"),
        "wire.decode_s": total("wire.decode"),
        "trace.spans": traced["span_count"],
        "trace.overhead_s": sum(traced["seconds"]["run_s"]) - untraced_run_s,
    }
    for name, row in spans.items():
        if name.startswith("protocol.handle."):
            message = name[len("protocol.handle."):]
            out["protocol.handle_s." + message] = row["self"]
            out["protocol.handled." + message] = row["calls"]
    out.update(traced["counts"])
    out.update(traced["layer"])
    return out


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    """Every pass of one workload; returns the result object."""
    bench = spec()
    seeds = instance_seeds(workload, seed)
    cycles: List[List[dict]] = []
    attempted = failed = 0
    problems: List[str] = []
    for _ in range(cycle_count(workload, seconds)):
        instances = [run_pass("timed", workload, s) for s in seeds]
        for result in instances:
            attempted += result["attempted"]
            failed += result["failed"]
            problems.extend(result["problems"])
        cycles.append(instances)

    if trace:
        SPANS_DIR.mkdir(exist_ok=True)
        spans_out = SPANS_DIR / f"spans-{workload}-seed{seed}.jsonl"
        traced = run_pass("traced", workload, seeds[0], str(spans_out))
        values = per_layer(traced, min(
            sum(cycle[0]["seconds"]["run_s"]) for cycle in cycles))
        wanted = bench["per_layer"]
    else:
        values = figures(cycles)
        wanted = bench["end_to_end"]
    metrics = {
        m["name"]: {"value": float(values.get(m["name"], 0.0)),
                    "unit": m["unit"]}
        for m in wanted
    }
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "problems": problems,
        "cycles": len(cycles),
    }


def summary(workload: str, result: dict) -> str:
    lines = [f"== {workload}: {result['cycles']} cycles, "
             f"{result['attempted']} operations attempted, "
             f"{result['failed']} failed, correct={result['correct']}"]
    for name, metric in result["metrics"].items():
        lines.append(f"   {name:<40} {metric['value']:>14.6g} {metric['unit']}")
    for problem in result["problems"][:10]:
        lines.append(f"   PROBLEM {problem}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(spec()["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds,
                                  bool(args.trace))
        except (PassError, subprocess.TimeoutExpired, KeyError,
                ValueError) as exc:
            print(f"benchmark could not run {name}: {exc}", file=sys.stderr)
            return 2
        print(summary(name, result))
        results[name] = result
    if len(names) == 1:
        out = {key: results[names[0]][key]
               for key in ("correct", "attempted", "failed", "metrics")}
    else:
        out = {name: {key: r[key] for key in
                      ("correct", "attempted", "failed", "metrics")}
               for name, r in results.items()}
    print(json.dumps(out))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
