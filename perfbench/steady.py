"""Steadiness check: two sets of benchmark runs of the same code.

    python3 perfbench/steady.py [--workloads a,b] [--seeds 1-10] [--seconds S]

Runs ``perfbench/run.py --trace 0`` once per seed and workload in each
of two sets (set after set, as a regression check would), then prints,
per workload and end-to-end metric, each set's median and quartiles and
its spread -- the quartile distance as a share of the median.  It
flags a metric whose spread exceeds its bound from ``BENCHMARK.json``,
whose second median is worse than the first by more than the bound, or
a workload whose share of failed operations differs between the sets.  It also
marks spreads above a third of the bound, the margin the bounds were
set with.  Exits 1 when anything is flagged.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
from typing import Dict, List

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2


def parse_seeds(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        cwd=str(ROOT), timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(
            f"run failed ({workload}, seed {seed}): {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def spread(values: List[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    runs: Dict[str, List[List[dict]]] = {w: [] for w in workloads}
    for set_index in range(SETS):
        for workload in workloads:
            batch = []
            for seed in seeds:
                batch.append(one_run(workload, seed, args.seconds))
                print(f"set {set_index + 1} {workload} seed {seed} done",
                      file=sys.stderr, flush=True)
            runs[workload].append(batch)

    flagged: List[str] = []
    for workload in workloads:
        print(f"== {workload}")
        shares = [
            sum(r["failed"] for r in batch)
            / sum(r["attempted"] for r in batch)
            for batch in runs[workload]
        ]
        print(f"   failed share per set: {shares}")
        if len(set(shares)) > 1:
            flagged.append(f"{workload}: failed share differs {shares}")
        for name, meta in bounds.items():
            bound = meta["bound"]
            rows = [spread([r["metrics"][name]["value"] for r in batch])
                    for batch in runs[workload]]
            notes = []
            for index, row in enumerate(rows):
                if row["spread"] > bound:
                    notes.append(f"set {index + 1} spread over bound")
                elif row["spread"] > bound / 3:
                    notes.append(f"set {index + 1} spread over bound/3")
            worse = (rows[1]["median"] - rows[0]["median"]) / rows[0]["median"]
            if meta["better"] == "higher":
                worse = -worse
            if worse > bound:
                notes.append(f"second median worse by {worse:.3f}")
            hard = [n for n in notes if "bound/3" not in n]
            flagged.extend(f"{workload} {name}: {n}" for n in hard)
            cells = "  ".join(
                f"set{i + 1} {row['median']:.6g} [{row['q1']:.6g}, "
                f"{row['q3']:.6g}] spread {row['spread']:.3f}"
                for i, row in enumerate(rows))
            print(f"   {name:<18} {meta['unit']:<4} bound {bound:<5} {cells}"
                  + (f"  <- {'; '.join(notes)}" if notes else ""))
    for line in flagged:
        print("FLAG", line)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
