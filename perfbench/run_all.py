"""Run every workload over several seeds and summarize.

  python3 perfbench/run_all.py [--workloads a,b] [--seeds 1,2,3] [--out FILE]

For each workload: one untraced run per seed (at least two seeds), then
two traced runs on the first seed, all of BENCHMARK.json's run_seconds.
Prints each run's output, then per end-to-end metric the median,
quartiles and spread ((q3 - q1) / median, as statistics.quantiles(n=4)
gives them) next to the bound in BENCHMARK.json, and whether the counts
of the two traced runs agree exactly. --out writes the summary as JSON
(perfbench/baseline.json holds the one taken at the seed commit).
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

TRACED_RUNS = 2
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, str(RUN), "--workload", workload, "--seed",
               str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(command, capture_output=True, text=True, cwd=ROOT,
                          timeout=900)
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} exited with {proc.returncode}")
    lines = proc.stdout.splitlines()
    facts = next(json.loads(line[6:]) for line in lines if line.startswith("facts "))
    return facts, json.loads(lines[-1])


def spread_summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def main(argv=None):
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in config["workloads"]))
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]

    seconds = config["run_seconds"]
    summary = {"run_seconds": seconds, "seeds": seeds, "workloads": {}}
    all_correct = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            facts, result = run_once(workload, seed, seconds, 0)
            runs.append(result)
            all_correct &= result["correct"]
        entry = {"facts": facts, "attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs), "end_to_end": {}}
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in runs]
            entry["end_to_end"][name] = spread_summary(values)
        traced = []
        for _ in range(TRACED_RUNS):
            _, result = run_once(workload, seeds[0], seconds, 1)
            traced.append(result)
            all_correct &= result["correct"]
        counts = [{k: v["value"] for k, v in r["metrics"].items()
                   if v["unit"] == "count"} for r in traced]
        entry["traced_counts"] = counts[0]
        entry["traced_counts_repeat"] = all(c == counts[0] for c in counts)
        entry["per_layer"] = {k: v["value"] for k, v in traced[0]["metrics"].items()}
        summary["workloads"][workload] = entry

    print()
    print(f"{'workload':<18} {'metric':<12} {'median':>12} {'spread':>8} {'bound/3':>8}")
    for workload, entry in summary["workloads"].items():
        for name, stats in entry["end_to_end"].items():
            flag = "" if stats["spread"] < bounds[name] / 3 else "  wide"
            print(f"{workload:<18} {name:<12} {stats['median']:>12.5g} "
                  f"{stats['spread']:>8.4f} {bounds[name] / 3:>8.4f}{flag}")
        print(f"{workload:<18} traced counts repeat exactly: "
              f"{entry['traced_counts_repeat']}")
        print(f"{workload:<18} failed {entry['failed']} of {entry['attempted']}")
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
