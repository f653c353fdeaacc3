#!/usr/bin/env python3
"""Steadiness report: runs workloads repeatedly and compares spread with bounds.

    python3 perfbench/steadiness.py [--runs 10] [--seed-base 1000]

Runs two sets. Each set runs every workload of BENCHMARK.json --runs times
through perfbench/run.py, each run on a seed no other run uses (set k, run
i: seed-base + 1000 k + i), with the workloads interleaved so slow drift of
the host hits them alike. For every end-to-end metric it prints the median,
the quartiles (statistics.quantiles, n=4) of the first set, the spread
(q3 - q1) / median of each set against the metric's bound from
BENCHMARK.json (setup_s's spread is not held to it), and how far
the second set's median moved against the first, in the metric's worse
direction. The verdict column says which workload to lengthen or drop.

The full record, stamped with the host facts every run prints, is written
to .bench_build/steadiness.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build", "steadiness.json")
SETS = 2


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = proc.stdout.splitlines()
    host = next((l[len("host: "):] for l in lines if l.startswith("host: ")), "")
    if proc.returncode != 0 or not lines:
        raise SystemExit("steadiness: %s seed %d failed (exit %d)\n%s"
                         % (workload, seed, proc.returncode, proc.stdout))
    result = json.loads(lines[-1])
    return host, result


def spread_of(values):
    """(q3 - q1) / median, the quartiles as statistics.quantiles(n=4)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def worse_by(first, second, better):
    """Relative change from first to second median in the worse direction."""
    if first == 0:
        return 0.0
    change = (second - first) / abs(first)
    return -change if better == "higher" else change


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1000)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    seconds = bench["run_seconds"]

    samples = {}  # (set, workload, metric) -> [values]
    hosts = set()
    failures = 0
    for k in range(SETS):
        for i in range(args.runs):
            seed = args.seed_base + 1000 * k + i
            for workload in workloads:
                host, result = run_once(workload, seed, seconds)
                hosts.add(host)
                failures += result["failed"]
                if not result["correct"]:
                    raise SystemExit("steadiness: %s seed %d failed its image "
                                     "check" % (workload, seed))
                for name, metric in result["metrics"].items():
                    samples.setdefault((k, workload, name), []).append(
                        metric["value"])
                print("set %d run %d %-15s done" % (k + 1, i + 1, workload),
                      file=sys.stderr)

    report = {"host": sorted(hosts), "runs": args.runs, "sets": SETS,
              "seconds": seconds, "failed_requests": failures, "rows": []}
    print("host: %s" % " | ".join(sorted(hosts)))
    print("%-15s %-24s %12s %12s %12s %8s %8s %7s %8s %8s  %s" % (
        "workload", "metric", "median", "q1", "q3", "spread", "spread2",
        "bound", "/bound", "drift", "verdict"))
    for workload in workloads:
        for metric in metrics:
            name = metric["name"]
            values = samples[(0, workload, name)]
            second = samples[(1, workload, name)]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = spread_of(values)
            spread2 = spread_of(second)
            bound = metric["bound"]
            drift = worse_by(med, statistics.median(second), metric["better"])
            worst = max(spread, spread2)
            if (name != "setup_s" and worst > bound) or drift > bound:
                verdict = "unsteady: lengthen" + (
                    " or drop" if workload == "survey_sharded" else "")
            elif worst > bound / 3 and name != "setup_s":
                verdict = "marginal: lengthen"
            else:
                verdict = "steady"
            print("%-15s %-24s %12.6g %12.6g %12.6g %8.4f %8.4f %7s %8s %8.4f  %s"
                  % (workload, name, med, q1, q3, spread, spread2,
                     "%.3f" % bound, "%.2f" % (worst / bound), drift, verdict))
            report["rows"].append({
                "workload": workload, "metric": name, "median": med, "q1": q1,
                "q3": q3, "spread": spread, "spread_set2": spread2,
                "bound": bound, "drift": drift, "verdict": verdict,
                "values": values, "values_set2": second})
    os.makedirs(os.path.dirname(OUT), exist_ok=True)
    with open(OUT, "w") as f:
        json.dump(report, f, indent=1)
    print("steadiness: wrote %s (%d failed requests)" % (OUT, failures))


if __name__ == "__main__":
    main()
