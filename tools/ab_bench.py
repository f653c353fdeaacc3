#!/usr/bin/env python3
"""A/B runner: alternating parent/change pairs of perfbench/run.py or of one
sarbp.bench.v1 bench binary.

    tools/ab_bench.py PARENT CHANGE --workload survey [--workload stream ...]
                      --pairs 10 --seed 1 --out ab.json
    tools/ab_bench.py PARENT CHANGE --bench ablation_vectorization
                      --bench-args "--ix 384 --pulses 256" [--cpu 1]
                      --pairs 10 --out ab.json
    tools/ab_bench.py --selftest

PARENT and CHANGE are git revisions of this repository. Both are checked
out as detached git worktrees in a temporary directory (under $TMPDIR),
which is removed at exit, signals included. Each worktree builds and runs
its own perfbench/run.py, driven as a black box: the runner reads only the
"host:" line and the result object run.py prints last. Every run lasts
BENCHMARK.json's run_seconds, except one discarded 1 s warm-up run per side
and workload, which does the cold build and fills the caches. The
workloads to choose from are BENCHMARK.json's.

Pair i runs every workload, parent first when i is even and change first
when i is odd, so slow drift of the host hits both sides alike. With
--trace 1 the runs are the traced ones, whose metrics are the per-layer set.

For every workload and metric the runner prints each side's median and
quartiles (statistics.quantiles, n=4, as perfbench/steadiness.py uses), the
change's wins out of the pairs (ties count for neither side), and a verdict
(see verdict()). It also prints each side's attempted and failed request
counts and how many runs passed their image checks. Each metric's direction,
and an end-to-end metric's bound, come from BENCHMARK.json. Every run, with
its host line, goes to the --out JSON file.

With --bench NAME the runner builds only bench target NAME in each worktree
(a Release CMake build under the worktree) and runs its binary with
--bench-args plus --json=FILE, pinned with `taskset -c N` when --cpu N is
given, in the same alternating pairs. Each row of the sarbp.bench.v1
document (its name and params) is a metric whose value is the row's
median; its direction comes from its unit, a rate ("/s") being
higher-is-better and anything else lower-is-better, and it has no bound.
"""
import argparse
import atexit
import json
import os
import shlex
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SIDES = ("parent", "change")
WARMUP_SECONDS = 1


def git(*args, cwd=ROOT):
    return subprocess.run(["git", *args], cwd=cwd, check=True, text=True,
                          stdout=subprocess.PIPE).stdout.strip()


def benchmark():
    """This checkout's BENCHMARK.json: workloads, run length and metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def metric_rules(bench):
    """{metric name: (better, bound)}: better is "higher" or "lower"; bound
    is an end-to-end metric's relative bound, None for a per-layer one."""
    return {m["name"]: (m["better"], m.get("bound"))
            for m in bench.get("end_to_end", []) + bench.get("per_layer", [])}


def metric_value(result, name):
    """A run's value of metric `name` ({"value": v, "unit": u}), or None."""
    metric = result["metrics"].get(name) if result else None
    return metric["value"] if metric else None


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4); one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def wins(parent, change, better):
    """(change wins, parent wins) over paired runs; ties count for neither."""
    change_wins = parent_wins = 0
    for p, c in zip(parent, change):
        if c == p:
            continue
        if (c > p) == (better == "higher"):
            change_wins += 1
        else:
            parent_wins += 1
    return change_wins, parent_wins


def worse_by(parent_median, change_median, better):
    """Relative move from the parent's median to the change's, in the
    metric's worse direction (as perfbench/steadiness.py computes drift)."""
    if parent_median == 0:
        return 0.0
    move = (change_median - parent_median) / abs(parent_median)
    return -move if better == "higher" else move


def verdict(parent, change, better, bound=None):
    """The change against the parent, over paired runs. With a bound (an
    end-to-end metric): "worse than bound" when the change's median is
    worse than the parent's by more than the bound, relative to the
    parent's median; otherwise "unresolved" when the parent's spread
    (q3 - q1) / median is wider than the bound, so a move of the bound's
    size could hide in it, unless every change run reads better than every
    parent run. Then, and for a metric without a bound: "inside IQR" when
    the medians differ by at most the parent's interquartile range, else
    "worse", or "better" when the change also wins at least 9 of every 10
    pairs (ties count for neither), else "too few wins"."""
    q1, p_med, q3 = quartiles(parent)
    c_med = quartiles(change)[1]
    if bound is not None:
        if worse_by(p_med, c_med, better) > bound:
            return "worse than bound"
        apart = (min(change) > max(parent) if better == "higher"
                 else max(change) < min(parent))
        if p_med and (q3 - q1) / abs(p_med) > bound and not apart:
            return "unresolved"
    if abs(c_med - p_med) <= q3 - q1:
        return "inside IQR"
    if (c_med > p_med) != (better == "higher"):
        return "worse"
    change_wins, _ = wins(parent, change, better)
    return "better" if 10 * change_wins >= 9 * len(parent) else "too few wins"


def summarize(runs, workload, rules):
    """One row per metric of `workload`'s complete pairs, plus the counts."""
    by_pair = {}
    for run in runs:
        if run["workload"] == workload:
            by_pair.setdefault(run["pair"], {})[run["side"]] = run
    pairs = [p for p in sorted(by_pair) if len(by_pair[p]) == 2]
    counts = {}
    for side in SIDES:
        results = [by_pair[p][side]["result"] for p in pairs]
        counts[side] = {
            "runs": len(results),
            "attempted": sum(r["attempted"] for r in results if r),
            "failed": sum(r["failed"] for r in results if r),
            "correct": sum(1 for r in results if r and r["correct"] is True),
        }
    metrics = []
    complete = [p for p in pairs
                if all(by_pair[p][s]["result"] for s in SIDES)]
    names = set()
    for p in complete:
        for side in SIDES:
            names.update(by_pair[p][side]["result"]["metrics"])
    for name in sorted(names):
        if name not in rules:
            continue
        better, bound = rules[name]
        series = {s: [metric_value(by_pair[p][s]["result"], name)
                      for p in complete] for s in SIDES}
        if any(v is None for s in SIDES for v in series[s]):
            continue
        metrics.append(metric_row(name, series["parent"], series["change"],
                                  better, bound))
    return {"workload": workload, "counts": counts, "metrics": metrics}


def metric_row(name, parent, change, better, bound=None):
    """One metric's summary over paired values."""
    change_wins, parent_wins = wins(parent, change, better)
    return {
        "name": name, "better": better, "bound": bound,
        "pairs": len(parent),
        "parent": quartiles(parent), "change": quartiles(change),
        "change_wins": change_wins, "parent_wins": parent_wins,
        "verdict": verdict(parent, change, better, bound),
    }


def format_metrics(metrics):
    lines = ["  %-28s %-33s %-33s %-7s %s" % (
        "metric", "parent median [q1, q3]", "change median [q1, q3]",
        "wins", "verdict")]
    for m in metrics:
        cell = lambda q: "%.6g [%.6g, %.6g]" % (q[1], q[0], q[2])
        rule = "%s is better" % m["better"]
        if m["bound"] is not None:
            rule += ", bound %g" % m["bound"]
        lines.append("  %-28s %-33s %-33s %2d/%-4d %s (%s)" % (
            m["name"], cell(m["parent"]), cell(m["change"]),
            m["change_wins"], m["pairs"], m["verdict"], rule))
    return lines


def format_summary(summary):
    lines = ["== %s ==" % summary["workload"]]
    for side in SIDES:
        c = summary["counts"][side]
        lines.append("  %-6s runs %d, attempted %d, failed %d, correct %d/%d"
                     % (side, c["runs"], c["attempted"], c["failed"],
                        c["correct"], c["runs"]))
    return "\n".join(lines + format_metrics(summary["metrics"]))


def bench_direction(unit):
    """A bench row's better direction from its unit: a rate is higher."""
    return "higher" if unit.endswith("/s") else "lower"


def bench_rows(document):
    """{row key: (unit, median)} of one sarbp.bench.v1 document; a row's
    key is its name, plus its params where another row shares the name."""
    if document.get("schema") != "sarbp.bench.v1":
        raise ValueError("not a sarbp.bench.v1 document")
    results = document["results"]
    names = [r["name"] for r in results]
    rows = {}
    for r in results:
        key = r["name"]
        if names.count(key) > 1:
            key += " " + ",".join("%s=%s" % kv
                                  for kv in sorted(r["params"].items()))
        rows[key] = (r["unit"], r["median"])
    return rows


def summarize_bench(runs):
    """One row per bench row present in every complete pair, in the
    parent's row order, plus each side's run and failure counts."""
    by_pair = {}
    for run in runs:
        by_pair.setdefault(run["pair"], {})[run["side"]] = run
    pairs = [p for p in sorted(by_pair) if len(by_pair[p]) == 2]
    counts = {side: {"runs": len(pairs),
                     "failed": sum(1 for p in pairs
                                   if by_pair[p][side]["result"] is None)}
              for side in SIDES}
    complete = [p for p in pairs
                if all(by_pair[p][s]["result"] for s in SIDES)]
    metrics = []
    if complete:
        rows = {p: {s: bench_rows(by_pair[p][s]["result"]) for s in SIDES}
                for p in complete}
        first = rows[complete[0]]["parent"]
        for key, (unit, _) in first.items():
            if not all(key in rows[p][s] for p in complete for s in SIDES):
                continue
            series = {s: [rows[p][s][key][1] for p in complete]
                      for s in SIDES}
            metrics.append(metric_row(key, series["parent"],
                                      series["change"],
                                      bench_direction(unit)))
    return {"counts": counts, "metrics": metrics}


def format_bench_summary(bench, summary):
    lines = ["== %s ==" % bench]
    for side in SIDES:
        c = summary["counts"][side]
        lines.append("  %-6s runs %d, failed %d" % (side, c["runs"],
                                                     c["failed"]))
    return "\n".join(lines + format_metrics(summary["metrics"]))


class Worktrees:
    """Detached worktrees of the two revisions, removed at exit."""

    def __init__(self, revisions):
        self.tmpdir = tempfile.mkdtemp(prefix="ab_bench-")
        self.paths = []
        atexit.register(self.remove)
        for side, rev in zip(SIDES, revisions):
            path = os.path.join(self.tmpdir, side)
            git("worktree", "add", "--detach", path, rev)
            self.paths.append(path)

    def remove(self):
        for path in self.paths:
            subprocess.run(["git", "worktree", "remove", "--force", path],
                           cwd=ROOT, stdout=subprocess.DEVNULL,
                           stderr=subprocess.DEVNULL)
        self.paths = []
        subprocess.run(["git", "worktree", "prune"], cwd=ROOT)
        shutil.rmtree(self.tmpdir, ignore_errors=True)


def run_once(tree, workload, seed, seconds, trace):
    """One run.py run: (host line, result object or None, exit code)."""
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    host = next((l[len("host: "):] for l in lines if l.startswith("host: ")),
                "")
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    if not isinstance(result, dict) or "metrics" not in result:
        result = None
    return host, result, proc.returncode


def build_bench(tree, name):
    """Configures a Release build under `tree` and builds bench `name`;
    returns the binary's path."""
    build = os.path.join(tree, "build-ab")
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", tree, "-B", build,
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", build, "--target", name, "-j", jobs]):
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            print(proc.stdout, file=sys.stderr)
            raise SystemExit("ab_bench: %s failed (exit %d)"
                             % (" ".join(cmd), proc.returncode))
    return os.path.join(build, "bench", name)


def run_bench_once(binary, bench_args, cpu, json_path):
    """One bench run: (sarbp.bench.v1 document, or None when the run
    failed or wrote none, exit code)."""
    cmd = [binary, *bench_args, "--json=" + json_path]
    if cpu is not None:
        cmd = ["taskset", "-c", str(cpu), *cmd]
    if os.path.exists(json_path):
        os.remove(json_path)
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL)
    if proc.returncode != 0:
        return None, proc.returncode
    try:
        with open(json_path) as f:
            document = json.load(f)
        bench_rows(document)
    except (OSError, ValueError, KeyError, TypeError):
        document = None
    return document, proc.returncode


def run_bench_pairs(args):
    revisions = [git("rev-parse", "--verify", rev + "^{commit}")
                 for rev in (args.parent, args.change)]
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    worktrees = Worktrees(revisions)
    bench_args = shlex.split(args.bench_args)
    record = {"parent": revisions[0], "change": revisions[1],
              "bench": args.bench, "bench_args": bench_args,
              "cpu": args.cpu, "pairs": args.pairs, "runs": []}

    def save():
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)

    binaries = []
    for side, tree in zip(SIDES, worktrees.paths):
        print("build: %s %s" % (side, args.bench), flush=True)
        binaries.append(build_bench(tree, args.bench))
    json_path = os.path.join(worktrees.tmpdir, "run.json")
    for pair in range(args.pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for side in order:
            document, code = run_bench_once(binaries[SIDES.index(side)],
                                            bench_args, args.cpu, json_path)
            record["runs"].append({"pair": pair, "side": side, "exit": code,
                                   "result": document})
            print("pair %d %-6s exit %d" % (pair, side, code), flush=True)
            save()
    record["summary"] = summarize_bench(record["runs"])
    save()
    hosts = sorted({r["result"]["host"] for r in record["runs"]
                    if r["result"]})
    print("host: %s" % " | ".join(hosts))
    print("parent %s, change %s, %s %s, cpu %s, %d pairs"
          % (revisions[0][:12], revisions[1][:12], args.bench,
             " ".join(bench_args), args.cpu, args.pairs))
    print(format_bench_summary(args.bench, record["summary"]))
    print("record: %s" % args.out)


def run_pairs(args, bench):
    rules = metric_rules(bench)
    seconds = bench["run_seconds"]
    revisions = [git("rev-parse", "--verify", rev + "^{commit}")
                 for rev in (args.parent, args.change)]
    # SIGTERM unwinds like Ctrl-C, so atexit removes the worktrees.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    trees = Worktrees(revisions).paths
    record = {"parent": revisions[0], "change": revisions[1],
              "workloads": args.workload, "pairs": args.pairs,
              "seed": args.seed, "seconds": seconds, "trace": args.trace,
              "warmup": [], "runs": []}

    def save():
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)

    for workload in args.workload:
        for side, tree in zip(SIDES, trees):
            print("warm-up (build): %s %s" % (side, workload), flush=True)
            host, result, code = run_once(tree, workload, args.seed,
                                          WARMUP_SECONDS, args.trace)
            record["warmup"].append({"side": side, "workload": workload,
                                     "host": host, "exit": code,
                                     "result": result})
            if result is None:
                save()
                raise SystemExit("ab_bench: %s warm-up of %s failed (exit %d)"
                                 % (side, workload, code))
    for pair in range(args.pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for workload in args.workload:
            for side in order:
                tree = trees[SIDES.index(side)]
                host, result, code = run_once(tree, workload, args.seed,
                                              seconds, args.trace)
                record["runs"].append({"pair": pair, "side": side,
                                       "workload": workload, "host": host,
                                       "exit": code, "result": result})
                p50 = metric_value(result, "latency_p50_s")
                print("pair %d %-14s %-6s exit %d%s" % (
                    pair, workload, side, code,
                    "" if p50 is None else ", p50 %.4g s" % p50), flush=True)
                save()
    record["summary"] = [summarize(record["runs"], w, rules)
                         for w in args.workload]
    save()
    hosts = sorted({r["host"] for r in record["runs"]})
    print("host: %s" % " | ".join(hosts))
    print("parent %s, change %s, seed %d, %g s, %d pairs, trace %d"
          % (revisions[0][:12], revisions[1][:12], args.seed, seconds,
             args.pairs, args.trace))
    for summary in record["summary"]:
        print(format_summary(summary))
    print("record: %s" % args.out)


def selftest():
    """Fixed numbers through wins, ties, quartiles and the verdict."""
    failures = []

    def check(name, got, want):
        if got != want:
            failures.append("%s: got %r, want %r" % (name, got, want))

    check("quartiles", quartiles([1.0, 2.0, 3.0, 4.0, 5.0]), (1.5, 3.0, 4.5))
    check("quartiles of one", quartiles([7.0]), (7.0, 7.0, 7.0))
    parent = [10.0, 11.0, 12.0, 13.0, 14.0]
    lower = [8.0, 11.0, 9.0, 9.5, 15.0]
    check("wins, lower is better", wins(parent, lower, "lower"), (3, 1))
    check("wins, higher is better", wins(parent, lower, "higher"), (1, 3))
    check("ties count for neither", wins([1.0, 2.0], [1.0, 2.0], "lower"),
          (0, 0))
    # Parent IQR is 13.5 - 10.5 = 3; medians 12 vs 9.5 differ by 2.5.
    check("inside IQR", verdict(parent, lower, "lower"), "inside IQR")
    faster = [7.0, 8.0, 8.5, 9.0, 9.5]
    check("better", verdict(parent, faster, "lower"), "better")
    check("worse", verdict(parent, faster, "higher"), "worse")
    # With a bound: the parent's spread 3 / 12 = 0.25 is inside 0.3, and
    # faster's median 8.5 is 29% below the parent's 12.
    check("better, inside bound", verdict(parent, faster, "lower", 0.3),
          "better")
    check("worse than bound", verdict(parent, faster, "higher", 0.25),
          "worse than bound")
    check("worse, inside bound", verdict(parent, faster, "higher", 0.3),
          "worse")
    # Spread (13 - 7) / 10 = 0.6: a gap of 7 beats the IQR of 6, but a move
    # of the bound's size could hide in the parent's spread.
    wide = [6.0, 8.0, 10.0, 12.0, 14.0]
    check("wide parent without a bound", verdict(wide, [1.0, 2.0, 3.0, 3.5,
                                                       4.0], "lower"),
          "better")
    check("unresolved", verdict(wide, [1.0, 2.0, 3.0, 3.5, 7.0], "lower",
                                0.25), "unresolved")
    check("every change run better resolves",
          verdict(wide, [1.0, 2.0, 3.0, 3.5, 4.0], "lower", 0.25), "better")
    # Medians 8.5 vs 12 clear the IQR of 3, but the change wins 4 of 5.
    one_loss = [7.0, 8.0, 8.5, 9.0, 15.0]
    check("clears the IQR with too few wins",
          verdict(parent, one_loss, "lower"), "too few wins")
    check("too few wins inside a bound",
          verdict(parent, one_loss, "lower", 0.3), "too few wins")
    check("too few wins is still worse the other way",
          verdict(parent, one_loss, "higher"), "worse")
    # Ten pairs: 9 wins and a tie read better, 8 wins do not.
    parent10 = [float(v) for v in range(10, 20)]
    nine = [v - 8.0 for v in parent10[:9]] + [parent10[9]]
    check("9 of 10 wins, one tie", wins(parent10, nine, "lower"), (9, 0))
    check("9 of 10 wins", verdict(parent10, nine, "lower"), "better")
    eight = [v - 8.0 for v in parent10[:8]] + [parent10[8], parent10[9] + 1]
    check("8 of 10 wins", verdict(parent10, eight, "lower"), "too few wins")
    check("worse than bound beats unresolved",
          verdict(wide, [14.0, 15.0, 16.0, 17.0, 18.0], "lower", 0.25),
          "worse than bound")
    runs = []
    for pair, (p, c) in enumerate(zip(parent, faster)):
        for side, value in (("parent", p), ("change", c)):
            runs.append({"pair": pair, "side": side, "workload": "w",
                         "result": {"correct": True, "attempted": 10,
                                    "failed": int(pair == 0 and
                                                  side == "change"),
                                    "metrics": {
                                        "latency_p50_s": {"value": value,
                                                          "unit": "s"},
                                        "unknown": {"value": 1.0,
                                                    "unit": "1"}}}})
    runs.append({"pair": 5, "side": "parent", "workload": "w",
                 "result": None})
    summary = summarize(runs, "w", {"latency_p50_s": ("lower", 0.3)})
    check("incomplete pair dropped", summary["counts"]["parent"]["runs"], 5)
    check("failed counted", summary["counts"]["change"]["failed"], 1)
    check("correct counted", summary["counts"]["change"]["correct"], 5)
    check("metrics without a direction skipped",
          [m["name"] for m in summary["metrics"]], ["latency_p50_s"])
    row = summary["metrics"][0]
    check("summary wins", (row["change_wins"], row["pairs"]), (5, 5))
    check("summary verdict", row["verdict"], "better")
    check("format", "5/5" in format_summary(summary), True)
    check("format bound", "bound 0.3" in format_summary(summary), True)
    check("a rate is higher-is-better", bench_direction("backprojections/s"),
          "higher")
    check("a time is lower-is-better", bench_direction("s"), "lower")
    document = json.loads("""{
      "schema": "sarbp.bench.v1", "bench": "b", "host": "h",
      "warmup": 1, "repeat": 5,
      "results": [
        {"name": "fly", "params": {"isa": "x"}, "unit": "backprojections/s",
         "median": 10.0, "q1": 9.0, "q3": 11.0, "iqr": 2.0},
        {"name": "time", "params": {}, "unit": "s",
         "median": 2.0, "q1": 1.0, "q3": 3.0, "iqr": 2.0},
        {"name": "dup", "params": {"n": "1"}, "unit": "s",
         "median": 1.0, "q1": 1.0, "q3": 1.0, "iqr": 0.0},
        {"name": "dup", "params": {"n": "2"}, "unit": "s",
         "median": 2.0, "q1": 2.0, "q3": 2.0, "iqr": 0.0}]}""")
    check("bench rows", bench_rows(document),
          {"fly": ("backprojections/s", 10.0), "time": ("s", 2.0),
           "dup n=1": ("s", 1.0), "dup n=2": ("s", 2.0)})
    try:
        bench_rows({"schema": "other", "results": []})
        check("a foreign schema is refused", False, True)
    except ValueError:
        pass
    bench_runs = []
    for pair in range(10):
        for side, scale in (("parent", 1.0), ("change", 1.5)):
            doc = json.loads(json.dumps(document))
            rows = doc["results"]
            # The change's rate is 1.5x and its time 1.5x: one better, one
            # worse; "dup" rows tie in every pair.
            rows[0]["median"] = scale * (10.0 + pair)
            rows[1]["median"] = scale * (2.0 + 0.1 * pair)
            bench_runs.append({"pair": pair, "side": side, "exit": 0,
                               "result": doc})
    bench_runs.append({"pair": 10, "side": "parent", "exit": 0,
                       "result": document})
    bench_runs.append({"pair": 10, "side": "change", "exit": 1,
                       "result": None})
    bench_summary = summarize_bench(bench_runs)
    check("bench failures counted",
          (bench_summary["counts"]["change"]["failed"],
           bench_summary["counts"]["parent"]["runs"]), (1, 11))
    verdicts = {m["name"]: (m["better"], m["change_wins"], m["verdict"])
                for m in bench_summary["metrics"]}
    check("bench verdicts", verdicts,
          {"fly": ("higher", 10, "better"), "time": ("lower", 0, "worse"),
           "dup n=1": ("lower", 0, "inside IQR"),
           "dup n=2": ("lower", 0, "inside IQR")})
    check("bench format",
          "10/10" in format_bench_summary("b", bench_summary), True)
    for failure in failures:
        print("ab_bench selftest: %s" % failure, file=sys.stderr)
    print("ab_bench selftest: %d checks failed" % len(failures))
    return 1 if failures else 0


def main():
    bench = benchmark()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", nargs="?")
    parser.add_argument("change", nargs="?")
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--bench", help="a sarbp.bench.v1 bench target")
    parser.add_argument("--bench-args", default="",
                        help="the bench's arguments, one shell-quoted string")
    parser.add_argument("--cpu", type=int,
                        help="pin each bench run to this CPU (taskset -c)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if not (args.parent and args.change and args.out):
        parser.error("PARENT, CHANGE and --out are required")
    if bool(args.workload) == bool(args.bench):
        parser.error("give --workload or --bench, not both")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if args.bench:
        run_bench_pairs(args)
    else:
        run_pairs(args, bench)
    return 0


if __name__ == "__main__":
    sys.exit(main())
