#!/usr/bin/env python3
"""Records sets of benchmark runs and compares two of them.

    # ten runs of every workload, seeds 1..10, appended to base.jsonl
    python3 perfbench/compare.py record base.jsonl --seeds 1-10
    # the same on the change
    python3 perfbench/compare.py record change.jsonl --seeds 1-10
    # one set: per workload and metric, median, quartiles and spread
    python3 perfbench/compare.py summary base.jsonl
    # two sets: both medians and quartiles, and a verdict per metric
    python3 perfbench/compare.py diff base.jsonl change.jsonl

A set of runs is a JSON-lines file, one line per run:
    {"workload": ..., "seed": ..., "trace": 0|1, "result": {...}}
where "result" is the last stdout line of perfbench/run.py.

Verdicts (bounds from BENCHMARK.json, as a share of the first median):
    better      the second median is better by more than the bound
    same        the difference is inside the bound
    WORSE       the second median is worse by more than the bound
    unresolved  the spread of either set (interquartile range over median)
                is wider than the bound, so a difference inside it shows
                nothing; reported unless every run of the second set beats
                every run of the first
Metrics without a bound (per-layer) get no verdict, only the figures.
The exit code is 1 when any metric is WORSE, when the two sets' shares of
failed operations differ, or when a run reported a wrong answer.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def record(args):
    bench = load_bench()
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    status = 0
    with open(args.out, "a") as out:
        for seed in parse_seeds(args.seeds):
            for workload in workloads:
                cmd = [sys.executable, os.path.join(HERE, "run.py"),
                       "--workload", workload, "--seed", str(seed),
                       "--seconds", str(seconds), "--trace", str(args.trace)]
                proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                      text=True)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    print("%s seed %d: exit %d" % (workload, seed,
                                                   proc.returncode),
                          file=sys.stderr)
                    status = 1
                    continue
                line = {"workload": workload, "seed": seed,
                        "trace": args.trace, "result": json.loads(lines[-1])}
                out.write(json.dumps(line) + "\n")
                out.flush()
                print("%s seed %d: done" % (workload, seed), file=sys.stderr)
    return status


def load_runs(path):
    """workload -> list of run results (untraced and traced alike)."""
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                run = json.loads(line)
                runs.setdefault(run["workload"], []).append(run["result"])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def metric_table(runs):
    """metric name -> (unit, values) over one workload's runs."""
    table = {}
    for result in runs:
        for name, m in result["metrics"].items():
            unit, values = table.setdefault(name, (m["unit"], []))
            values.append(m["value"])
    return table


def failed_share(runs):
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    return failed / attempted if attempted else 0.0


def bounds_by_name(bench):
    return {m["name"]: m for m in bench["end_to_end"]}


def summary(args):
    bench = load_bench()
    bounds = bounds_by_name(bench)
    status = 0
    for workload, runs in sorted(load_runs(args.runs).items()):
        wrong = sum(1 for r in runs if not r["correct"])
        status |= 1 if wrong else 0
        print("%s: %d runs, failed share %.6f, %d wrong" %
              (workload, len(runs), failed_share(runs), wrong))
        print("  %-28s %12s %12s %12s %8s %8s" %
              ("metric", "q1", "median", "q3", "spread", "bound"))
        for name, (unit, values) in sorted(metric_table(runs).items()):
            q1, med, q3 = quartiles(values)
            bound = bounds.get(name, {}).get("bound")
            flag = ""
            if bound is not None and name != "setup_s" and \
                    spread(values) > bound:
                flag = "  SPREAD > BOUND"
            print("  %-28s %12.5g %12.5g %12.5g %7.1f%% %8s%s" %
                  (name + " (" + unit + ")", q1, med, q3,
                   100 * spread(values),
                   "" if bound is None else "%.0f%%" % (100 * bound), flag))
    return status


def verdict(spec, a, b):
    bound = spec["bound"]
    lower = spec["better"] == "lower"
    ma, mb = statistics.median(a), statistics.median(b)
    change = (mb - ma) / ma if ma else 0.0
    worse = change > bound if lower else change < -bound
    better = change < -bound if lower else change > bound
    if max(spread(a), spread(b)) > bound:
        wins = all(y < x for x in a for y in b) if lower else \
            all(y > x for x in a for y in b)
        return "better" if wins else "unresolved"
    if worse:
        return "WORSE"
    return "better" if better else "same"


def diff(args):
    bench = load_bench()
    bounds = bounds_by_name(bench)
    first, second = load_runs(args.first), load_runs(args.second)
    status = 0
    for workload in sorted(set(first) | set(second)):
        a_runs, b_runs = first.get(workload, []), second.get(workload, [])
        if not a_runs or not b_runs:
            print("%s: only in one set" % workload)
            continue
        fa, fb = failed_share(a_runs), failed_share(b_runs)
        wrong = sum(1 for r in a_runs + b_runs if not r["correct"])
        print("%s: %d vs %d runs, failed share %.6f vs %.6f%s%s" %
              (workload, len(a_runs), len(b_runs), fa, fb,
               "  FAILED SHARE DIFFERS" if fa != fb else "",
               "  %d WRONG" % wrong if wrong else ""))
        if fa != fb or wrong:
            status = 1
        ta, tb = metric_table(a_runs), metric_table(b_runs)
        print("  %-28s %25s %25s %8s  %s" %
              ("metric", "first q1/med/q3", "second q1/med/q3", "change",
               "verdict"))
        for name in sorted(set(ta) & set(tb)):
            unit, a = ta[name]
            _, b = tb[name]
            qa, qb = quartiles(a), quartiles(b)
            change = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
            v = verdict(bounds[name], a, b) if name in bounds else ""
            if v == "WORSE":
                status = 1
            print("  %-28s %8.4g/%7.4g/%8.4g %8.4g/%7.4g/%8.4g %+7.1f%%  %s" %
                  (name + " (" + unit + ")", qa[0], qa[1], qa[2], qb[0], qb[1],
                   qb[2], 100 * change, v))
    return status


def main(argv):
    parser = argparse.ArgumentParser(prog="perfbench/compare.py",
                                     description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record", help="run workloads, append to a set")
    rec.add_argument("out")
    rec.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    rec.add_argument("--workloads", help="comma list (default: all)")
    rec.add_argument("--seconds", type=int, help="default: run_seconds")
    rec.add_argument("--trace", type=int, choices=[0, 1], default=0)
    rec.set_defaults(fn=record)
    summ = sub.add_parser("summary", help="medians and spreads of one set")
    summ.add_argument("runs")
    summ.set_defaults(fn=summary)
    dif = sub.add_parser("diff", help="compare two sets")
    dif.add_argument("first")
    dif.add_argument("second")
    dif.set_defaults(fn=diff)
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
