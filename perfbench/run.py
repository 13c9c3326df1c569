#!/usr/bin/env python3
"""The repository's benchmark entry point.  Run from the repository root.

One measurement (what BENCHMARK.json's command runs):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

builds perfbench/ledger.exe from source with dune, then replaces itself
with it.  The last line of stdout is the JSON result.

Repeated runs with spread, and the comparison of two such sets:

    python3 perfbench/run.py --repeat N [--workloads a,b] [--seconds S]
                             [--trace 0|1] [--out FILE]
    python3 perfbench/run.py --compare PARENT.json CHANGE.json

--repeat runs every workload N times (seeds 1..N) as fresh processes,
rotating the workload order between repeats, prints each metric's
median, quartiles, spread and sample count, and writes the samples to
FILE (default _build/perfbench/repeat.json).  --compare renders the
old/new/diff/diff% table for every workload and metric of two such
files, with a verdict from the bounds in BENCHMARK.json.

    python3 perfbench/run.py --record     regenerate perfbench/corpus
    python3 perfbench/run.py --smoke      every workload, 2 s, both modes
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "ledger.exe")
OUT_DIR = os.path.join("_build", "perfbench")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    """Build the ledger from the checkout's sources; stdout stays clean."""
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(need):
            fail("%s not found: run from the root of a full checkout" % need)
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        proc = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/ledger.exe"],
            stdout=sys.stderr, env=env)
    except FileNotFoundError:
        fail("dune not found on PATH")
    if proc.returncode != 0:
        fail("build failed (dune exit %d)" % proc.returncode)


def definition():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace):
    """One measurement as a child process: (result, stdout)."""
    proc = subprocess.run(
        [EXE, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("%s seed %d printed no result (exit %d)"
             % (workload, seed, proc.returncode))
    return result, proc.stdout


def spread(values):
    """(q1, median, q3) as statistics.quantiles gives them, and IQR/median."""
    if len(values) < 2:
        v = values[0]
        return v, v, v, 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, ((q3 - q1) / med if med else 0.0)


def repeat(args, bench):
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = [n for n in args.workloads.split(",") if n]
    seconds = args.seconds or bench["run_seconds"]
    samples = {n: {} for n in names}
    checks = {n: {"correct": True, "failed": 0, "attempted": 0,
                  "contended_reruns": 0} for n in names}
    for i in range(args.repeat):
        seed = i + 1
        rotated = names[i % len(names):] + names[:i % len(names)]
        for name in rotated:
            result, stdout = run_once(name, seed, seconds, args.trace)
            v = checks[name]
            v["correct"] = v["correct"] and result["correct"]
            v["failed"] += result["failed"]
            v["attempted"] += result["attempted"]
            v["contended_reruns"] += stdout.count("(contended, re-run)")
            for metric, m in result["metrics"].items():
                samples[name].setdefault(metric, []).append(m["value"])
            print("%-18s seed %-3d correct=%s attempted=%d failed=%d"
                  % (name, seed, result["correct"], result["attempted"],
                     result["failed"]), file=sys.stderr)
    bounds = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    print("%-18s %-32s %-6s %14s %14s %14s %8s %7s %3s"
          % ("workload", "metric", "unit", "median", "q1", "q3", "iqr%",
             "bound%", "n"))
    for name in names:
        for metric, values in samples[name].items():
            q1, med, q3, rel = spread(values)
            d = bounds.get(metric, {})
            bound = "%.1f" % (100 * d["bound"]) if "bound" in d else "-"
            print("%-18s %-32s %-6s %14.4f %14.4f %14.4f %8.2f %7s %3d"
                  % (name, metric, d.get("unit", ""), med, q1, q3, 100 * rel,
                     bound, len(values)))
        v = checks[name]
        print("%-18s correct=%s attempted=%d failed=%d contended re-runs=%d"
              % (name, v["correct"], v["attempted"], v["failed"],
                 v["contended_reruns"]))
    out = args.out or os.path.join(OUT_DIR, "repeat.json")
    os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
    with open(out, "w") as f:
        json.dump({"seconds": seconds, "trace": args.trace,
                   "checks": checks, "samples": samples}, f, indent=1)
    print("wrote " + out)
    return all(v["correct"] for v in checks.values())


def verdict(old, new, better, bound):
    """better / worse / unchanged / unresolved.  A gain needs a 9-in-10
    win over the same-seed pairs and a median shift beyond the parent's
    own IQR; a regression is a median worse by more than the bound; a
    spread wider than the bound leaves the metric unresolved unless every
    run of one side beats every run of the other."""
    sign = 1 if better == "higher" else -1
    q1o, mo, q3o, _ = spread(old)
    q1n, mn, q3n, _ = spread(new)
    if mo == 0:
        return "unchanged" if mn == 0 else "unresolved"
    rel = sign * (mn - mo) / mo
    if max(q3o - q1o, q3n - q1n) / abs(mo) > bound:
        if all(sign * n > sign * o for n in new for o in old):
            return "better"
        if all(sign * n < sign * o for n in new for o in old):
            return "worse"
        return "unresolved"
    if rel < -bound:
        return "worse"
    pairs = list(zip(old, new))
    wins = sum(1 for o, n in pairs if sign * (n - o) > 0)
    if rel > 0 and abs(mn - mo) > (q3o - q1o) and wins >= 0.9 * len(pairs):
        return "better"
    return "unchanged"


def compare(parent_path, change_path, bench):
    with open(parent_path) as f:
        parent = json.load(f)
    with open(change_path) as f:
        change = json.load(f)
    defs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    print("%-18s %-32s %14s %14s %14s %8s %8s %8s %-10s"
          % ("workload", "metric", "old", "new", "diff", "diff%", "old iqr%",
             "new iqr%", "verdict"))
    worse = False
    for workload, metrics in parent["samples"].items():
        for metric, old in metrics.items():
            new = change["samples"].get(workload, {}).get(metric)
            if not new:
                continue
            d = defs.get(metric, {"better": "higher"})
            bound = d.get("bound")
            _, mo, _, so = spread(old)
            _, mn, _, sn = spread(new)
            v = verdict(old, new, d["better"], bound) if bound is not None else "-"
            worse = worse or v == "worse"
            pct = 100 * (mn - mo) / mo if mo else 0.0
            print("%-18s %-32s %14.4f %14.4f %14.4f %8.2f %8.2f %8.2f %-10s"
                  % (workload, metric, mo, mn, mn - mo, pct, 100 * so,
                     100 * sn, v))
    for workload, c in change.get("checks", {}).items():
        if not c["correct"]:
            worse = True
            print("%s: output checks failed (%d of %d operations)"
                  % (workload, c["failed"], c["attempted"]))
    return not worse


def smoke(bench):
    """Every workload in both modes at a 2 s budget: each run must pass
    its output checks and print every metric BENCHMARK.json names."""
    ok = True
    for w in bench["workloads"]:
        for trace, defs in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            result, _ = run_once(w["name"], 1, 2, trace)
            missing = [m["name"] for m in defs
                       if m["name"] not in result["metrics"]]
            good = result["correct"] and not missing
            ok = ok and good
            print("%-18s trace=%d correct=%s missing=%s"
                  % (w["name"], trace, result["correct"], missing or "none"))
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int)
    ap.add_argument("--workloads")
    ap.add_argument("--out")
    ap.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    ap.add_argument("--record", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if args.compare:
        sys.exit(0 if compare(*args.compare, definition()) else 1)
    build()
    if args.record:
        os.execv(EXE, [EXE, "--record"])
    if args.smoke:
        sys.exit(0 if smoke(definition()) else 1)
    if args.repeat:
        sys.exit(0 if repeat(args, definition()) else 1)
    if not args.workload:
        ap.error("--workload is required")
    sys.stdout.flush()
    os.execv(EXE, [EXE, "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds or 10),
                   "--trace", str(args.trace)])


if __name__ == "__main__":
    main()
