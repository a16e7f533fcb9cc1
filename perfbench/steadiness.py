#!/usr/bin/env python3
"""Steadiness report for the benchmark in BENCHMARK.json.

Runs each workload several times, each run with another seed, and prints
per end-to-end metric the median, the quartiles (statistics.quantiles
with n=4) and the spread (q3 - q1) / median, next to the metric's bound.
A spread under a third of the bound is "steady"; under the bound,
"within bound"; above it, "TOO NOISY". Every metric, setup_s too, is
held to its bound. Also prints the drift diagnostics of every run:
steal ticks and the fixed integer loop before and after.

Run from the repository root:

    python3 perfbench/steadiness.py --runs 10 --out perfbench/STEADINESS.md
    python3 perfbench/steadiness.py --runs 5 --workloads validate-cold
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds):
    cmd = command + ["--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} failed op(s)\n{out.stderr}")
    env = next((json.loads(l[5:]) for l in lines if l.startswith("env: ")), {})
    ops = next((l[5:] for l in lines if l.startswith("ops: ")), "")
    ops += "; " + next((l for l in lines if l.startswith("latency ms ")), "")
    return result, env, ops


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None,
                    help="run length (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--workloads", default=None, help="comma-separated subset")
    ap.add_argument("--out", default=None, help="also write the report here")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    metrics = bench["end_to_end"]

    table = ["| workload | metric | median | q1 | q3 | spread | bound | verdict |",
             "|---|---|---|---|---|---|---|---|"]
    drift = ["| workload | seed | steal ticks | int loop ms (start, end) | ops |",
             "|---|---|---|---|---|"]
    env0 = {}
    for w in workloads:
        values = {m["name"]: [] for m in metrics}
        for i in range(args.runs):
            seed = args.seed_base + i
            result, env, ops = run_once(bench["command"], w, seed, seconds)
            env0 = env0 or env
            for m in metrics:
                values[m["name"]].append(result["metrics"][m["name"]]["value"])
            loop = ", ".join(f"{x:.1f}" for x in env.get("int_loop_ms", []))
            drift.append(f"| {w} | {seed} | {env.get('steal_ticks', '?')} | {loop} | {ops} |")
            print(f"{w} seed {seed}: " + ", ".join(
                f"{k} {v[-1]:.4g}" for k, v in values.items()), file=sys.stderr)
        for m in metrics:
            v = values[m["name"]]
            q1, _, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q3 - q1) / med if med else float("inf")
            if spread <= m["bound"] / 3:
                verdict = "steady"
            elif spread <= m["bound"]:
                verdict = "within bound"
            else:
                verdict = "TOO NOISY"
            table.append(f"| {w} | {m['name']} | {med:.5g} | {q1:.5g} | {q3:.5g} "
                         f"| {spread:.4f} | {m['bound']} | {verdict} |")

    report = "\n".join([
        f"{args.runs} runs per workload, seeds {args.seed_base}..{args.seed_base + args.runs - 1}, "
        f"{seconds} s each; nproc {env0.get('nproc')}, workers {env0.get('workers')}, "
        f"{env0.get('profile')} build, rev {env0.get('git_rev')}.",
        "",
        *table,
        "",
        "Drift diagnostics per run:",
        "",
        *drift,
        "",
    ])
    print(report)
    if args.out:
        with open(args.out, "w") as f:
            f.write(report)


if __name__ == "__main__":
    main()
