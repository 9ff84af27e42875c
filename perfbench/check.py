#!/usr/bin/env python3
"""Checks on the benchmark itself, run from the repository root.

  python3 perfbench/check.py steady [--runs N] [--workloads a,b] [--trace 0|1] [--out FILE]
      Runs each workload N times with seeds 1..N and prints, for every
      metric, the median, the quartiles and the spread (q3 - q1) / median,
      beside the metric's bound from BENCHMARK.json.
  python3 perfbench/check.py compare FIRST.json SECOND.json
      Compares two saved `steady` sets: for every end-to-end metric, how far
      the second median moved from the first, against the bound.
  python3 perfbench/check.py repeat [--workloads a,b] [--seed S]
      Runs the traced run twice with one seed and checks that every count
      (`count.*`, and the per-layer metrics with unit `count`) repeats
      exactly; counts that differ are listed and must not back a claim.
  python3 perfbench/check.py selftest [--workloads a,b]
      Runs each workload with one reference answer falsified and checks
      that the run reports a failure and exits non-zero.
"""

import argparse
import json
import statistics
import subprocess
import sys

WORKLOADS = ["pl0_verdict", "python_forest", "scaling", "serve_mixed"]


def bench():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def check_names(result, trace, where):
    """Every run must print exactly the metrics BENCHMARK.json lists."""
    want = {m["name"] for m in bench()["end_to_end" if trace == 0 else "per_layer"]}
    got = set(result["metrics"])
    if got != want:
        sys.exit(f"{where}: metrics differ from BENCHMARK.json: "
                 f"missing {sorted(want - got)}, extra {sorted(got - want)}")


def run(workload, seed, trace, extra=()):
    b = bench()
    cmd = b["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(b["run_seconds"]),
        "--trace", str(trace),
        *extra,
    ]
    p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return p.returncode, result, p.stdout


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def steady(args):
    b = bench()
    key = "end_to_end" if args.trace == 0 else "per_layer"
    bounds = {m["name"]: m.get("bound") for m in b[key]}
    saved = {}
    for w in args.workloads:
        values = {}
        for seed in range(1, args.runs + 1):
            code, result, out = run(w, seed, args.trace)
            if code != 0 or result is None or not result["correct"]:
                print(out)
                sys.exit(f"{w} seed {seed}: run failed (exit {code})")
            check_names(result, args.trace, f"{w} seed {seed}")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        saved[w] = values
        print(f"\n{w}: {args.runs} runs")
        print(f"  {'metric':<28} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}  spread/bound")
        for name, vs in values.items():
            med, q1, q3, s = spread(vs)
            bound = bounds.get(name)
            ratio = f"{s / bound:8.3f}" if bound else "       -"
            flag = "" if not bound or s < bound / 3 else ("  above a third" if s <= bound else "  ABOVE BOUND")
            print(f"  {name:<28} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {s:>8.4f} {bound or '-':>6}  {ratio}{flag}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(saved, f)


def compare(args):
    b = bench()
    bounds = {m["name"]: (m["bound"], m["better"]) for m in b["end_to_end"]}
    first, second = (json.load(open(p)) for p in (args.first, args.second))
    worst = 0.0
    for w in first:
        print(f"\n{w}")
        for name, (bound, better) in bounds.items():
            a, c = statistics.median(first[w][name]), statistics.median(second[w][name])
            worse = (c - a) / a if better == "lower" else (a - c) / a
            worst = max(worst, worse / bound)
            flag = "  WORSE THAN BOUND" if worse > bound else ""
            print(f"  {name:<28} {a:>14.6g} -> {c:>14.6g}  worse by {worse:+.4f} (bound {bound}){flag}")
    print(f"\nlargest move as a share of its bound: {worst:.3f}")


def repeat(args):
    bad = False
    for w in args.workloads:
        runs = [run(w, args.seed, 1) for _ in range(2)]
        for code, result, out in runs:
            if code != 0 or result is None:
                print(out)
                sys.exit(f"{w}: traced run failed (exit {code})")
            check_names(result, 1, f"{w} traced")
        a, b = (r[1]["metrics"] for r in runs)
        counts = [n for n, m in a.items() if m["unit"] == "count"]
        differ = [n for n in counts if a[n]["value"] != b[n]["value"]]
        print(f"{w}: {len(counts) - len(differ)} of {len(counts)} counts repeat exactly")
        for n in differ:
            print(f"  DOES NOT REPEAT: {n} {a[n]['value']} vs {b[n]['value']}")
        bad |= bool(differ)
    if bad:
        print("Counts that do not repeat must not back a claim.")


def selftest(args):
    ok = True
    for w in args.workloads:
        code, result, out = run(w, 1, 0, ["--corrupt-reference"])
        caught = code != 0 and result is not None and result["failed"] > 0 and not result["correct"]
        frac = result["failed"] / result["attempted"] if result else float("nan")
        print(f"{w}: exit {code}, failed_frac {frac:.6f} -> {'caught' if caught else 'NOT CAUGHT'}")
        ok &= caught
    sys.exit(0 if ok else 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    s = sub.add_parser("steady")
    s.add_argument("--runs", type=int, default=10)
    s.add_argument("--trace", type=int, default=0)
    s.add_argument("--out")
    c = sub.add_parser("compare")
    c.add_argument("first")
    c.add_argument("second")
    r = sub.add_parser("repeat")
    r.add_argument("--seed", type=int, default=1)
    t = sub.add_parser("selftest")
    for p in (s, r, t):
        p.add_argument("--workloads", type=lambda v: v.split(","), default=WORKLOADS)
    args = ap.parse_args()
    {"steady": steady, "compare": compare, "repeat": repeat, "selftest": selftest}[args.cmd](args)


if __name__ == "__main__":
    main()
