#!/usr/bin/env python3
"""Steadiness report for perfbench: measured spread next to each bound.

Runs `perfbench/run.py --trace 0` --runs times on every workload of
BENCHMARK.json, with seeds 1, 2, ..., rotating the workload order every
round. For every
end-to-end metric and workload it prints the median of the per-run values,
the spread (q3 - q1) / median with quartiles from
statistics.quantiles(n=4), and the metric's bound from BENCHMARK.json:

  steady     spread below a third of the bound
  within     spread below the bound
  unsteady   spread at or above the bound (setup_s is held to its bound
             only through the median comparison below)

With --compare OLD.json (a report this script wrote earlier) it also
compares medians and marks each pairing:

  unchanged  |median change| within the bound and the spread resolves it
  better / worse   median moved by more than the bound
  unresolved the spread of either side is at or above the bound, so a
             change within it cannot be told from noise

The report is written to .bench_build/steadiness.json; copy it away to
compare a later set against it.

Usage (from the repository root):
  python3 perfbench/steadiness.py [--runs 10] [--compare OLD.json]
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED_BASE = 1
REPORT = ROOT / ".bench_build" / "steadiness.json"


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else float("inf")


def run_once(workload, seed, seconds):
    t0 = time.monotonic()
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, cwd=ROOT)
    took = time.monotonic() - t0
    if out.returncode != 0:
        sys.exit(f"steadiness: {workload} seed {seed} exited "
                 f"{out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1]), took


def verdict(metric, s, bound):
    if s < bound / 3:
        return "steady"
    if s < bound:
        return "within"
    return "unsteady (setup: median only)" if metric == "setup_s" \
        else "unsteady"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--compare", default="")
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}

    values = {w: {m: [] for m in bounds} for w in names}
    took = {w: [] for w in names}
    failed = {w: 0 for w in names}
    for i in range(args.runs):
        seed = SEED_BASE + i
        order = names[i % len(names):] + names[:i % len(names)]
        for w in order:
            res, t = run_once(w, seed, bench["run_seconds"])
            took[w].append(t)
            failed[w] += 0 if res["correct"] else 1
            for m in bounds:
                values[w][m].append(res["metrics"][m]["value"])
            print(f"run {i + 1}/{args.runs} {w} seed {seed}: {t:.1f} s, "
                  f"correct={res['correct']}", file=sys.stderr, flush=True)

    old = json.loads(Path(args.compare).read_text()) if args.compare else None
    report = {"runs": args.runs, "seed_base": SEED_BASE, "workloads": {}}
    print(f"{'workload':<20} {'metric':<14} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>8} {'bound':>6}  verdict")
    for w in names:
        rows = {}
        for m, bound in bounds.items():
            q1, med, q3, s = spread(values[w][m])
            rows[m] = {"median": med, "q1": q1, "q3": q3, "spread": s,
                       "bound": bound, "n": len(values[w][m]),
                       "values": values[w][m]}
            line = (f"{w:<20} {m:<14} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                    f"{s:>8.4f} {bound:>6}  {verdict(m, s, bound)}")
            if old and w in old["workloads"]:
                o = old["workloads"][w][m]
                change = (med - o["median"]) / o["median"]
                worse = change > 0 if better[m] == "lower" else change < 0
                if max(s, o["spread"]) >= bound:
                    tag = "unresolved"
                elif abs(change) <= bound:
                    tag = "unchanged"
                else:
                    tag = "worse" if worse else "better"
                rows[m]["change_vs_old"] = change
                line += f"  vs old {change:+.4f} {tag}"
            print(line)
        report["workloads"][w] = rows
        report["workloads"][w]["_runs"] = {
            "failed_runs": failed[w], "max_run_s": max(took[w]),
            "mean_run_s": statistics.fmean(took[w])}
        print(f"{w:<20} runs took {statistics.fmean(took[w]):.1f} s on "
              f"average, {max(took[w]):.1f} s at most; "
              f"{failed[w]} failed a check")
    REPORT.parent.mkdir(parents=True, exist_ok=True)
    REPORT.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {REPORT}")


if __name__ == "__main__":
    main()
