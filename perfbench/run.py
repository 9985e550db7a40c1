#!/usr/bin/env python3
"""The repository benchmark: four batch workloads, end to end and per layer.

Usage (from the repository root):

  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --workload all [--seconds S] [--seed N]

Workloads (see perfbench/README.md for why each exists):
  paper_n60            Reno/RED, N=60, 200 s simulated, sequential, untraced
  meanfield_n10k_lp2   N=10^4 mean-field Reno/RED on 2 logical processes
  traced_n60_lp2       burstsim --transport=reno --queue=red --clients=60
                       --duration=20 --lp=2 --trace-out=...
  campaign_paper       cold burstcamp paper campaign on 2 workers, then a
                       warm rerun from the cache it filled

--trace 0 repeats the workload, one fresh process per repetition, until
--seconds have passed, checks every output and prints the end-to-end
metrics (median over repetitions). --trace 1 runs the layer probes and
profiled runs and prints the per-layer metrics. Either way the last line
of standard output is one JSON object:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--workload all runs every workload in rounds, rotating the order each
round, then one profiled pass per workload, and prints the five
end-to-end metrics per workload and the per-layer table.

The first call configures and builds perfbench/ (the simulator library
plus perfbench_driver) into $CARGO_TARGET_DIR, default .bench_build.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["paper_n60", "meanfield_n10k_lp2", "traced_n60_lp2",
             "campaign_paper"]
# Repetitions a --trace 0 run takes at least, whatever --seconds says.
MIN_REPS = {"paper_n60": 5, "meanfield_n10k_lp2": 4, "traced_n60_lp2": 4,
            "campaign_paper": 4}
# A repetition takes seconds; a hung one must not outlast the run's limit.
REP_TIMEOUT_S = 60


# ---- build -----------------------------------------------------------------

def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build():
    """Configures (once) and builds perfbench_driver; returns its path."""
    bdir = build_dir() / "perfbench"
    bdir.mkdir(parents=True, exist_ok=True)
    logf = bdir / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (bdir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir)])
    steps.append(["cmake", "--build", str(bdir), "--target",
                  "perfbench_driver", "-j", jobs])
    with open(logf, "w") as out:
        for cmd in steps:
            rc = subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT)
            if rc != 0:
                out.flush()
                tail = logf.read_text(errors="replace").splitlines()[-20:]
                print("perfbench: build failed:\n" + "\n".join(tail),
                      file=sys.stderr)
                # A half-made configuration would poison the next call.
                if not (bdir / "perfbench_driver").exists():
                    shutil.rmtree(bdir, ignore_errors=True)
                sys.exit(1)
    return bdir / "perfbench_driver"


# ---- statistics ------------------------------------------------------------

def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def median(values):
    return statistics.median(values) if values else 0.0


# ---- one repetition --------------------------------------------------------

def call_driver(driver, args):
    out = subprocess.run([str(driver)] + args, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True,
                         timeout=REP_TIMEOUT_S, cwd=ROOT)
    if out.returncode != 0:
        raise RuntimeError(f"perfbench_driver {' '.join(args)} exited "
                           f"{out.returncode}: {out.stderr.strip()[-400:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


# ---- output checks ---------------------------------------------------------

def load_json(name):
    return json.loads((HERE / name).read_text())


def same_tree(a, b):
    """True when directories a and b hold byte-identical CSV artifacts."""
    fa = sorted(p.name for p in Path(a).glob("*.csv"))
    fb = sorted(p.name for p in Path(b).glob("*.csv"))
    if not fa or fa != fb:
        return False
    return all((Path(a) / n).read_bytes() == (Path(b) / n).read_bytes()
               for n in fa)


def check(workload, seed, r, pins, lp):
    """Returns the list of failed output checks for one repetition run on
    @lp logical processes (None: the workload's own count)."""
    bad = []

    def need(ok, what):
        if not ok:
            bad.append(what)

    if workload == "campaign_paper":
        for k, v in pins["campaign_counts"].items():
            need(r[k] == v, f"{k} = {r[k]}, expected {v}")
        need(r["events"] > 0, "no events simulated")
        need(r["csv_identical"], "warm CSVs differ from cold CSVs")
    else:
        need(r["routing_errors"] == 0, f"routing_errors = {r['routing_errors']}")
        need(r["gw_arrivals"] == r["gw_departures"] + r["gw_drops"]
             + r["gw_backlog"], "queue arrivals != departures + drops + backlog")
        need(r["events"] > 0 and r["delivered"] > 0, "nothing simulated")
        need(0.0 < r["cov"] < 10.0, f"c.o.v. {r['cov']} out of range")
        if lp is None:
            lp = 1 if workload == "paper_n60" else 2
        need(r["shards"] == lp, f"ran on {r['shards']} LPs, asked {lp}")
    if workload == "meanfield_n10k_lp2":
        drop = r["gw_drops"] / max(r["gw_arrivals"], 1)
        lim = pins["meanfield_max_drop_frac"]
        need(drop <= lim, f"drop fraction {drop:.3f} > {lim}: not the "
             "mean-field scaled regime")
        per_flow = r["arena_bytes"] / max(r["flows"], 1)
        need(per_flow <= pins["arena_budget_bytes_per_flow"],
             f"arena {per_flow:.0f} B/flow over budget")
    if workload == "traced_n60_lp2":
        need(r["twin_events"] == r["events"],
             "traced event count != untraced event count")
        need(r["twin_delivered"] == r["delivered"],
             "traced delivered != untraced delivered")
        need(r["trace_held"] == r["trace_records"], "trace ring overwrote")
        need(r["jsonl_lines"] == r["trace_held"],
             f"JSONL has {r['jsonl_lines']} lines for {r['trace_held']} "
             "records")
        need(r["export_bytes"] > 0, "trace export failed")
    if seed == pins["default_seed"]:
        for k, v in pins["at_default_seed"][workload].items():
            need(r[k] == v, f"{k} = {r[k]}, pinned {v} at seed {seed}")
    return bad


def run_checked(driver, workload, seed, work, pins, extra=()):
    """One repetition in a fresh process and a fresh work directory, plus
    its checks: (result or None, failures)."""
    shutil.rmtree(work, ignore_errors=True)
    try:
        r = call_driver(driver, ["run", workload, f"--seed={seed}",
                                 f"--work={work}", *extra])
        if workload == "campaign_paper":
            r["csv_identical"] = same_tree(Path(work) / "cold",
                                           Path(work) / "warm")
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
        return None, [str(e)]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lp = next((int(a[5:]) for a in extra if a.startswith("--lp=")), None)
    return r, check(workload, seed, r, pins, lp)


# ---- end-to-end (--trace 0) ------------------------------------------------

def units(entries):
    """{metric name: unit} of BENCHMARK.json's end_to_end or per_layer."""
    return {m["name"]: m["unit"] for m in entries}


class E2E:
    """Accumulates one workload's repetitions."""

    def __init__(self, workload, unit):
        self.workload = workload
        self.unit = unit  # {metric: unit}, from BENCHMARK.json
        self.walls, self.setups, self.eps, self.rss = [], [], [], []
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def add(self, r, bad):
        self.attempted += 1
        if bad:
            self.failed += 1
            self.failures.extend(bad)
        if r is None:
            return
        self.walls.append(r["wall_s"])
        self.setups.extend(r["setup_samples"])
        self.eps.append(r["events"] / r["wall_s"])
        self.rss.append(r["peak_rss_mb"])

    def series(self):
        return {"wall_s": self.walls, "setup_s": self.setups,
                "events_per_s": self.eps, "peak_rss_mb": self.rss}

    def metrics(self):
        return {k: {"value": median(v), "unit": self.unit[k]}
                for k, v in self.series().items() if k in self.unit}

    def print_table(self):
        print(f"== {self.workload}: end-to-end (median [q1, q3] over n)")
        for k, v in self.series().items():
            if not v:
                continue
            q1, med, q3 = quartiles(v)
            print(f"  {k:<14} {med:>14.6g} {self.unit[k]:<4} "
                  f"[{q1:.6g}, {q3:.6g}]  n={len(v)}")
        frac = self.failed / max(self.attempted, 1)
        print(f"  {'failed_frac':<14} {frac:>14.6g} {'1':<4} "
              f"({self.failed} of {self.attempted} runs failed a check)")
        for f in sorted(set(self.failures)):
            print(f"    check failed: {f}")


def run_e2e(driver, workload, seed, seconds, work, pins, unit):
    """Repeats the workload until --seconds are used up: after MIN_REPS, a
    repetition starts only if one of median length still fits, so a run
    lasts --seconds, not up to one repetition more."""
    acc = E2E(workload, unit)
    t0 = time.monotonic()
    took = []
    while (acc.attempted < MIN_REPS[workload]
           or time.monotonic() - t0 + median(took) <= seconds):
        t = time.monotonic()
        r, bad = run_checked(driver, workload, seed, work, pins)
        took.append(time.monotonic() - t)
        acc.add(r, bad)
        if r is None:
            break  # a crashed driver will not heal on retry
    return acc


# ---- per layer (--trace 1) -------------------------------------------------

def probes(driver):
    """{per-layer metric: median} of the layer probes. They do not depend
    on the workload."""
    p = call_driver(driver, ["probes"])
    return {k: median(v) for k, v in p.items()}


def per_layer(driver, workload, seed, seconds, work, pins):
    """Profiled/unprofiled pairs and the workload's own run.

    Returns (metrics dict, attempted, failed, failures)."""
    t0 = time.monotonic()
    failures = []
    attempted = failed = 0

    def rep(extra):
        nonlocal attempted, failed
        attempted += 1
        r, bad = run_checked(driver, workload, seed, work, pins, extra)
        failed += 1 if bad else 0
        failures.extend(bad)
        return r

    # The profiler is per thread, so LP-sharded workloads are profiled at
    # lp1 (same scenario); their parallel.* numbers come from their own
    # lp2 run's LpStats.
    lp_flag = [] if workload in ("paper_n60", "campaign_paper") else ["--lp=1"]
    own = None
    if lp_flag:
        own = rep([])
    prof, plain = [], []
    k = 0
    while k < 1 or time.monotonic() - t0 < seconds:
        order = [True, False] if k % 2 == 0 else [False, True]
        for profiled in order:
            r = rep(lp_flag + (["--profile"] if profiled else []))
            if r is not None:
                (prof if profiled else plain).append(r)
        k += 1
        if not prof or not plain:
            break
    if own is None and plain:
        own = plain[0]
    m = {}
    if prof and plain and own is not None:
        m = layer_metrics(workload, prof, plain, own)
    return m, attempted, failed, failures


def pick(rs, key):
    return median([r[key] for r in rs])


def layer_metrics(workload, prof, plain, own):
    is_camp = workload == "campaign_paper"
    p0 = prof[0]
    events = p0["events"]
    run_key = "cold_sim_wall_s" if is_camp else "run_s"
    plain_run = pick(plain, run_key)
    prof_run = pick(prof, run_key)

    def phase_ns(name):
        return median([r[f"phase_{name}_s"] for r in prof]) * 1e9 / events

    m = {
        "sim.events": events,
        "sim.scheduled": 0 if is_camp else p0["scheduled"],
        "sim.peak_pending": p0["cold_peak_pending_max" if is_camp
                               else "peak_pending"],
        "sim.ns_per_event": plain_run * 1e9 / events,
        "sim.dispatch_ns_per_event": phase_ns("dispatch"),
        "net.queue_ns_per_event": phase_ns("queue"),
        "transport.ns_per_event": phase_ns("transport"),
        "profile.other_ns_per_event": phase_ns("other"),
        "profile.overhead_frac": prof_run / plain_run - 1.0,
    }
    if is_camp:
        for k in ("net.gw_arrivals", "net.gw_drops", "transport.timeouts",
                  "transport.retransmits", "transport.dupacks",
                  "transport.arena_bytes_per_flow"):
            m[k] = 0
        m.update({
            "topo.spec_s": 0, "topo.partition_s": 0,
            # Builds of all 137 networks, re-run outside the campaign.
            "topo.build_s": median(own["setup_samples"]) - own["plan_s"],
            "run.planned": own["cold_planned"],
            "run.unique": own["cold_unique"],
            "run.simulated": own["cold_simulated"],
            "run.sim_wall_sum_s": pick(plain, "cold_sim_wall_s"),
            "run.busy_frac": median([r["cold_sim_wall_s"]
                                     / (r["workers"] * r["cold_s"])
                                     for r in plain]),
            "run.warm_s": pick(plain, "warm_s"),
        })
    else:
        m.update({
            "net.gw_arrivals": own["gw_arrivals"],
            "net.gw_drops": own["gw_drops"],
            "transport.timeouts": own["timeouts"],
            "transport.retransmits": own["retransmits"],
            "transport.dupacks": own["dupacks"],
            "transport.arena_bytes_per_flow": own["arena_bytes"] / own["flows"],
            "topo.spec_s": own["spec_s"],
            "topo.partition_s": own["partition_s"],
            "topo.build_s": own["build_s"],
        })
        for k in ("run.planned", "run.unique", "run.simulated",
                  "run.sim_wall_sum_s", "run.busy_frac", "run.warm_s"):
            m[k] = 0
    lp_run, lp_wait = own.get("lp_run_s", 0.0), own.get("lp_wait_s", 0.0)
    m.update({
        "parallel.windows": own.get("windows", 0),
        "parallel.msgs": own.get("msgs", 0),
        "parallel.run_s": lp_run,
        "parallel.barrier_wait_s": lp_wait,
        "parallel.wait_frac": lp_wait / (lp_run + lp_wait)
        if lp_run + lp_wait > 0 else 0.0,
        "parallel.merge_high_water": own.get("merge_high_water", 0),
    })
    traced = workload == "traced_n60_lp2"
    m.update({
        "obs.trace_records": own["trace_records"] if traced else 0,
        "obs.traced_run_s": own["run_s"] if traced else 0.0,
        "obs.jsonl_s": own["jsonl_s"] if traced else 0.0,
        "obs.perfetto_s": own["perfetto_s"] if traced else 0.0,
        "obs.export_mb_per_s": (own["export_bytes"] / 1e6 / own["export_s"])
        if traced and own["export_s"] > 0 else 0.0,
    })
    return m


def layer_result(unit, m):
    return {name: {"value": m.get(name, 0), "unit": u}
            for name, u in unit.items()}


def print_layer_table(unit, layers, per_workload, pr):
    """Per-layer table: one column per workload, plus what each moves;
    then the workload-independent probe rows, once."""
    wls = list(per_workload)
    print("== per-layer metrics (profiled pass; sharded workloads profiled "
          "at lp1)")
    print(f"  {'metric':<32}" + "".join(f"{w:>20}" for w in wls)
          + "  unit      moves")
    for name, u in unit.items():
        if name in pr:
            continue
        cells = "".join(f"{per_workload[w].get(name, 0):>20.6g}" for w in wls)
        print(f"  {name:<32}{cells}  {u:<9} {layers[name]['moves']}")
    print("== layer probes (the same for every workload)")
    for name, v in pr.items():
        print(f"  {name:<32}{v:>20.6g}  {unit[name]:<9} "
              f"{layers[name]['moves']}")
    # The profiler's clock reads inflate every phase, so each phase's
    # share of profiled time is applied to the unprofiled ns/event.
    print("== where the ns/event go: unprofiled ns/event split by the "
          "profiled run's phase shares")
    phases = {"dispatch": "sim.dispatch_ns_per_event",
              "transport": "transport.ns_per_event",
              "queue": "net.queue_ns_per_event",
              "other": "profile.other_ns_per_event"}
    for w in wls:
        m = per_workload[w]
        total = sum(m.get(p, 0) for p in phases.values())
        if total <= 0:
            continue
        plain = m["sim.ns_per_event"]
        row = "  ".join(f"{k}={plain * m[p] / total:.0f} "
                        f"({100 * m[p] / total:.0f}%)"
                        for k, p in phases.items())
        print(f"  {w:<20} {plain:7.0f} ns/event = {row}")


# ---- main ------------------------------------------------------------------

def result_line(correct, attempted, failed, metrics):
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=None,
                    help="workload seed (default: pins.json default_seed)")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    pins = load_json("pins.json")
    layers = load_json("layers.json")["metrics"]
    e2e_unit = units(bench["end_to_end"])
    layer_unit = units(bench["per_layer"])
    seed = pins["default_seed"] if args.seed is None else args.seed
    driver = build()
    work = build_dir() / f"work-{os.getpid()}"
    try:
        if args.workload == "all":
            run_all(driver, seed, args.seconds, work, pins, e2e_unit,
                    layer_unit, layers)
        elif args.trace == 0:
            acc = run_e2e(driver, args.workload, seed, args.seconds, work,
                          pins, e2e_unit)
            acc.print_table()
            ok = acc.failed == 0 and len(acc.walls) > 0
            result_line(ok, acc.attempted, acc.failed, acc.metrics())
        else:
            pr = probes(driver)
            m, attempted, failed, failures = per_layer(
                driver, args.workload, seed, args.seconds, work, pins)
            print_layer_table(layer_unit, layers, {args.workload: m}, pr)
            for f in sorted(set(failures)):
                print(f"    check failed: {f}")
            ok = failed == 0 and bool(m)
            result_line(ok, max(attempted, 1), failed,
                        layer_result(layer_unit, {**m, **pr}))
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_all(driver, seed, seconds, work, pins, e2e_unit, layer_unit, layers):
    accs = {w: E2E(w, e2e_unit) for w in WORKLOADS}
    t0 = time.monotonic()
    rnd = 0
    budget = seconds * len(WORKLOADS)
    while (rnd < max(MIN_REPS.values())
           or time.monotonic() - t0 < budget):
        order = WORKLOADS[rnd % len(WORKLOADS):] + WORKLOADS[:rnd % len(WORKLOADS)]
        for w in order:
            if rnd >= MIN_REPS[w] and time.monotonic() - t0 >= budget:
                continue
            accs[w].add(*run_checked(driver, w, seed, work, pins))
        rnd += 1
    pr = probes(driver)
    per = {}
    for w in WORKLOADS:
        m, attempted, failed, failures = per_layer(driver, w, seed, seconds,
                                                   work, pins)
        per[w] = m
        accs[w].attempted += attempted
        accs[w].failed += failed
        accs[w].failures.extend(failures)
    for w in WORKLOADS:
        accs[w].print_table()
    print_layer_table(layer_unit, layers, per, pr)
    failed = sum(a.failed for a in accs.values())
    attempted = sum(a.attempted for a in accs.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed,
                      "workloads": {w: a.metrics() for w, a in accs.items()},
                      "per_layer": per, "probes": pr}))


if __name__ == "__main__":
    main()
