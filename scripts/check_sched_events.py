#!/usr/bin/env python3
"""Gate the scheduler benchmark against a committed baseline.

Usage: check_sched_events.py CURRENT.json [--baseline PATH] [--threshold F]

Checks, following the check_packet_path.py model:

* Wall time (``ns_per_op``) per row, normalized by the
  ``schedule_pop_d64`` calibration row — a pure schedule+pop loop every
  scheduler change also moves, so the ratio cancels the machine but not
  a change's *relative* effect on deeper/wider workloads. Budget:
  --threshold (default 25%) over the baseline's ratio. This covers the
  ``pop_rearm_pN`` rows (10^3..10^6 armed deadlines) and
  ``replay_fig02_n60``, the op stream of a real paper run replayed
  against the scheduler alone.

* Every baseline row must be present in the current run, so a renamed
  or dropped row cannot leave its gate unnoticed.

The baseline is full-mode; CI runs --smoke. Normalized ns/op is
workload-size invariant (the replay and experiment rows are the same in
both modes), which is what makes the comparison meaningful across modes.

Exit code 0 = within budget, 1 = regression, 2 = bad invocation/input.
"""

import argparse
import json
import sys

CALIB_ROW = "schedule_pop_d64"


def load_rows(path):
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        sys.exit(f"check_sched_events: cannot read {path}: {e}")
    if doc.get("bench") != "sched_events":
        sys.exit(f"check_sched_events: {path} is not a sched_events result")
    return {row["name"]: row for row in doc.get("results", [])}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("current", help="freshly measured BENCH_sched.json")
    ap.add_argument(
        "--baseline",
        default="bench/baselines/BENCH_sched_wheel.json",
        help="committed reference run (default: %(default)s)",
    )
    ap.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="allowed fractional regression in normalized wall time "
        "(default: %(default)s)",
    )
    args = ap.parse_args()

    cur = load_rows(args.current)
    base = load_rows(args.baseline)
    for rows, path in ((cur, args.current), (base, args.baseline)):
        if CALIB_ROW not in rows:
            sys.exit(f"check_sched_events: {path} lacks the {CALIB_ROW} row")

    cur_calib = cur[CALIB_ROW]["ns_per_op"]
    base_calib = base[CALIB_ROW]["ns_per_op"]
    print(
        f"calibration: current {cur_calib:.1f} ns/op, "
        f"baseline {base_calib:.1f} ns/op "
        f"(machine factor {cur_calib / base_calib:.2f}x)"
    )

    failures = [
        f"{name}: in the baseline but missing from the current run"
        for name in sorted(base) if name not in cur
    ]
    for name, cur_row in sorted(cur.items()):
        base_row = base.get(name)
        if base_row is None or name == CALIB_ROW:
            continue
        c_ratio = cur_row["ns_per_op"] / cur_calib
        b_ratio = base_row["ns_per_op"] / base_calib
        ok = c_ratio <= b_ratio * (1 + args.threshold)
        print(
            f"  {name}: normalized {c_ratio:.3f} vs baseline {b_ratio:.3f}"
            f" ({(c_ratio / b_ratio - 1) * 100:+.1f}%)"
            f" {'ok' if ok else 'REGRESSION'}"
        )
        if not ok:
            failures.append(
                f"{name}: normalized wall {c_ratio:.3f} exceeds baseline "
                f"{b_ratio:.3f} by more than {args.threshold * 100:.0f}%"
            )

    if failures:
        print("\nsched-events regression gate FAILED:")
        for f in failures:
            print(f"  - {f}")
        return 1
    print("sched-events regression gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
