#!/usr/bin/env python3
"""Checks the shape of `burstsim --profile` output at lp1.

Usage: burstsim_profile_check.py PATH/TO/burstsim

Runs a short Reno/RED dumbbell with --profile and checks:

* the LP table has exactly one row, "LP 0", with a positive event count;
* the phase split follows it: the rows other, dispatch, transport, queue
  and total, in that order, each with a non-negative ns/event and a
  share in percent; the phase shares sum to 100 and the phase ns/event
  to the total row's;
* a --lp=2 run prints the LP table but no phase split (the profiler is
  per thread, so a sharded run has nothing to split).

Exit code 0 = shape as expected, 1 = mismatch (the output is printed).
"""

import re
import subprocess
import sys

PHASES = ["other", "dispatch", "transport", "queue", "total"]


def run(burstsim, *extra):
    proc = subprocess.run(
        [burstsim, "--transport=reno", "--queue=red", "--clients=10",
         "--duration=2", "--profile", *extra],
        capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        sys.exit(f"burstsim exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout


def table_after(lines, title):
    """Rows of the table printed under the line starting with @p title."""
    for i, line in enumerate(lines):
        if line.startswith(title):
            header = lines[i + 1].split()
            rows = []
            for row in lines[i + 3:]:
                if not row.strip():
                    break
                rows.append(row)
            return header, rows
    return None, []


def check_lp1(out, fail):
    lines = out.splitlines()
    header, rows = table_after(lines, "parallel engine: 1 LP")
    if header is None or header[:2] != ["process", "events"]:
        fail("no LP table")
        return
    cells = rows[0].split() if len(rows) == 1 else []
    if (len(cells) < 3 or cells[:2] != ["LP", "0"] or not cells[2].isdigit()
            or int(cells[2]) == 0):
        fail(f"LP table rows {rows!r}, want one 'LP 0' row with events")
    header, rows = table_after(lines, "phase split (lp1,")
    if header != ["phase", "ns/event", "share"]:
        fail(f"phase split header {header!r}")
        return
    names, ns, shares = [], [], []
    for row in rows:
        m = re.fullmatch(r"\s*(\w+)\s+(\d+\.\d)\s+(\d+\.\d) %", row)
        if not m:
            fail(f"malformed phase row {row!r}")
            return
        names.append(m.group(1))
        ns.append(float(m.group(2)))
        shares.append(float(m.group(3)))
    if names != PHASES:
        fail(f"phase rows {names!r}, want {PHASES!r}")
        return
    if abs(sum(shares[:-1]) - 100.0) > 0.5 or shares[-1] != 100.0:
        fail(f"phase shares {shares!r} do not sum to 100 %")
    if abs(sum(ns[:-1]) - ns[-1]) > 0.3:
        fail(f"phase ns/event {ns!r} do not sum to the total")
    if ns[-1] <= 0.0:
        fail("total ns/event is not positive")


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    failures = []
    lp1 = run(sys.argv[1])
    check_lp1(lp1, failures.append)
    lp2 = run(sys.argv[1], "--lp=2")
    if "parallel engine: 2 LPs" not in lp2:
        failures.append("--lp=2 printed no LP table")
    if "phase split" in lp2:
        failures.append("--lp=2 printed a phase split")
    if failures:
        print(lp1)
        print(lp2)
        for f in failures:
            print(f"FAIL: {f}")
        return 1
    print("burstsim --profile tables ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
