#!/usr/bin/env python3
"""Memory stays flat as a load run gets longer.

Runs `trafficgen --cpus 4` at 100k and then 1M events and fails if the
longer run's peak RSS exceeds the shorter one's by 1 MiB or more: anything
a run keeps per event (a sample vector, an unbounded log) shows up here as
growth proportional to the extra events.

Usage: trafficgen_rss_test.py TRAFFICGEN
"""

import os
import subprocess
import sys

SHORT_EVENTS = 100_000
LONG_EVENTS = 1_000_000
BOUND_KB = 1024


def peak_rss_kb(argv):
    """Runs argv to completion; returns (exit status, peak RSS in KiB)."""
    proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss  # Linux reports KiB


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[-1])
        return 2
    trafficgen = argv[1]

    rss = {}
    for events in (SHORT_EVENTS, LONG_EVENTS):
        command = [trafficgen, "--seed", "1", "--events", str(events),
                   "--cpus", "4", "--quiet"]
        code, rss[events] = peak_rss_kb(command)
        print(f"trafficgen --events {events}: exit {code}, "
              f"peak RSS {rss[events] / 1024:.1f} MB")
        if code != 0:
            print("FAIL: trafficgen itself failed")
            return 1
    growth = rss[LONG_EVENTS] - rss[SHORT_EVENTS]
    print(f"peak RSS growth {growth / 1024:.2f} MB over "
          f"{LONG_EVENTS - SHORT_EVENTS} extra events "
          f"(bound {BOUND_KB / 1024:.2f} MB)")
    if growth >= BOUND_KB:
        print("FAIL: memory grows with run length")
        return 1
    print("OK: memory stays flat")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
