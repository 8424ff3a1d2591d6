#!/usr/bin/env python3
"""Storm output stays byte-identical to the committed golden files.

A 1-CPU storm is a pure function of its flags, so its printed stats pin
the behaviour of everything under it: a change that moves one fire, pick
or oops shows up here as a diff. Runs chaos, schedstorm and permstorm at
--seed 1 --ops 10000, trafficgen at --seed 1 --events 20000 --cpus 1,
rangefuzz at --seed 1 --progs 100 --execs 16 and rangefuzz --check-faults
(the range and relational fault-witness tables), drops trafficgen's
wall-clock lines, and compares each output with
tests/analysis/golden/NAME.txt. On a mismatch it prints the diff and the
command that regenerates the file; regenerate only when the change in
the numbers is the point of the change.

Usage: storm_golden_test.py TOOLS_DIR
"""

import difflib
import os
import subprocess
import sys

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "golden")

# golden file name -> (tool, its flags). trafficgen's lines that mention
# "wall" carry host timings and are dropped before the comparison.
RUNS = {
    "chaos": ("chaos", ["--seed", "1", "--ops", "10000"]),
    "schedstorm": ("schedstorm", ["--seed", "1", "--ops", "10000"]),
    "permstorm": ("permstorm", ["--seed", "1", "--ops", "10000"]),
    "trafficgen": ("trafficgen",
                   ["--seed", "1", "--events", "20000", "--cpus", "1"]),
    "rangefuzz": ("rangefuzz",
                  ["--seed", "1", "--progs", "100", "--execs", "16"]),
    "rangefuzz-faults": ("rangefuzz", ["--check-faults"]),
}
WALL_CLOCK_WORD = "wall"


def command(tools_dir, name):
    tool, flags = RUNS[name]
    return [os.path.join(tools_dir, tool)] + flags


def run(tools_dir, name):
    """Returns (exit status, output with wall-clock lines dropped)."""
    proc = subprocess.run(command(tools_dir, name), stdout=subprocess.PIPE,
                          text=True, check=False)
    lines = proc.stdout.splitlines(keepends=True)
    if RUNS[name][0] == "trafficgen":
        lines = [line for line in lines if WALL_CLOCK_WORD not in line]
    return proc.returncode, "".join(lines)


def regenerate_command(tools_dir, name):
    line = " ".join(command(tools_dir, name))
    if RUNS[name][0] == "trafficgen":
        line += f" | grep -v {WALL_CLOCK_WORD}"
    return f"{line} > {os.path.join(GOLDEN_DIR, name + '.txt')}"


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[-1])
        return 2
    tools_dir = argv[1]

    failed = False
    for name in RUNS:
        code, output = run(tools_dir, name)
        with open(os.path.join(GOLDEN_DIR, name + ".txt"),
                  encoding="utf-8") as golden_file:
            golden = golden_file.read()
        if code == 0 and output == golden:
            print(f"{name}: matches golden/{name}.txt")
            continue
        failed = True
        print(f"FAIL: {name} exited {code}; diff against golden/{name}.txt:")
        sys.stdout.writelines(difflib.unified_diff(
            golden.splitlines(keepends=True),
            output.splitlines(keepends=True),
            f"golden/{name}.txt", name))
        print(f"regenerate with: {regenerate_command(tools_dir, name)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
