#!/usr/bin/env python3
"""Storm output stays byte-identical to the committed golden files.

A 1-CPU storm is a pure function of its flags, so its printed stats pin
the behaviour of everything under it: a change that moves one fire, pick
or oops shows up here as a diff. Runs chaos, schedstorm and permstorm at
--seed 1 --ops 10000, trafficgen at --seed 1 --events 20000 --cpus 1 and
rangefuzz at --seed 1 --progs 100 --execs 16, drops trafficgen's
wall-clock lines, and compares each output with
tests/analysis/golden/TOOL.txt. On a mismatch it prints the diff and the
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

# tool -> its flags. trafficgen's lines that mention "wall" carry host
# timings and are dropped before the comparison.
RUNS = {
    "chaos": ["--seed", "1", "--ops", "10000"],
    "schedstorm": ["--seed", "1", "--ops", "10000"],
    "permstorm": ["--seed", "1", "--ops", "10000"],
    "trafficgen": ["--seed", "1", "--events", "20000", "--cpus", "1"],
    "rangefuzz": ["--seed", "1", "--progs", "100", "--execs", "16"],
}
WALL_CLOCK_WORD = "wall"


def run(tools_dir, tool):
    """Returns (exit status, output with wall-clock lines dropped)."""
    proc = subprocess.run([os.path.join(tools_dir, tool)] + RUNS[tool],
                          stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.splitlines(keepends=True)
    if tool == "trafficgen":
        lines = [line for line in lines if WALL_CLOCK_WORD not in line]
    return proc.returncode, "".join(lines)


def regenerate_command(tools_dir, tool):
    command = " ".join([os.path.join(tools_dir, tool)] + RUNS[tool])
    if tool == "trafficgen":
        command += f" | grep -v {WALL_CLOCK_WORD}"
    return f"{command} > {os.path.join(GOLDEN_DIR, tool + '.txt')}"


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[-1])
        return 2
    tools_dir = argv[1]

    failed = False
    for tool in RUNS:
        code, output = run(tools_dir, tool)
        with open(os.path.join(GOLDEN_DIR, tool + ".txt"),
                  encoding="utf-8") as golden_file:
            golden = golden_file.read()
        if code == 0 and output == golden:
            print(f"{tool}: matches golden/{tool}.txt")
            continue
        failed = True
        print(f"FAIL: {tool} exited {code}; diff against golden/{tool}.txt:")
        sys.stdout.writelines(difflib.unified_diff(
            golden.splitlines(keepends=True),
            output.splitlines(keepends=True),
            f"golden/{tool}.txt", tool))
        print(f"regenerate with: {regenerate_command(tools_dir, tool)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
