#!/usr/bin/env python3
"""Where each varcong command stops scaling.

    python3 perfbench/scaling.py     # about ten minutes

Runs every command on a ladder of sandwiches on four and five points, each
as its own `python3 -m varcong.cli` process with a time limit, and prints
one markdown row per probe: finished (exit 0), refused (exit 2, a cap),
another exit code, or still running after TIMEOUT seconds (the process
is then killed).  |P| is counted by checks.regular_elements.  The table
also goes to perfbench/out/scaling.json.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
TIMEOUT = 40  # seconds per probe

LADDER = ["4: 1 2 3 3", "4: 1 2 3 4", "5: 1 2 2 2 2", "5: 1 1 3 3 3",
          "5: 1 2 3 3 3", "5: 1 2 3 4 4", "5: 1 2 3 4 5"]

COMMANDS = {
    "congruences --method oracle": ["congruences", "--method", "oracle"],
    "congruences --method structural": ["congruences", "--method", "structural"],
    "height": ["height"],
    "eggbox": ["eggbox"],
    "congruences --semigroup image-T --method both":
        ["congruences", "--semigroup", "image-T", "--method", "both"],
    "classify (diagonal)": ["classify", "-"],
}


def probe(argv, stdin):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-m", "varcong.cli", *argv],
                              input=stdin, capture_output=True, text=True,
                              env=env, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return f"still running after {TIMEOUT} s", None
    seconds = time.perf_counter() - start
    outcome = {0: "finished", 2: "refused (exit 2)"}.get(proc.returncode,
                                                        f"exit {proc.returncode}")
    return outcome, seconds


def main():
    sizes = {a: len(checks.regular_elements(a)) for a in LADDER}
    rows = []
    print("| command | sandwich | \\|P\\| | outcome | seconds |")
    print("|---|---|---|---|---|")
    for name, command in COMMANDS.items():
        for a in sorted(LADDER, key=sizes.get):
            diagonal = json.dumps([[x] for x in range(sizes[a])])
            stdin = diagonal if command[0] == "classify" else ""
            argv = [command[0], "--a", a, *command[1:]]
            outcome, seconds = probe(argv, stdin)
            shown = "" if seconds is None else f"{seconds:.1f}"
            print(f"| `{name}` | `{a}` | {sizes[a]} | {outcome} | {shown} |", flush=True)
            rows.append({"command": name, "sandwich": a, "elements": sizes[a],
                         "outcome": outcome, "seconds": seconds})
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / "scaling.json").write_text(json.dumps(rows, indent=1) + "\n")


if __name__ == "__main__":
    main()
