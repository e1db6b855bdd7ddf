#!/usr/bin/env python3
"""Smoke test for the ``nevermind`` CLI.

Runs a few small commands and checks two contracts:

- each prints byte-identical stdout with and without ``--stream`` and
  at ``--threads 1`` and ``--threads 4``;
- retired flags are rejected through the unknown-argument path
  (exit 2 with "unknown argument" on stderr).

Usage:
    cli_smoke.py PATH/TO/nevermind

Exit status: 0 = all checks pass, 1 = a check failed, 2 = usage error.
"""

from __future__ import annotations

import subprocess
import sys

IDENTITY_COMMANDS = [
    ["predict", "--lines", "1200", "--seed", "9", "--top", "10"],
    ["serve", "--lines", "1200", "--seed", "9", "--week", "43", "--top", "10"],
    ["locate", "--lines", "4000", "--seed", "5"],
]

RETIRED_FLAG_COMMANDS = [
    ["predict", "--lines", "1200", "--seed", "9", "--top", "10",
     "--deadline-ms", "5"],
    ["predict", "--stream", "--lines", "1200", "--seed", "9", "--top", "10",
     "--window-weeks", "8"],
]


def run(binary, args):
    return subprocess.run([binary, *args], capture_output=True, timeout=240)


def check_identity(binary, args):
    """Return failure messages for one command across its variants."""
    failures = []
    reference = None
    for stream in (False, True):
        for threads in ("1", "4"):
            variant = args + (["--stream"] if stream else []) + [
                "--threads", threads]
            label = " ".join(variant)
            proc = run(binary, variant)
            if proc.returncode != 0:
                failures.append(f"{label}: exit {proc.returncode}\n"
                                f"{proc.stderr.decode(errors='replace')}")
                continue
            if not proc.stdout:
                failures.append(f"{label}: empty stdout")
                continue
            if reference is None:
                reference = (label, proc.stdout)
            elif proc.stdout != reference[1]:
                failures.append(f"{label}: stdout differs from "
                                f"'{reference[0]}'")
    return failures


def check_rejected(binary, args):
    label = " ".join(args)
    proc = run(binary, args)
    stderr = proc.stderr.decode(errors="replace")
    if proc.returncode != 2 or "unknown argument" not in stderr:
        return [f"{label}: expected exit 2 with 'unknown argument', got "
                f"exit {proc.returncode}: {stderr.splitlines()[:1]}"]
    return []


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    binary = argv[1]
    failures = []
    for args in IDENTITY_COMMANDS:
        failures += check_identity(binary, args)
    for args in RETIRED_FLAG_COMMANDS:
        failures += check_rejected(binary, args)
    for msg in failures:
        print(f"FAIL {msg}", file=sys.stderr)
    if failures:
        return 1
    print(f"cli_smoke: {len(IDENTITY_COMMANDS)} commands identical across "
          f"--stream x --threads {{1,4}}; {len(RETIRED_FLAG_COMMANDS)} "
          f"retired flags rejected")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
