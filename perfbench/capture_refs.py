"""Capture the --json reference outputs that the cli-cold workload checks.

Run from the repository root:  python3 perfbench/capture_refs.py

Writes perfbench/refs/<document>.<command>.json, the byte-exact stdout of
``python -m toruslab.cli --json <command> tori/<document>.json`` for every
command of the workload on every bundled document.  Re-capture only when
a change is meant to alter the CLI's output.
"""

import os
import subprocess
import sys

from workloads import REFS, ROOT, CliCold


def main():
    REFS.mkdir(exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for stem in sorted(s for s in CliCold.DOCS if s):
        for cmd in CliCold.COMMANDS:
            proc = subprocess.run(
                [sys.executable, "-m", "toruslab.cli", "--json", cmd, f"tori/{stem}.json"],
                cwd=ROOT, env=env, capture_output=True, check=True)
            (REFS / f"{stem}.{cmd}.json").write_bytes(proc.stdout)
            print(f"{stem}.{cmd}.json  {len(proc.stdout)} bytes")


if __name__ == "__main__":
    main()
