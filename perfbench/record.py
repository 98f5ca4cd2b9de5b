"""Record the expected output of every benchmark command in workloads.json.

Usage: python3 perfbench/record.py

Runs each workload once, untraced and in workloads.json order, and stores
each command's exit code, stdout SHA-256 and byte count, plus the Python
version, CPU count and CPU model of the recording machine.  Run it only at a
commit whose Tier-1 tests pass: the digests become the output gate that
every later benchmark run checks.  It refuses to record a command that exits
non-zero or prints a verify report that is not "pass".
"""

from __future__ import annotations

import json
import os
import platform
import sys

from run import HERE, run_pass


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main() -> int:
    path = os.path.join(HERE, "workloads.json")
    with open(path, encoding="utf-8") as handle:
        spec = json.load(handle)
    for name, workload in spec["workloads"].items():
        commands = workload["commands"]
        outcome = run_pass(commands)
        if len(outcome.results) != len(commands):
            print(f"record: workload {name} crashed", file=sys.stderr)
            return 1
        for command, got in zip(commands, outcome.results):
            if got["exit_code"] != 0 or got["bad_reports"]:
                print(f"record: {command['command']} did not pass: {got}", file=sys.stderr)
                return 1
            command["exit_code"] = got["exit_code"]
            command["stdout_sha256"] = got["stdout_sha256"]
            command["stdout_bytes"] = got["stdout_bytes"]
        print(f"{name}: {len(commands)} commands, {outcome.wall_s:.2f} s")
    spec["environment"] = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(spec, handle, indent=2)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
