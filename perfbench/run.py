"""pascent benchmark: CLI workloads timed end to end, or traced per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

A workload is a list of pascent CLI commands (perfbench/workloads.json); the
seed only permutes their order, so the total work does not depend on it.  One
pass runs every command, through ``pascent.cli.main``, in one fresh
interpreter (perfbench/child.py) with PASCENT_JOBS removed from its
environment: one closed-loop client, one process.  Every command's exit code
and stdout digest are checked against the recorded ones.

--trace 0 discards a warm-up child (it compiles the .pyc files), then runs
as many passes as fit in --seconds, at least one, each after an import-only
probe child.  It reports the medians over the run of wall_s (first command
to last), cpu_s (the child's user+sys time), setup_s (spawn until
pascent.cli is imported; over probes and passes) and peak_rss_mb (each pass
child's own ru_maxrss, from os.wait4).  --trace 1 runs pairs of an untraced
and a traced pass instead and reports the per-layer metrics of the traced
passes (perfbench/tracing.py), the tracing overhead (traced minus untraced
wall_s) and the share of failed commands.

Times are reported at full machine speed.  The shared 2-vCPU host the
benchmark was built on switches between speeds up to 1.8x apart, in phases
of a fraction of a second to a minute, which no run length averages out.
So the child times a fixed reference loop every 50 ms while its commands
run (and five times after import), and each measured time, less the time
the samples took, is scaled by REFERENCE_S times the mean of 1/sample: the
work done, in seconds of a machine running the reference loop at full
speed.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Exits 2 without a result when the program's sources are absent.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
PROGRAM = os.path.join(ROOT, "src", "pascent", "cli.py")
# child.reference_s() at full speed: its fast-phase time on the host the
# benchmark was recorded on (see the module docstring).
REFERENCE_S = 0.0006


@dataclass
class Pass:
    """Outcome of one child process."""

    wall_s: float
    cpu_s: float
    rss_mb: float
    setup_s: float | None
    failed: int
    pace: float = 1.0
    results: list = field(default_factory=list)
    layers: dict = field(default_factory=dict)
    fired: dict = field(default_factory=dict)


def load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def load_workloads() -> dict:
    return load_json(os.path.join(HERE, "workloads.json"))["workloads"]


def ordered(commands: list[dict], seed: int) -> list[dict]:
    """The workload's commands in the order the seed picks."""
    out = list(commands)
    random.Random(seed).shuffle(out)
    return out


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PASCENT_JOBS", None)
    # An installed CLI runs from cached bytecode: let the warm-up child write
    # it, outside the source tree but inside the checkout.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = os.path.join(ROOT, ".bench_build", "pycache")
    return env


def command_ok(expected: dict, got: dict) -> bool:
    return (
        got["exit_code"] == expected.get("exit_code")
        and got["stdout_sha256"] == expected.get("stdout_sha256")
        and got["bad_reports"] == 0
    )


def run_pass(commands: list[dict], trace: bool = False, env: dict | None = None) -> Pass:
    """Run the commands in one fresh child and check each against its record.

    Peak RSS and CPU time come from os.wait4 on that child alone: the
    RUSAGE_CHILDREN maximum would carry over from earlier children.
    """
    job = json.dumps({"commands": [c["command"].split() for c in commands], "trace": trace})
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, CHILD, job], cwd=ROOT, env=env or child_env(), stdout=subprocess.PIPE
    )
    try:
        out = proc.stdout.read()
    finally:
        proc.stdout.close()
        _pid, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    elapsed = time.monotonic() - start
    cpu_s = usage.ru_utime + usage.ru_stime
    rss_mb = usage.ru_maxrss / 1024
    try:
        record = json.loads(out.decode().splitlines()[-1]) if proc.returncode == 0 else None
    except (ValueError, IndexError):
        record = None
    if record is None:  # the child died: every command of the pass failed
        return Pass(elapsed, cpu_s, rss_mb, None, len(commands))
    results = record["results"]
    sampled_s = sum(record["samples"])
    pace = speed(record["samples"] or record["setup_samples"])
    return Pass(
        wall_s=(record["wall_s"] - sampled_s) * pace,
        cpu_s=(cpu_s - sampled_s - sum(record["setup_samples"])) * pace,
        rss_mb=rss_mb,
        setup_s=(record["imported"] - start) * speed(record["setup_samples"]),
        failed=len(commands) - sum(command_ok(c, r) for c, r in zip(commands, results)),
        pace=pace,
        results=results,
        layers={k: v * pace if is_time(k) else v for k, v in record.get("layers", {}).items()},
        fired=record.get("fired", {}),
    )


def speed(reference_times: list[float]) -> float:
    """Speed of the machine relative to full speed, from reference-loop times."""
    return REFERENCE_S * statistics.fmean(1 / t for t in reference_times)


def is_time(metric: str) -> bool:
    return metric.endswith((".s", "_s"))


def end_to_end(passes: list[Pass], probes: list[Pass]) -> dict[str, float]:
    setups = [p.setup_s for p in probes + passes if p.setup_s is not None]
    return {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "cpu_s": statistics.median(p.cpu_s for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p.rss_mb for p in passes),
    }


def per_layer(names: list[str], untraced: list[Pass], traced: list[Pass],
              fail_share: float) -> dict[str, float]:
    """Median of each named metric over the traced passes; an idle layer reads 0."""
    out = {}
    for name in names:
        if name == "trace.overhead_s":
            value = (statistics.median(p.wall_s for p in traced)
                     - statistics.median(p.wall_s for p in untraced))
        elif name == "fail_share":
            value = fail_share
        elif name == "cli.bytes_out":
            value = statistics.median(sum(r["stdout_bytes"] for r in p.results) for p in traced)
        else:
            value = statistics.median(p.layers.get(name, 0) for p in traced)
        out[name] = value
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(PROGRAM) or not os.path.isfile(bench_path):
        print(f"perfbench: no pascent sources at {PROGRAM}", file=sys.stderr)
        return 2
    bench = load_json(bench_path)
    workloads = load_workloads()
    if args.workload not in workloads:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(workloads)}",
              file=sys.stderr)
        return 2
    commands = ordered(workloads[args.workload]["commands"], args.seed)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "order": [c["command"] for c in commands]}))

    env = child_env()
    run_pass([], env=env)  # warm-up: compiles .pyc files; discarded
    untraced: list[Pass] = []
    traced: list[Pass] = []
    probes: list[Pass] = []
    # Run passes (or untraced/traced pairs) while the next one, judged by the
    # last, still ends within --seconds; the first always runs.  An untraced
    # run also spawns one import-only probe before each pass, so set-up is
    # sampled across the whole run.
    deadline = time.monotonic() + args.seconds
    while True:
        begin = time.monotonic()
        if args.trace:
            untraced.append(run_pass(commands, env=env))
            traced.append(run_pass(commands, trace=True, env=env))
        else:
            probes.append(run_pass([], env=env))
            untraced.append(run_pass(commands, env=env))
        now = time.monotonic()
        if now + (now - begin) > deadline:
            break

    everything = untraced + traced
    attempted = len(commands) * len(everything)
    failed = sum(p.failed for p in everything)
    if args.trace:
        spec = bench["per_layer"]
        values = per_layer([m["name"] for m in spec], untraced, traced, failed / attempted)
    else:
        spec = bench["end_to_end"]
        values = end_to_end(untraced, probes)
    print(json.dumps({"passes": len(everything),
                      "pass_wall_s": [round(p.wall_s, 4) for p in everything],
                      "pass_speed": [round(p.pace, 4) for p in everything]}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
