"""Tests of the benchmark itself.

Run from the repository root: python3 -m pytest perfbench
The module fixture runs every workload once untraced and once traced, which
takes about half a minute on a 2-core machine.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from collections import Counter

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import tracing  # noqa: E402

BENCH = run.load_json(os.path.join(run.ROOT, "BENCHMARK.json"))
WORKLOADS = run.load_workloads()
DERIVED = ("trace.overhead_s", "fail_share")


@pytest.fixture(scope="module")
def passes():
    env = run.child_env()
    return {
        name: (run.run_pass(w["commands"], env=env), run.run_pass(w["commands"], trace=True, env=env))
        for name, w in WORKLOADS.items()
    }


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    for workload in WORKLOADS.values():
        for command in workload["commands"]:
            assert len(command["stdout_sha256"]) == 64
            assert command["exit_code"] == 0


def test_traced_outputs_equal_untraced_and_recorded(passes):
    for name, (plain, traced) in passes.items():
        assert (name, plain.failed, traced.failed) == (name, 0, 0)
        assert [r["stdout_sha256"] for r in traced.results] == [
            r["stdout_sha256"] for r in plain.results
        ]


def test_every_wrapped_name_fires(passes):
    fired = Counter()
    for _plain, traced in passes.values():
        fired.update(traced.fired)
    assert [target for target in tracing.TARGETS if not fired[target]] == []


def test_every_layer_metric_is_reported_and_moves_somewhere(passes):
    names = [m["name"] for m in BENCH["per_layer"]]
    reported = {
        name: run.per_layer(names, [plain], [traced], 0.0) for name, (plain, traced) in passes.items()
    }
    for values in reported.values():
        assert sorted(values) == sorted(names)
    silent = [n for n in names if n not in DERIVED and not any(v[n] for v in reported.values())]
    assert silent == []


def test_wrong_digest_and_bad_exit_are_failed_commands():
    good = WORKLOADS["scalar_series"]["commands"][-1]
    wrong = dict(good, stdout_sha256="0" * 64)
    usage_error = dict(good, command="bfile --gf A --order 10")  # --gf A needs --p: exit 2
    outcome = run.run_pass([good, wrong, usage_error])
    assert len(outcome.results) == 3
    assert outcome.failed == 2
    assert outcome.results[2]["exit_code"] == 2


def test_failures_are_counted_in_the_result_line(monkeypatch, capsys):
    good = WORKLOADS["scalar_series"]["commands"][-1]
    wrong = dict(good, stdout_sha256="0" * 64)
    monkeypatch.setattr(run, "load_workloads", lambda: {"tiny": {"commands": [good, wrong]}})
    assert run.main(["--workload", "tiny", "--seed", "3", "--seconds", "0", "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 2, 1)
    assert sorted(result["metrics"]) == sorted(m["name"] for m in BENCH["end_to_end"])


def test_seed_permutes_order_only():
    commands = WORKLOADS["enumerate"]["commands"]
    orders = {tuple(c["command"] for c in run.ordered(commands, seed)) for seed in range(5)}
    assert len(orders) > 1
    assert all(sorted(order) == sorted(c["command"] for c in commands) for order in orders)
    assert run.ordered(commands, 7) == run.ordered(commands, 7)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
