"""Smoke test of the benchmark itself (a few seconds):

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402


def _bench(*args: str) -> list[str]:
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_tiny_run_prints_every_end_to_end_metric_with_its_unit():
    spec = run.load_spec()
    lines = _bench("--workload", "smoke", "--seed", "3", "--seconds", "1", "--trace", "0")
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for m in spec["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0
        assert any(line.startswith(f"{m['name']} = ") and f" {m['unit']} (" in line
                   for line in lines), m["name"]
    for name in ("query_p50_ms", "query_tail_ms"):
        assert any(line.startswith(f"{name} = ") and " ms (" in line for line in lines), name
    assert any(line.startswith("failed_frac = 0 ") for line in lines)


def test_traced_run_reports_every_per_layer_metric():
    spec = run.load_spec()
    result = json.loads(_bench("--workload", "smoke", "--seed", "3", "--trace", "1")[-1])
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    metrics = result["metrics"]
    assert metrics["equations.satisfies.calls"]["value"] >= 20
    assert metrics["equations.rel_free.calls"]["value"] == 3
    assert metrics["equations.member.calls"]["value"] == 2


def test_wrong_expected_verdict_counts_as_failure():
    run.setup("smoke", 3)
    import workloads

    queries = workloads.build_smoke(3)
    queries.append(workloads.member_query("M(x)", "M(xy)", "not_member"))
    _, _, problems = run.measure(queries, 0)
    assert len(problems) == 1 and problems[0].startswith("member M(x) M(xy)")
