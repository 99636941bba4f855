"""The benchmark's tracer wraps rsl's functions by name; a traced run must
still see the same kernel work, so a renamed hook fails here."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_traced_table_young_counts():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table-young", "--seconds", "1", "--traced"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    assert metrics["kernel.drop_calls"]["value"] == 117_468
    assert metrics["kernel.store_nodes"]["value"] == 26_292
