"""The benchmark's tracer wraps rsl's functions by name; a traced run must
still see the same work, so a renamed hook fails here."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _traced_metrics(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seconds", "1", "--traced"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]


def test_traced_table_young_counts():
    # full_table counts its faces without a ForestStore; the tracer reads
    # the table's face total on each miss of flags._table_cache
    metrics = _traced_metrics("table-young")
    assert metrics["flags.distinct_faces"]["value"] == 59_778


def test_traced_partition_counts():
    # the partitioning's owner sweep still deletes levels in a ForestStore,
    # one per face of each support's parent and none to build minimal
    # faces, which were faces the sweep had already interned; the facet
    # walk keys every facet, so order_facets calls no sort_key
    metrics = _traced_metrics("partition")
    assert metrics["kernel.drop_calls"]["value"] == 58_697
    assert metrics["kernel.store_nodes"]["value"] == 14_760
    assert metrics["bars.sort_key_calls"]["value"] == 0
