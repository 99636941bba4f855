"""Tests of the benchmark itself; run with ``python3 -m pytest perfbench``."""

import json
import os
import shutil
import subprocess
import sys

import pytest

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, RUN, *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines


def corrupted_reference(tmp_path, key, field, value):
    with open(os.path.join(HERE, "reference.json")) as fh:
        ref = json.load(fh)
    ref[key][field] = value
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(ref))
    return str(path)


def test_euler_numbers():
    assert [workloads.euler_number(k) for k in range(10)] == [1, 1, 1, 2, 5, 16, 61, 272, 1385, 7936]
    assert workloads.euler_facets(10, [10]) == 7936
    assert workloads.euler_facets(8, [7, 1]) == 1385
    assert workloads.euler_facets(8, [4, 4]) is None


def small_table():
    # full_table(4, (4,)): ranks 1 and 2, E_3 = 2 facets
    entries = [[[], 1, 1], [[1], 1, 0], [[2], 2, 1], [[1, 2], 2, 0]]
    ref = {"digest": workloads.table_digest(entries), "facets": 2, "orbits": 6}
    return entries, ref


def test_table_gate_accepts_exact_table():
    entries, ref = small_table()
    assert workloads.table_faults(entries, ref, 4, [4]) == []


def test_table_gate_rejects_wrong_h_even_with_matching_digest():
    entries, ref = small_table()
    entries[3][2] = 1
    ref["digest"] = workloads.table_digest(entries)
    faults = workloads.table_faults(entries, ref, 4, [4])
    assert len(faults) == 1 and "inclusion-exclusion" in faults[0]


def test_table_gate_rejects_non_euler_facet_count():
    entries = [[[], 1, 1], [[1], 1, 0], [[2], 2, 1], [[1, 2], 3, 1]]
    ref = {"digest": workloads.table_digest(entries), "facets": 3, "orbits": 7}
    assert any("Euler" in f for f in workloads.table_faults(entries, ref, 4, [4]))


def test_cli_mix_follows_the_seed():
    assert workloads.cli_requests(workloads.DEFAULT_SEED) == workloads.cli_requests(workloads.DEFAULT_SEED)
    assert workloads.cli_requests(workloads.DEFAULT_SEED) != workloads.cli_requests(workloads.HELD_OUT_SEED)
    reqs = workloads.cli_requests(7)
    assert len(reqs) == 20
    for argv in reqs:
        if argv[0] in ("b", "bprime"):
            top = int(argv[2]) - 2
            ranks = [int(r) for r in argv[4].split(",")]
            assert ranks == sorted(set(ranks)) and all(1 <= r <= top for r in ranks)


def test_seed_reference_passes_and_times_are_scaled_by_host_speed(tmp_path):
    record = tmp_path / "runs.jsonl"
    code, lines = run_bench("--workload", "table-young", "--seed", "1", "--seconds", "1",
                            "--record", str(record))
    result = json.loads(lines[-1])
    assert code == 0 and result["correct"] and result["failed"] == 0
    samples = json.loads(record.read_text())["samples"]
    for wall, raw, speed in zip(samples["wall_s"], samples["raw_wall_s"], samples["speed"]):
        assert speed > 0 and wall == pytest.approx(raw * speed)


@pytest.mark.parametrize(
    "workload,key,field,value",
    [
        ("table-young", "table n=8 (4,4)", "digest", "0" * 64),
        ("partition", "partition n=9 (9)", "witnesses", 8),
    ],
)
def test_corrupted_reference_fails(tmp_path, workload, key, field, value):
    ref = corrupted_reference(tmp_path, key, field, value)
    code, lines = run_bench("--workload", workload, "--seconds", "1", "--reference", ref)
    result = json.loads(lines[-1])
    assert code == 1
    assert not result["correct"] and result["failed"] >= 1
    assert any(line.strip().startswith("FAULT") for line in lines)


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "_work"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table-full", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_compare_refuses_runs_of_different_kernels(tmp_path):
    def record(impl):
        return {"record": {"workload": "table-full", "impl": impl}, "correct": True,
                "end_to_end": {"wall_s": [1.0, "s"]}}

    parent, change = tmp_path / "parent.jsonl", tmp_path / "change.jsonl"
    parent.write_text(json.dumps(record("python")) + "\n")
    change.write_text(json.dumps(record("cython")) + "\n")
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "compare.py"), str(parent), str(change)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2 and "different kernels" in proc.stderr
