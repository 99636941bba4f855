#!/usr/bin/env python3
"""The rsl benchmark: cold-start workloads, end-to-end and per-layer metrics,
and an exact-output gate.  Run from the repository root.

    python3 perfbench/run.py --workload table-full --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py                    # every workload, metrics by name
    python3 perfbench/run.py --traced           # plus per-layer metrics and shares

With ``--workload`` the last line of standard output is one JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``): the end-to-end metrics
of BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
Each repetition of a workload runs in a fresh interpreter, because rsl's
``lru_cache``s would turn a second call in one process into a dict lookup.
A new repetition starts while at least half of the last one's duration is
left of ``--seconds``; timings are medians over the repetitions.  Times of
rsl's work are scaled to the reference host's speed by the probe in
child.py, since the host's own speed swings by up to a factor of two; the
raw times are printed beside them.  Any answer that differs from the
reference or an oracle makes the command exit 1; missing rsl sources make
it exit 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import uuid
from collections import Counter

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
SETUP_PROBES = 12  # import-only launches per run, so setup_s is a median of many
CHILD_TIMEOUT_S = 150


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def child_env() -> dict:
    """The environment of every child: rsl from this checkout's sources, no
    inherited cache directory (a warm user cache would turn misses into hits),
    and a fixed hash seed so set iteration order repeats between runs."""
    env = {k: v for k, v in os.environ.items() if k not in ("RSL_CACHE_DIR", "PYTHONPATH")}
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


class Bench:
    """One benchmark invocation: its scratch directory and child launches."""

    def __init__(self, work: str):
        self.work = work
        self.env = child_env()
        self.impls = set()
        self._n = 0

    def launch(self, mode: str, *args) -> dict:
        """Run child.py once; returns its stats plus exit code, output,
        launch-to-exit latency and set-up time."""
        self._n += 1
        stats_path = os.path.join(self.work, f"stats-{self._n}.json")
        t0 = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, CHILD, mode, stats_path, *args],
                cwd=ROOT,
                env=self.env,
                capture_output=True,
                text=True,
                timeout=CHILD_TIMEOUT_S,
            )
            code, out, err = proc.returncode, proc.stdout, proc.stderr
        except subprocess.TimeoutExpired:
            code, out, err = None, "", f"timed out after {CHILD_TIMEOUT_S} s"
        latency = time.monotonic() - t0
        stats = {}
        if os.path.exists(stats_path):
            with open(stats_path) as fh:
                stats = json.load(fh)
            os.unlink(stats_path)
            self.impls.add(stats["impl"])
        stats.update(code=code, stdout=out, stderr=err, latency=latency)
        # scaled to the reference host's speed, like every time of rsl's work
        stats["setup_s"] = (stats["setup_done"] - t0) * stats["speed"] if stats else None
        return stats

    # -- one repetition of a workload ------------------------------------------

    def rep(self, workload: str, seed: int, ref: dict, run_id=None) -> dict:
        if workload == "cli-session":
            return self.cli_session(seed, ref, run_id)
        st = self.launch("work", workload, *([run_id] if run_id else []))
        if st["code"] != 0 or "results" not in st:
            faults = [[f"worker exit code {st['code']}: {st['stderr'].strip()[-400:]}"]]
            return {"ok": False, "faults": faults, "ops": 1, "duration": st["latency"]}
        faults = [workloads.op_faults(summary, ref[summary["ref"]]) for summary in st["results"]]
        return {
            "ok": True,
            "faults": faults,
            "ops": len(faults),
            "duration": st["latency"],
            "wall_s": st["wall_s"] * st["speed"],
            "raw_wall_s": st["wall_s"],
            "speed": st["speed"],
            "setups": [st["setup_s"]],
            "latencies": [st["latency"] * st["speed"]],
            "peak_rss_mb": st["peak_rss_mb"],
            "orbits": sum(workloads.orbits_of(s) for s in st["results"]),
            "raw": tracing.raw_totals(st["trace"]) if run_id else None,
        }

    def cli_session(self, seed: int, ref: dict, run_id=None) -> dict:
        """A closed loop of one client: each request starts when the previous
        one has exited, in a fresh process, against a fresh cache directory."""
        cache_dir = tempfile.mkdtemp(prefix="cache-", dir=self.work)
        extra = [run_id] if run_id else []
        replies = []
        t0 = time.monotonic()
        try:
            for argv in workloads.cli_requests(seed):
                replies.append(self.launch("cli", *extra, "--", "--cache-dir", cache_dir, *argv))
        finally:
            duration = time.monotonic() - t0
            shutil.rmtree(cache_dir, ignore_errors=True)
        flags = in_process_flags()
        seen = set()
        faults = []
        raw = Counter()
        for argv, st in zip(workloads.cli_requests(seed), replies):
            try:
                doc = json.loads(st["stdout"])
            except json.JSONDecodeError:
                doc = None
            faults.append(workloads.cli_faults(argv, st["code"], doc, seen, ref, flags))
            if run_id and "trace" in st:
                raw.update(tracing.raw_totals(st["trace"]))
        setups = [st["setup_s"] for st in replies if st["setup_s"] is not None]
        ok = len(setups) == len(replies)
        latencies = [st["latency"] * st["speed"] for st in replies] if ok else []
        return {
            "ok": ok,
            "faults": faults,
            "ops": len(replies),
            "duration": duration,
            "wall_s": sum(latencies),
            "raw_wall_s": duration,
            "speed": sum(latencies) / duration,
            "setups": setups,
            "latencies": latencies,
            "peak_rss_mb": max(st.get("peak_rss_mb", 0.0) for st in replies),
            "orbits": None,
            "raw": raw if run_id else None,
        }


def in_process_flags():
    """rsl.flags imported into this process, for answers the CLI must agree with."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from rsl import flags

    return flags


# -- a run: repetitions until the time is spent ----------------------------------


def measure(bench: Bench, workload: str, seed: int, seconds: float, trace: bool, ref: dict) -> dict:
    """Repeat the workload while at least half of the last repetition's
    duration is left of ``seconds``, so a run overshoots by at most about
    half a repetition.  A traced run alternates untraced and traced
    repetitions so that the tracing overhead is measured on the same host
    state."""
    probe = "setup-cli" if workload == "cli-session" else "setup"
    bench.launch(probe)  # untimed: fills the bytecode cache, as any earlier use would
    setups = [bench.launch(probe)["setup_s"] for _ in range(SETUP_PROBES)]
    plain, traced = [], []
    run_id = uuid.uuid4().hex
    t0 = time.monotonic()
    while True:
        want_trace = trace and len(traced) < len(plain)
        rep = bench.rep(workload, seed, ref, run_id if want_trace else None)
        (traced if want_trace else plain).append(rep)
        if not rep["ok"]:
            break
        elapsed = time.monotonic() - t0
        if (not trace or traced) and elapsed + rep["duration"] / 2 > seconds:
            break
    reps = plain + traced
    failed = sum(1 for rep in reps for f in rep["faults"] if f)
    attempted = sum(rep["ops"] for rep in reps)
    faults = [f for rep in reps for op in rep["faults"] for f in op]
    out = {
        "workload": workload,
        "run_id": run_id,
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0 and all(rep["ok"] for rep in reps),
        "faults": faults,
        "reps": len(plain),
        "traced_reps": len(traced),
    }
    good = [rep for rep in plain if rep["ok"]]
    if not good:
        return out
    med = statistics.median
    e2e = {
        "wall_s": (med(r["wall_s"] for r in good), "s"),
        "raw_wall_s": (med(r["raw_wall_s"] for r in good), "s"),
        "host_speed": (med(r["speed"] for r in good), "ratio"),
        "setup_s": (med(setups + [s for r in good for s in r["setups"]]), "s"),
        "peak_rss_mb": (med(r["peak_rss_mb"] for r in good), "MB"),
        "request_p50_s": (med(x for r in good for x in r["latencies"]), "s"),
        "error_rate": (failed / attempted, "ratio"),
    }
    if workload != "cli-session":
        e2e["orbits_per_s"] = (med(r["orbits"] / r["wall_s"] for r in good), "1/s")
    out["end_to_end"] = e2e
    out["samples"] = {k: [r[k] for r in good] for k in ("wall_s", "raw_wall_s", "speed", "peak_rss_mb")}
    good_traced = [rep for rep in traced if rep["ok"]]
    if good_traced:
        # layer times scaled to the reference host's speed, like wall_s
        per_rep = [
            {k: (v * r["speed"] if unit == "s" else v, unit)
             for k, (v, unit) in tracing.layer_metrics(r["raw"]).items()}
            for r in good_traced
        ]
        names = per_rep[0]
        # median_low keeps counts whole; they should be equal in every repetition
        out["per_layer"] = {
            k: ((statistics.median_low if unit == "count" else med)(m[k][0] for m in per_rep), unit)
            for k, (_, unit) in names.items()
        }
        out["unsteady_counts"] = sorted(
            k for k, (v, unit) in names.items()
            if unit == "count" and any(m[k][0] != v for m in per_rep)
        )
        traced_wall = med(r["wall_s"] for r in good_traced)
        # spans hold raw seconds, so shares are of the raw traced wall time
        raw_traced_wall = med(r["raw_wall_s"] for r in good_traced)
        layers = tracing.layer_seconds(sum((r["raw"] for r in good_traced), Counter()))
        shares = {k: v / len(good_traced) / raw_traced_wall for k, v in sorted(layers.items())}
        # In cli-session the rest is process start, import and exit.
        shares["outside spans"] = 1.0 - sum(shares.values())
        out["layer_shares"] = shares
        out["traced_wall_s"] = traced_wall
        out["overhead_s"] = traced_wall - e2e["wall_s"][0]
    return out


# -- the run record ----------------------------------------------------------------


def git_revision():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def source_digest() -> str:
    """sha256 over rsl's sources, for checkouts that are not git repositories."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "rsl")
    for name in sorted(os.listdir(pkg)):
        if name.endswith((".py", ".pyx")):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def run_record(result: dict, seed: int, seconds: float, trace: bool, impls: set) -> dict:
    seeded = result["workload"] == "cli-session"
    return {
        "workload": result["workload"],
        "seed": seed,
        "inputs_from_seed": seeded,
        "seed_role": {workloads.DEFAULT_SEED: "default", workloads.HELD_OUT_SEED: "held-out"}.get(
            seed, "other"
        ) if seeded else "unused: no random inputs",
        "run_id": result["run_id"],
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "impl": sorted(impls)[0] if len(impls) == 1 else sorted(impls),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "rsl_pure_python": "RSL_PURE_PYTHON" in os.environ,
        "seconds": seconds,
        "trace": trace,
        "reps": result["reps"],
        "traced_reps": result["traced_reps"],
    }


# -- printing ------------------------------------------------------------------


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_metrics(title: str, metrics: dict) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<34} {fmt(value):>14} {unit}")


def print_result(result: dict) -> None:
    print(f"== {result['workload']}: {result['reps']} untraced, {result['traced_reps']} traced "
          f"repetitions; {result['failed']} of {result['attempted']} operations failed")
    for fault in result["faults"]:
        print(f"  FAULT {fault}")
    if "end_to_end" in result:
        print_metrics("end-to-end (untraced)", result["end_to_end"])
    if "per_layer" in result:
        print_metrics("per-layer (traced)", result["per_layer"])
        print("layer shares of traced wall time")
        for layer, share in result["layer_shares"].items():
            print(f"  {layer:<34} {share:>14.1%}")
        print(f"  tracing overhead {result['overhead_s']:.4f} s "
              f"(traced {result['traced_wall_s']:.4f} s - untraced {result['end_to_end']['wall_s'][0]:.4f} s)")
        if result["unsteady_counts"]:
            print(f"  counts that differ between traced repetitions: {result['unsteady_counts']}")


def result_line(result: dict, spec: dict, trace: bool) -> dict:
    group = "per_layer" if trace else "end_to_end"
    metrics = {}
    for m in spec[group]:
        if group in result:
            value, unit = result[group][m["name"]]
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return {
        "correct": result["correct"] and len(metrics) == len(spec[group]),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", dest="trace", action="store_const", const=1,
                        help="same as --trace 1")
    parser.add_argument("--reference", default=os.path.join(HERE, "reference.json"),
                        help="reference values to check answers against")
    parser.add_argument("--record", help="append each run's record and metrics to this JSONL file")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "rsl", "__init__.py")):
        print(f"perfbench: no rsl sources under {SRC}", file=sys.stderr)
        return 2
    with open(args.reference) as fh:
        ref = json.load(fh)
    scratch = os.path.join(HERE, "_work")
    os.makedirs(scratch, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=scratch)
    results = []
    try:
        bench = Bench(work)
        for workload in [args.workload] if args.workload else workloads.WORKLOADS:
            result = measure(bench, workload, args.seed, args.seconds, bool(args.trace), ref)
            result["record"] = run_record(result, args.seed, args.seconds, bool(args.trace), bench.impls)
            results.append(result)
            print_result(result)
            print("record " + json.dumps(result["record"], sort_keys=True))
            sys.stdout.flush()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass
    if args.record:
        with open(args.record, "a") as fh:
            for result in results:
                keep = ("record", "end_to_end", "per_layer", "samples", "attempted", "failed", "correct")
                fh.write(json.dumps({k: result[k] for k in keep if k in result}, sort_keys=True) + "\n")
    correct = all(r["correct"] for r in results)
    if args.workload:
        line = result_line(results[0], spec, bool(args.trace))
        correct = line["correct"]
        print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
