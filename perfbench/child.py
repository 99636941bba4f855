"""One benchmark process: import rsl, do one piece of work, report it.

    python3 child.py setup STATS                    import rsl, nothing else
    python3 child.py setup-cli STATS                import rsl.cli, nothing else
    python3 child.py work STATS WORKLOAD [RUN_ID]   run an in-process workload once
    python3 child.py cli STATS [RUN_ID] -- ARGS...  run one rsl CLI request

The parent stamps the launch with ``time.monotonic()``; this process stamps
the end of its imports with the same clock, so set-up time spans interpreter
start and import.  A RUN_ID turns tracing on.  The process writes its stats
(set-up stamp, peak RSS, timings, host speed, results, trace) as JSON to
STATS.

The host's speed is probed from the start of this script to the end of the
work: every PROBE_INTERVAL_S a signal handler times a fixed piece of
pure-Python work that shares no code with rsl.  The host runs this process
on a core shared with other tenants, and the same code runs up to twice as
slowly while a neighbour is busy, in episodes of a tenth of a second to many
seconds.  The mean of
PROBE_REF_S / probe time is the share of the reference host's speed that
the process got; wall time times that share is the time the work would have
taken on the reference host, which repeats between runs where raw wall time
does not.
"""

import signal
import sys
import time

# Fastest of 20,000 back-to-back probes on the reference host: a 2-vCPU Xeon
# KVM guest, Python 3.11.7.
PROBE_REF_S = 0.00025
PROBE_INTERVAL_S = 0.05
speeds = []


def probe_work() -> tuple:
    """Interning and merging of sorted tuples, like rsl's pure-Python kernel.
    Of the probes tried, this one's speed tracked rsl's most closely."""
    ids = {}
    nodes = []
    for i in range(120):
        kids = tuple(sorted((i * 7 + j * 3) % 50 for j in range(i % 5 + 1)))
        key = (i % 11, kids)
        if key not in ids:
            ids[key] = len(nodes)
            nodes.append(key)
    merged = []
    for _, kids in nodes:
        merged.extend(kids)
    merged.sort()
    return tuple(merged)


def probe(signum=None, frame=None) -> None:
    t0 = time.perf_counter()
    probe_work()
    speeds.append(PROBE_REF_S / (time.perf_counter() - t0))


def start_probing() -> None:
    probe()  # at least one sample, however short the work
    signal.signal(signal.SIGALRM, probe)
    signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)


def stop_probing() -> float:
    """Stop the probe; returns the mean share of the reference host's speed."""
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, signal.SIG_DFL)
    return sum(speeds) / len(speeds)


start_probing()  # before the imports, so that set-up is probed too
if sys.argv[1] in ("cli", "setup-cli"):
    import rsl.cli
else:
    import rsl
SETUP_DONE = time.monotonic()

import json  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def peak_rss_mb() -> float:
    """This process's peak RSS.  Not ru_maxrss: Linux carries the launching
    process's high-water mark through fork and exec into it."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv) -> int:
    mode, stats_path, rest = argv[1], argv[2], argv[3:]
    cli_argv = []
    if mode == "cli":
        split = rest.index("--")
        rest, cli_argv = rest[:split], rest[split + 1 :]
    elif mode == "work":
        name, rest = rest[0], rest[1:]
    tracer = tracing.Tracer(rest[0]) if rest else None
    if tracer is not None:
        tracing.install(tracer, rsl.cli if mode == "cli" else None)
    stats = {"setup_done": SETUP_DONE, "impl": rsl.kernel.IMPL}
    code = 0
    if mode == "work":
        t0 = time.perf_counter()
        results = workloads.in_process_calls(name)
        stats["wall_s"] = time.perf_counter() - t0
        stats["results"] = [dict(workloads.summarize(r), ref=key) for key, r in results]
    elif mode == "cli":
        code = rsl.cli.main(cli_argv)
        sys.stdout.flush()
    stats["speed"] = stop_probing()
    stats["peak_rss_mb"] = peak_rss_mb()
    if tracer is not None:
        stats["trace"] = tracer.dump()
    with open(stats_path, "w") as fh:
        json.dump(stats, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv))
