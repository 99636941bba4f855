"""What each benchmark workload runs, and the exact-output gate that checks it.

The three in-process workloads call rsl's public functions in one fresh
interpreter; ``cli-session`` is a closed loop of ``rsl`` CLI requests, each
in its own process.  Every answer is checked against values recorded at the
seed commit (``reference.json``) and against oracles that share no code with
rsl: Euler numbers for facet counts, and inclusion-exclusion from f to h.
"""

from __future__ import annotations

import hashlib
import json
import random

DEFAULT_SEED = 1
HELD_OUT_SEED = 2

WORKLOADS = ("table-full", "table-young", "partition", "cli-session")


# -- oracles sharing no code with rsl ------------------------------------------


def euler_number(k: int) -> int:
    """E_k (OEIS A000111) by Seidel's boustrophedon triangle."""
    row = [1]
    for _ in range(k):
        nxt = [0]
        for v in reversed(row):
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[-1]


def euler_facets(n: int, parts):
    """Facet count of the quotient where it is an Euler number, else None:
    E_{n-1} for the one-letter shape (n) and E_n for the hook (n-1, 1)."""
    parts = list(parts)
    if parts == [n]:
        return euler_number(n - 1)
    if parts == [n - 1, 1]:
        return euler_number(n)
    return None


def table_digest(entries) -> str:
    """sha256 of a table given as [ranks, f, h] rows, in canonical order."""
    rows = sorted(([sorted(s), f, h] for s, f, h in entries), key=lambda r: (len(r[0]), r[0]))
    blob = json.dumps(rows, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def table_faults(entries, ref: dict, n: int, parts) -> list:
    """Why a table differs from its reference and from the oracles; [] if exact."""
    faults = []
    f = {frozenset(s): fv for s, fv, _ in entries}
    h = {frozenset(s): hv for s, _, hv in entries}
    if table_digest(entries) != ref["digest"]:
        faults.append("f/h table digest differs from the seed-commit reference")
    top = frozenset(range(1, n - 1))
    if f.get(top) != ref["facets"]:
        faults.append(f"{f.get(top)} facets, reference {ref['facets']}")
    euler = euler_facets(n, parts)
    if euler is not None and f.get(top) != euler:
        faults.append(f"{f.get(top)} facets, the Euler number is {euler}")
    if sum(f.values()) != ref["orbits"]:
        faults.append(f"{sum(f.values())} face orbits, reference {ref['orbits']}")
    for s, fv in f.items():
        expected = sum((-1) ** (len(s) - len(t)) * ft for t, ft in f.items() if t <= s)
        if h.get(s) != expected:
            faults.append(f"h{sorted(s)} = {h.get(s)}, inclusion-exclusion of f gives {expected}")
            break
    return faults


# -- in-process workloads -------------------------------------------------------


def in_process_calls(name: str) -> list:
    """Run the timed calls of an in-process workload.

    Returns (reference key, raw result) pairs.  Calls go through module
    attributes, so that a traced run sees its wrappers.
    """
    from rsl import flags, orders, partitioning, shapes

    if name == "table-full":
        return [("table n=10 (10)", flags.full_table(10, (10,)))]
    if name == "table-young":
        return [("table n=8 (4,4)", flags.full_table(8, (4, 4)))]
    if name == "partition":
        hook = shapes.as_shape((7, 1))
        return [
            (
                "partition n=8 (7,1) distinguished",
                partitioning.verify_partitioning(8, hook, orders.distinguished(hook)),
            ),
            ("partition n=9 (9)", partitioning.verify_partitioning(9, (9,))),
        ]
    raise ValueError(f"unknown in-process workload {name!r}")


def summarize(result) -> dict:
    """A JSON-ready summary of one call's result (FlagTable or PartitionScheme)."""
    if hasattr(result, "h"):
        return {
            "kind": "table",
            "n": result.n,
            "parts": list(result.shape.parts),
            "entries": [[sorted(s), result.f[s], result.h[s]] for s in result.f],
        }
    return {
        "kind": "partition",
        "n": result.n,
        "parts": list(result.shape.parts),
        "status": result.status,
        "facets": len(result.facets),
        "total_faces": result.total_faces,
        "witnesses": len(result.failures),
    }


def orbits_of(summary: dict) -> int:
    """Distinct face orbits one call produced."""
    if summary["kind"] == "table":
        return sum(f for _, f, _ in summary["entries"])
    return summary["total_faces"]


def op_faults(summary: dict, ref: dict) -> list:
    """Faults of one in-process call, checked against its reference entry."""
    n, parts = summary["n"], summary["parts"]
    if summary["kind"] == "table":
        return table_faults(summary["entries"], ref, n, parts)
    faults = []
    for key in ("status", "facets", "total_faces", "witnesses"):
        if summary[key] != ref[key]:
            faults.append(f"{key} = {summary[key]!r}, reference {ref[key]!r}")
    euler = euler_facets(n, parts)
    if euler is not None and summary["facets"] != euler:
        faults.append(f"{summary['facets']} facets, the Euler number is {euler}")
    return faults


# -- cli-session ----------------------------------------------------------------


def cli_requests(seed: int) -> list:
    """The request mix of one session; b and bprime rank sets come from the seed."""
    rng = random.Random(seed)

    def ranks(top: int) -> str:
        picked = rng.sample(range(1, top + 1), rng.randint(1, 4))
        return ",".join(str(r) for r in sorted(picked))

    reqs = [["table", "--n", "9"], ["table", "--n", "9"]]
    reqs += [["b", "--n", "9", "--ranks", ranks(7)] for _ in range(6)]
    reqs += [["bprime", "--n", "8", "--ranks", ranks(6)] for _ in range(4)]
    reqs += [
        ["stability", "--ranks", "2", "--n", "5", "--m", "6"],
        ["stability", "--ranks", "1,3", "--n", "7", "--m", "8"],
        ["vanish", "--n", "8"],
        ["construct", "--word", "DDDDDDDA", "--n", "10", "--render"],
        ["construct", "--ranks", "1,3", "--n", "6"],
        ["partition-verify", "--n", "7"],
        ["table", "--n", "8", "--lambda", "7,1"],
        ["table", "--n", "8", "--lambda", "7,1", "--dual"],
    ]
    return reqs


def _opt(argv, flag):
    return argv[argv.index(flag) + 1] if flag in argv else None


def _ints(text):
    return sorted(int(x) for x in text.split(",")) if text else []


def cli_faults(argv, code, doc, seen_tables, ref, flags) -> list:
    """Faults of one CLI request.  ``seen_tables`` holds the (n, lambda) keys
    already requested in this session, so the first request is a miss and
    later ones are hits.  ``flags`` is rsl.flags imported into this process,
    whose answers the CLI must agree with."""
    if code != 0:
        return [f"exit code {code}, expected 0"]
    if doc is None:
        return ["output is not one JSON document"]
    res = doc.get("results", {})
    cmd = argv[0]
    n = int(_opt(argv, "--n"))
    faults = []
    if cmd == "table":
        lam = _opt(argv, "--lambda") or str(n)
        key = f"table n={n} ({lam})"
        hit_expected = (n, lam) in seen_tables
        seen_tables.add((n, lam))
        if doc.get("cache_hit") is not hit_expected:
            faults.append(f"cache_hit {doc.get('cache_hit')}, expected {hit_expected}")
        entries = [(e["S"], e["f"], e["h"]) for e in res.get("entries", [])]
        if "--dual" in argv:
            entries = [(sorted(n - 1 - d for d in s), f, h) for s, f, h in entries]
        faults += table_faults(entries, ref[key], n, _ints(lam))
    elif cmd in ("b", "bprime"):
        shape = (n,) if cmd == "b" else (n - 1, 1)
        want = flags.flag_h(n, shape, _ints(_opt(argv, "--ranks")))
        if res.get(cmd) != want:
            faults.append(f"{cmd} = {res.get(cmd)}, in-process flag_h gives {want}")
    elif cmd == "stability":
        s, m = _ints(_opt(argv, "--ranks")), int(_opt(argv, "--m"))
        want = {str(k): flags.flag_h(k, (k,), s) for k in (n, m)}
        if res.get("values") != want or res.get("equal") is not True:
            faults.append(f"stability {res.get('values')}, in-process {want}")
    elif cmd == "vanish":
        for row in res.get("sets", []):
            want = flags.flag_h(n, (n,), row["S"])
            if row["h"] != want:
                faults.append(f"vanish h{row['S']} = {row['h']}, in-process {want}")
                break
        if res.get("consistent") is not True:
            faults.append("vanish reports an inconsistency")
        if len(res.get("sets", [])) != 2 ** (n - 2):
            faults.append(f"vanish covered {len(res.get('sets', []))} rank sets")
    elif cmd == "construct":
        want = ref["construct " + " ".join(argv[1:])]
        got = {k: res.get(k) for k in want}
        if got != want:
            faults.append(f"construct gave {got}, reference {want}")
    elif cmd == "partition-verify":
        if res.get("status") != "verified":
            faults.append(f"status {res.get('status')}, expected verified")
        if res.get("facet_count") != euler_facets(n, [n]):
            faults.append(f"{res.get('facet_count')} facets, E_{n - 1} = {euler_facets(n, [n])}")
    return faults
