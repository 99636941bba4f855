"""Command-line front end.

Subcommands: table, b, bprime, partition-verify, construct, vanish,
stability, verify-all.  Ranks on the command line are always lattice
ranks; corank views appear only with --dual.  Output is JSON by default,
CSV for tables with --csv.  Exit codes: 0 success, 1 verification failure,
2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import acceptance, cache, construct, flags, orders, partitioning, vanishing
from .bars import descent_set, descent_word, facet_block_conditions
from .shapes import RankSet, as_shape, full_shape


class UsageError(ValueError):
    pass


def _parse_ranks(text: str, n: int) -> frozenset:
    if not text:
        return frozenset()
    try:
        ranks = frozenset(int(x) for x in text.split(","))
    except ValueError as exc:
        raise UsageError(f"bad rank list {text!r}") from exc
    try:
        RankSet.primal(n, ranks)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return ranks


def _parse_shape(text, n: int):
    if not text:
        return full_shape(n)
    try:
        shape = as_shape(tuple(int(x) for x in text.split(",")))
    except ValueError as exc:
        raise UsageError(f"bad shape {text!r}: {exc}") from exc
    if shape.n != n:
        raise UsageError(f"shape {shape} does not sum to n={n}")
    return shape


def _order_for(name, shape):
    if name is None or name == "length-lex":
        return orders.length_lex()
    if name == "distinguished":
        try:
            return orders.distinguished(shape)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    raise UsageError(f"unknown order {name!r}")


def _emit(report: dict, as_csv: bool) -> None:
    if as_csv and "entries" in report.get("results", {}):
        print("S,f,h")
        for entry in report["results"]["entries"]:
            print(f"\"{' '.join(str(r) for r in entry['S'])}\",{entry['f']},{entry['h']}")
    else:
        json.dump(report, sys.stdout, indent=2, sort_keys=True)
        print()


def _table_results(n, shape, dual, cache_dir):
    hit = False
    entries = None
    if cache_dir:
        cached = cache.load_table(cache_dir, n, shape)
        if cached is not None:
            hit = True
            entries = cached
    if entries is None:
        table = flags.full_table(n, shape)
        entries = table.entries()
        if cache_dir:
            cache.store_table(cache_dir, table)
    out = []
    for s, f, h in entries:
        key = tuple(sorted(n - 1 - r for r in s)) if dual else s
        out.append({"S": list(key), "f": f, "h": h})
    return {"n": n, "lambda": list(shape.parts), "entries": out}, hit


def cmd_table(args):
    shape = _parse_shape(args.lam, args.n)
    results, hit = _table_results(args.n, shape, args.dual, args.cache_dir)
    return results, {"cache_hit": hit}, 0


def cmd_b(args):
    ranks = _parse_ranks(args.ranks, args.n)
    value = flags.flag_h(args.n, full_shape(args.n), ranks)
    return {"n": args.n, "S": sorted(ranks), "b": value}, {}, 0


def cmd_bprime(args):
    ranks = _parse_ranks(args.ranks, args.n)
    value = flags.b_prime(args.n, ranks)
    return {"n": args.n, "S": sorted(ranks), "bprime": value}, {}, 0


def cmd_partition_verify(args):
    shape = _parse_shape(args.lam, args.n)
    order = _order_for(args.order, shape)
    try:
        scheme = partitioning.verify_partitioning(args.n, shape, order)
    except partitioning.LengtheningError as exc:
        raise UsageError(str(exc)) from exc
    facets = []
    for facet, min_face, dsup in zip(
        scheme.facets, scheme.minimal_faces or [], scheme.min_dual_supports or []
    ):
        strict, relaxed = facet_block_conditions(facet)
        facets.append(
            {
                "facet": facet.chain_type().serialize(),
                "positions": list(facet.positions),
                "min_face": min_face.serialize(),
                "min_support_coranks": sorted(dsup),
                "descent_word": str(descent_word(facet)),
                "non_equal": strict,
                "nontrivial_non_equal": relaxed,
            }
        )
    results = {
        "n": args.n,
        "lambda": list(shape.parts),
        "order": str(order),
        "status": scheme.status,
        "facet_count": len(scheme.facets),
        "interval_size_sum": scheme.interval_size_sum() if scheme.new_face_counts else None,
        "failures": [f.detail for f in scheme.failures],
        "h_via_partitioning": sorted(
            [[sorted(k), v] for k, v in (scheme.h_via_partitioning or {}).items()]
        ),
        "facets": facets if args.facets else None,
    }
    return results, {}, 0 if scheme.status == "verified" else 1


def cmd_construct(args):
    n = args.n
    if args.word:
        if n is None:
            n = len(args.word) + 2
        try:
            facet = construct.build_word(args.word, n)
        except construct.WordUnsupportedError as exc:
            raise UsageError(str(exc)) from exc
    elif args.ranks is not None:
        if n is None:
            raise UsageError("--ranks needs --n")
        ranks = _parse_ranks(args.ranks, n)
        shape = vanishing.classify_rank_set(ranks, n)
        try:
            if shape.kind == "no-1":
                dual = RankSet.primal(n, ranks).as_dual()
                from .bars import DescentWord

                facet = construct.build_word(str(DescentWord.from_dual_set(n, dual.ranks)))
            else:
                facet = construct.build_theorem22(ranks, n)
        except (ValueError, construct.ConstructionError) as exc:
            raise UsageError(f"no construction for this rank set: {exc}") from exc
    else:
        raise UsageError("construct needs --word or --ranks")
    results = {
        "n": n,
        "positions": list(facet.positions),
        "descent_word": str(descent_word(facet)),
        "descent_coranks": sorted(descent_set(facet).ranks),
        "chain": facet.chain_type().serialize(),
    }
    if args.render:
        results["diagram"] = facet.render()
    return results, {}, 0


def cmd_vanish(args):
    import itertools

    n = args.n
    rows = []
    consistent = True
    for size in range(0, n - 1):
        for s in itertools.combinations(range(1, n - 1), size):
            rules = sorted(vanishing.vanishing_predicates(set(s), n))
            h = flags.flag_h(n, full_shape(n), set(s))
            ok = h == 0 if rules else True
            consistent = consistent and ok
            rows.append({"S": list(s), "h": h, "rules": rules, "consistent": ok})
    return {"n": n, "sets": rows, "consistent": consistent}, {}, 0 if consistent else 1


def cmd_stability(args):
    ranks = _parse_ranks(args.ranks, min(args.n, args.m))
    try:
        same = flags.check_stability(ranks, args.n, args.m)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    results = {
        "S": sorted(ranks),
        "n": args.n,
        "m": args.m,
        "equal": same,
        "values": {
            str(args.n): flags.flag_h(args.n, full_shape(args.n), ranks),
            str(args.m): flags.flag_h(args.m, full_shape(args.m), ranks),
        },
    }
    return results, {}, 0 if same else 1


def cmd_verify_all(args):
    reports = acceptance.run_all(max_n=args.max_n, verbose=not args.quiet)
    passed = all(r["passed"] for r in reports)
    return {"criteria": reports, "passed": passed}, {}, 0 if passed else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rsl",
        description="Flag h-vectors of rank-selected quotients of the partition lattice",
    )
    parser.add_argument("--cache-dir", default=os.environ.get("RSL_CACHE_DIR"))
    parser.add_argument("--csv", action="store_true", help="CSV output for tables")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table", help="full flag f/h table")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lambda", dest="lam", default="")
    p.add_argument("--dual", action="store_true", help="key entries by coranks")
    p.set_defaults(fn=cmd_table)

    p = sub.add_parser("b", help="trivial multiplicity for the full symmetric group")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ranks", required=True)
    p.set_defaults(fn=cmd_b)

    p = sub.add_parser("bprime", help="trivial multiplicity for the hook shape")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ranks", required=True)
    p.set_defaults(fn=cmd_bprime)

    p = sub.add_parser("partition-verify", help="check the interval partitioning")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lambda", dest="lam", default="")
    p.add_argument("--order", choices=["length-lex", "distinguished"])
    p.add_argument("--facets", action="store_true", help="include per-facet records")
    p.set_defaults(fn=cmd_partition_verify)

    p = sub.add_parser("construct", help="build a facet from a word or rank set")
    p.add_argument("--word")
    p.add_argument("--ranks")
    p.add_argument("--n", type=int)
    p.add_argument("--render", action="store_true")
    p.set_defaults(fn=cmd_construct)

    p = sub.add_parser("vanish", help="vanishing predicate sweep with consistency")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=cmd_vanish)

    p = sub.add_parser("stability", help="compare flag_h across two sizes")
    p.add_argument("--ranks", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(fn=cmd_stability)

    p = sub.add_parser("verify-all", help="run the acceptance battery")
    p.add_argument("--max-n", type=int, default=None)
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(fn=cmd_verify_all)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    t0 = time.perf_counter()
    try:
        results, extra, code = args.fn(args)
    except UsageError as exc:
        json.dump({"error": str(exc)}, sys.stdout)
        print()
        return 2
    report = {
        "command": args.command,
        "parameters": {
            k: v
            for k, v in vars(args).items()
            if k not in ("fn", "command", "csv") and v is not None
        },
        "results": results,
        "timing_seconds": round(time.perf_counter() - t0, 3),
    }
    report.update(extra)
    _emit(report, args.csv)
    return code


if __name__ == "__main__":
    sys.exit(main())
