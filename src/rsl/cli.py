"""Command-line front end.

Subcommands: table, b, bprime, partition-verify, construct, vanish,
stability, verify-all.  Ranks on the command line are always lattice
ranks; corank views appear only with --dual.  Output is JSON by default,
CSV for tables with --csv.  Exit codes: 0 success, 1 verification failure,
2 usage error.

Each request runs in a fresh process, so a module that only some
subcommands need loads inside them: ``construct`` and
``partition-verify`` load the facet walk (``bars``), ``construct`` also
the facet builders, ``vanish`` the vanishing predicates, and
``verify-all`` the acceptance battery and its oracles; table, b, bprime,
stability and vanish never load the walk.  ``construct`` refuses n above
``CONSTRUCT_MAX_N`` (100), counting n as the word length + 2 when --n is
not given, with exit 2.

With --cache-dir (or RSL_CACHE_DIR), table and vanish read whole flag
tables from the disk cache (``rsl.cache``, loaded only then) and report
cache_hit; only table writes it.  b, bprime and stability never touch it.

b, bprime and stability ask about one rank set S.  They count only the
subsets of S (``flags.support_table``), so ``rsl b --n 16 --ranks 2,3``
answers in milliseconds, unless S has more than ``ONE_S_MAX_FACES``
(200,000) orbit types (``core.support_count``): then they read h_S from
the whole table, counted in memory, up to ``TABLE_MAX_N``, and refuse
above it.  table and vanish count the whole table (``flags.full_table``).
None builds a face.  Each refuses with exit 2 before counting: one-S
queries n above ``ONE_S_MAX_N`` (1,600) or, above ``TABLE_MAX_N``, an S
past the pre-count; table and vanish n above ``TABLE_MAX_N`` (18);
``partition-verify`` more than ``PARTITION_MAX_FACETS`` (60,000) facets,
before the walk.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import time

from . import flags, orders, partitioning
from .core import support_count
from .shapes import RankSet, checked_shape, full_shape, hook_shape


CONSTRUCT_MAX_N = 100
"""The largest n that ``construct`` builds.  The cost of ``build_word``
grows about as n^3 on its worst word, the descending run D^(n-3)A: 0.23 s
at n = 100 and 2.2 s at n = 200 on a 2-vCPU host with Python 3.11.  The
library's builders take any n."""

TABLE_MAX_N = 18
"""The largest n whose whole flag table ``table`` and ``vanish`` count,
and one-S queries past ``ONE_S_MAX_FACES`` read.
On a 2-vCPU host with Python 3.11, ``rsl table --n 18`` takes about 3 s
and 120 MB, most of it the 2^(n-2) entries of the table and its report,
which double with each larger n; the count alone takes 0.39 s and 31 MB,
and 0.75 s and 43 MB at n = 19.  No shape of n costs markedly more to
count than (n): at n = 18, (17,1) took 0.37 s, (9,9) 0.40 s, (6,6,6)
0.36 s and (1^18) 0.13 s (medians of 5 fresh processes).
``flags.full_table`` takes any n."""

ONE_S_MAX_FACES = 200_000
"""The most orbit types of support S (f_S, ``core.support_count``) for
which b, bprime and stability count only the subsets of S.  Past it they
read h_S from the whole table, counted in memory, at n up to
``TABLE_MAX_N``, and refuse above: the bound picks the builder at n <= 18
and refuses only above it.  It bounds the pre-count of S, which meets at
most the bound + 1 partitions a level before it stops; the subset table
costs what its partitions cost, not f: f_{1..9}(14) = 192,627 takes about
0.4 s and 16 MB on a 2-vCPU host with Python 3.11, and the whole table
for a heavy S at n = 18 about 1 s and 83 MB.  Refusals took 1.3 s for
S = {5, 10, .., 35} at n = 40 (17 s with a bound of 1.5 million) and up
to 10 s at n = 30; S = {60} at n = 120 takes about 20 minutes, as its
partitions come at about 170 a second."""

ONE_S_MAX_N = 1_600
"""The largest n at which b, bprime and stability answer a query about one
S.  A one-S query costs about n^2 even when f_S is small, since counting
S partitions the ground set into blocks of every size, once for the
pre-count and the table together (``core._coarsenings``): at n = 1,600,
S = {1} takes 0.5 to 0.9 s, {1, 1598} 0.5 to 0.8 s and {1, 2} 2.5 to
4.1 s on a 2-vCPU host with Python 3.11 (``timing_seconds``, 5 runs
each).  The library's functions take any n."""


PARTITION_MAX_FACETS = 60_000
"""The most facets ``partition-verify`` walks.  Its cost grows with the
facet count: (11), with 50,521 facets, takes about 5 to 6 s and 250 to
260 MB on a 2-vCPU host with Python 3.11 (peak memory differs by up to
10 MB from run to run), and (12) has 353,792.  The facets are
counted before the walk (``core.support_count`` on the full support),
first those of (n): a smaller group has at least as many orbits, so
E_(n-1), the facet count of (n), bounds every shape of n from below, and
a large n is refused without counting its shape.  The count stops past
the bound: 3 ms at (11), 19 ms at (1^11) and 30 ms at (1^20).
``partitioning.verify_partitioning`` takes any size."""


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
        return checked_shape(n, tuple(int(x) for x in text.split(",")))
    except ValueError as exc:
        raise UsageError(f"bad shape {text!r}: {exc}") from exc


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
    else:  # json.dump would make one write per chunk of the encoder
        chunks = json.JSONEncoder(indent=2, sort_keys=True).iterencode(report)
        while batch := "".join(itertools.islice(chunks, 1 << 16)):
            sys.stdout.write(batch)
        sys.stdout.write("\n")


def _table_refusal(n):
    """Why the whole table at n is not counted, or None: n above
    ``TABLE_MAX_N``."""
    if n > TABLE_MAX_N:
        return f"whole tables are counted up to n={TABLE_MAX_N}, got n={n}"
    return None


def _partition_refusal(n, shape):
    """Why the partitioning of (n, shape) is not checked, or None: more
    than ``PARTITION_MAX_FACETS`` facets, for (n) or else for the shape."""
    coranks = tuple(range(1, n - 1))
    full = full_shape(n)
    for counted in (full,) if shape == full else (full, shape):
        if support_count(counted, coranks, PARTITION_MAX_FACETS) > PARTITION_MAX_FACETS:
            return (
                f"lambda={','.join(map(str, shape.parts))} at n={n} has more than "
                f"{PARTITION_MAX_FACETS} facets, too many to walk"
            )
    return None


def _table(n, shape, cache_dir):
    """Whole flag table entries [(ranks, f, h), ...] and whether they came
    from the cache, which only table and vanish read and never write here.
    UsageError for a table that ``_table_refusal`` refuses, before anything
    is read or counted."""
    refusal = _table_refusal(n)
    if refusal:
        raise UsageError(refusal)
    if cache_dir:
        from . import cache  # loaded only when a cache dir is given

        entries = cache.load_table(cache_dir, n, shape)
        if entries is not None:
            return entries, True
    return flags.full_table(n, shape).entries(), False


def _h_value(n, shape, ranks):
    """h of the one rank set ``ranks`` (a frozenset of lattice ranks),
    counted over the subsets of ``ranks`` when S has at most
    ``ONE_S_MAX_FACES`` orbit types, else read from the whole table,
    counted in memory, when ``_table_refusal`` accepts n; UsageError
    otherwise, before anything past the pre-count is counted."""
    dual_levels = RankSet.primal(n, ranks).as_dual().sorted()
    if support_count(shape, dual_levels, ONE_S_MAX_FACES) <= ONE_S_MAX_FACES:
        return flags.support_table(n, shape, ranks).h[ranks]
    if _table_refusal(n) is None:
        return flags.flag_h(n, shape, ranks)
    raise UsageError(
        f"S={','.join(map(str, sorted(ranks)))} has more than {ONE_S_MAX_FACES} "
        f"orbit types at n={n}"
    )


def cmd_table(args):
    n, shape = args.n, _parse_shape(args.lam, args.n)
    entries, hit = _table(n, shape, args.cache_dir)
    if args.cache_dir and not hit:
        from . import cache  # loaded by _table

        try:
            cache.store_table(args.cache_dir, flags.full_table(n, shape))  # computed above
        except OSError as exc:
            raise UsageError(f"cannot write the cache: {exc}") from exc
    out = []
    for s, f, h in entries:
        key = tuple(sorted(n - 1 - r for r in s)) if args.dual else s
        out.append({"S": list(key), "f": f, "h": h})
    return {"n": n, "lambda": list(shape.parts), "entries": out}, {"cache_hit": hit}, 0


def _refuse_one_s(*sizes):
    """UsageError for a one-S query at a size above ``ONE_S_MAX_N``, before
    anything is counted."""
    n = max(sizes)
    if n > ONE_S_MAX_N:
        raise UsageError(f"one-S queries are answered up to n={ONE_S_MAX_N}, got n={n}")


def cmd_b(args):
    _refuse_one_s(args.n)
    ranks = _parse_ranks(args.ranks, args.n)
    h = _h_value(args.n, full_shape(args.n), ranks)
    return {"n": args.n, "S": sorted(ranks), "b": h}, {}, 0


def cmd_bprime(args):
    _refuse_one_s(args.n)
    ranks = _parse_ranks(args.ranks, args.n)
    h = _h_value(args.n, hook_shape(args.n), ranks)
    return {"n": args.n, "S": sorted(ranks), "bprime": h}, {}, 0


def cmd_partition_verify(args):
    shape = _parse_shape(args.lam, args.n)
    order = _order_for(args.order, shape)
    refusal = _partition_refusal(args.n, shape)
    if refusal:
        raise UsageError(refusal)
    try:
        scheme = partitioning.verify_partitioning(args.n, shape, order)
    except partitioning.LengtheningError as exc:
        raise UsageError(str(exc)) from exc
    results = {
        "n": args.n,
        "lambda": list(shape.parts),
        "order": str(order),
        "status": scheme.status,
        "facet_count": len(scheme.facets),
        "interval_size_sum": scheme.interval_size_sum(),
        "failures": [f.detail for f in scheme.failures],
        "h_via_partitioning": sorted(
            [[sorted(k), v] for k, v in (scheme.h_via_partitioning or {}).items()]
        ),
        "facets": _facet_records(scheme) if args.facets else None,
    }
    return results, {}, 0 if scheme.status == "verified" else 1


def _facet_records(scheme) -> list:
    """The per-facet report of ``partition-verify --facets``."""
    from .bars import descent_word, facet_block_conditions

    records = []
    for facet, min_face, dsup in zip(scheme.facets, scheme.minimal_faces, scheme.min_dual_supports):
        strict, relaxed = facet_block_conditions(facet)
        records.append(
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
    return records


def cmd_construct(args):
    from . import construct  # the facet builders load only for this command
    from .bars import descent_set, descent_word

    n = args.n
    if n is None and args.word:
        n = len(args.word) + 2
    if n is not None and n > CONSTRUCT_MAX_N:
        raise UsageError(f"construct builds facets up to n={CONSTRUCT_MAX_N}, got n={n}")
    if args.word:
        try:
            facet = construct.build_word(args.word, n)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    elif args.ranks is not None:
        if n is None:
            raise UsageError("--ranks needs --n")
        ranks = _parse_ranks(args.ranks, n)
        try:
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
    from . import vanishing

    n = args.n
    entries, hit = _table(n, full_shape(n), args.cache_dir)
    h_of = {s: h for s, _, h in entries}
    rows = []
    consistent = True
    for size in range(0, n - 1):
        for s in itertools.combinations(range(1, n - 1), size):
            rules = sorted(vanishing.vanishing_predicates(set(s), n))
            h = h_of[s]
            ok = h == 0 if rules else True
            consistent = consistent and ok
            rows.append({"S": list(s), "h": h, "rules": rules, "consistent": ok})
    results = {"n": n, "sets": rows, "consistent": consistent}
    return results, {"cache_hit": hit}, 0 if consistent else 1


def cmd_stability(args):
    _refuse_one_s(args.n, args.m)
    ranks = _parse_ranks(args.ranks, min(args.n, args.m))
    try:
        s = flags.stability_ranks(ranks, args.n, args.m)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    h_n = _h_value(args.n, full_shape(args.n), s)
    h_m = _h_value(args.m, full_shape(args.m), s)
    same = h_n == h_m
    results = {
        "S": sorted(ranks),
        "n": args.n,
        "m": args.m,
        "equal": same,
        "values": {str(args.n): h_n, str(args.m): h_m},
    }
    return results, {}, 0 if same else 1


def cmd_verify_all(args):
    from . import acceptance  # the battery and its oracles load only for this command

    try:
        reports = acceptance.run_all(max_n=args.max_n, verbose=not args.quiet)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    passed = all(r["passed"] for r in reports)
    return {"criteria": reports, "passed": passed}, {}, 0 if passed else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rsl",
        description="Flag h-vectors of rank-selected quotients of the partition lattice",
    )
    parser.add_argument("--cache-dir", default=os.environ.get("RSL_CACHE_DIR"),
                        help="stored whole tables: read by table and vanish, written by table")
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
        for size in ("n", "m"):
            value = getattr(args, size, None)
            if value is not None and value < 2:
                raise UsageError(f"need {size} >= 2, got {size}={value}")
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
