"""The acceptance battery: one callable per criterion, exact assertions.

Each criterion returns a report dict; ``run_all`` executes every criterion
and is what both the test suite and the verify-all CLI subcommand run.
All checks are exact integer statements at the ranges fixed below.
"""

from __future__ import annotations

import itertools
import random
import sys
import time

from . import bars, construct, core, flags, orders, partitioning, vanishing
from .shapes import RankSet, full_shape, hook_shape

FULL_SHAPE_PARTITION_MAX_N = 7
HOOK_PARTITION_MAX_N = 6


def _report(num, name, passed, detail, t0):
    return {
        "criterion": num,
        "name": name,
        "passed": bool(passed),
        "detail": detail,
        "seconds": round(time.perf_counter() - t0, 2),
    }


def _subsets(ranks):
    ranks = list(ranks)
    for size in range(len(ranks) + 1):
        yield from itertools.combinations(ranks, size)


def criterion_1(max_n=9):
    """flag_h(n, (n), [1, i]) = 0 for all 1 <= i <= n-2, n <= 9."""
    t0 = time.perf_counter()
    bad = []
    for n in range(3, max_n + 1):
        for i in range(1, n - 1):
            h = flags.flag_h(n, full_shape(n), set(range(1, i + 1)))
            if h != 0:
                bad.append((n, i, h))
    if time.perf_counter() - t0 > 300:
        bad.append(("runtime", "exceeded 5 minutes"))
    return _report(1, "initial-segment vanishing", not bad, f"violations: {bad}", t0)


def criterion_2(max_n=8):
    """1 not in S implies flag_h >= 1, witnessed by a verified word facet."""
    t0 = time.perf_counter()
    bad = []
    count = 0
    for n in range(3, max_n + 1):
        for s in _subsets(range(2, n - 1)):
            s = set(s)
            count += 1
            h = flags.flag_h(n, full_shape(n), s)
            if h < 1:
                bad.append((n, sorted(s), "h", h))
                continue
            word = str(bars.DescentWord.from_dual_set(n, RankSet.primal(n, s).as_dual().ranks))
            if n >= 3 and word:
                facet = construct.build_word(word)  # raises if the word check fails
                if str(bars.descent_word(facet)) != word:
                    bad.append((n, sorted(s), "word"))
    if time.perf_counter() - t0 > 600:
        bad.append(("runtime", "exceeded 10 minutes"))
    return _report(2, "positivity for 1 not in S", not bad, f"{count} sets; violations: {bad}", t0)


def criterion_3(max_n=9):
    """Feasible S = {1..i, j_1..j_l}, j_1 > i+1, i <= l: h >= 1 and builder verifies."""
    t0 = time.perf_counter()
    bad = []
    count = 0
    for n in range(4, max_n + 1):
        for s in _subsets(range(1, n - 1)):
            shape = vanishing.classify_rank_set(set(s), n)
            if shape.kind != "initial-plus-tail":
                continue
            if shape.js[0] <= shape.i + 1 or shape.i > shape.l:
                continue
            count += 1
            construct.build_theorem22(set(s), n)  # verified internally
            if flags.flag_h(n, full_shape(n), set(s)) < 1:
                bad.append((n, sorted(s)))
    return _report(3, "positivity for i <= l rank sets", not bad, f"{count} sets; violations: {bad}", t0)


def criterion_4(max_n=9):
    """Any fired vanishing predicate forces flag_h = 0."""
    t0 = time.perf_counter()
    bad = []
    fired_total = 0
    for n in range(3, max_n + 1):
        for s in _subsets(range(1, n - 1)):
            s = set(s)
            rules = vanishing.vanishing_predicates(s, n)
            if rules:
                fired_total += 1
                if flags.flag_h(n, full_shape(n), s) != 0:
                    bad.append((n, sorted(s), sorted(rules)))
    return _report(4, "vanishing predicates", not bad, f"{fired_total} fired; violations: {bad}", t0)


def criterion_5():
    """flag_h at n = 7, 8, 9 agrees for every S inside [1, 3]."""
    t0 = time.perf_counter()
    bad = []
    for s in _subsets(range(1, 4)):
        s = set(s)
        top = max(s) if s else 0
        if not 7 > 2 * top:
            continue
        vals = [flags.flag_h(n, full_shape(n), s) for n in (7, 8, 9)]
        if len(set(vals)) != 1:
            bad.append((sorted(s), vals))
        if not flags.check_stability(s, 7, 9) or not flags.check_stability(s, 7, 8):
            bad.append((sorted(s), "check_stability"))
    return _report(5, "stability across n", not bad, f"violations: {bad}", t0)


def _schemes():
    out = []
    for n in range(3, FULL_SHAPE_PARTITION_MAX_N + 1):
        out.append(partitioning.verify_partitioning(n, full_shape(n)))
    for n in range(3, HOOK_PARTITION_MAX_N + 1):
        out.append(
            partitioning.verify_partitioning(n, hook_shape(n), orders.distinguished(hook_shape(n)))
        )
    return out


def criterion_6():
    """Partitioning verified: intervals disjoint, cover everything, sizes add up."""
    t0 = time.perf_counter()
    bad = []
    for scheme in _schemes():
        if scheme.status != "verified":
            bad.append((scheme.n, str(scheme.shape), [f.detail for f in scheme.failures[:2]]))
            continue
        total = sum(flags.full_table(scheme.n, scheme.shape).f.values())
        if scheme.interval_size_sum() != total:
            bad.append((scheme.n, str(scheme.shape), "interval sum"))
    return _report(6, "partitioning verified", not bad, f"violations: {bad}", t0)


def criterion_7():
    """h via minimal-face counts equals flag_h after dualizing, everywhere."""
    t0 = time.perf_counter()
    bad = []
    for scheme in _schemes():
        if scheme.status != "verified":
            bad.append((scheme.n, str(scheme.shape), "not verified"))
            continue
        n = scheme.n
        table = flags.full_table(n, scheme.shape)
        hmap = scheme.h_via_partitioning
        for s, h in table.h.items():
            dual = frozenset(n - 1 - r for r in s)
            if hmap.get(dual, 0) != h:
                bad.append((n, str(scheme.shape), sorted(s), h, hmap.get(dual, 0)))
    return _report(7, "partitioning h agreement", not bad, f"violations: {bad}", t0)


def criterion_8():
    """supp(G) equals the descent set on nontrivial-non-equal facets."""
    t0 = time.perf_counter()
    bad = []
    checked = 0
    for scheme in _schemes():
        for facet, dsup in zip(scheme.facets, scheme.min_dual_supports):
            if not bars.facet_block_conditions(facet)[1]:
                continue
            checked += 1
            if facet.descent_dual_set() != dsup:
                bad.append((scheme.n, str(scheme.shape), facet.positions))
    return _report(8, "descent characterization", not bad, f"{checked} facets; violations: {bad}", t0)


def criterion_9(max_n=8):
    """b' = 1 exactly on initial segments, else >= 2 with two distinct facets."""
    t0 = time.perf_counter()
    bad = []
    for n in range(3, max_n + 1):
        for s in _subsets(range(1, n - 1)):
            s = set(s)
            initial = sorted(s) == list(range(1, len(s) + 1))
            bp = flags.b_prime(n, s)
            facets = construct.build_bprime(s, n)
            if initial and (bp != 1 or len(facets) != 1):
                bad.append((n, sorted(s), bp, len(facets)))
            if not initial and (bp < 2 or len(facets) != 2):
                bad.append((n, sorted(s), bp, len(facets)))
            if len(facets) == 2 and facets[0].chain_type() == facets[1].chain_type():
                bad.append((n, sorted(s), "facets coincide"))
    return _report(9, "hook-shape multiplicities", not bad, f"violations: {bad}", t0)


def criterion_10(max_n=8):
    """Positivity forces a witness chain; a strong witness forces positivity."""
    t0 = time.perf_counter()
    bad = []
    checked = 0
    for n in range(4, max_n + 1):
        for s in _subsets(range(1, n - 1)):
            shape = vanishing.classify_rank_set(set(s), n)
            if shape.kind != "initial-plus-tail" or shape.js[0] <= shape.i + 1:
                continue
            checked += 1
            h = flags.flag_h(n, full_shape(n), set(s))
            witness = vanishing.chain_condition_search(set(s), n)
            if h > 0 and witness is None:
                bad.append((n, sorted(s), "necessity"))
            strong = vanishing.theorem31_witness(set(s), n)
            if strong is not None and h <= 0:
                bad.append((n, sorted(s), "sufficiency"))
            if strong is not None and witness is None:
                bad.append((n, sorted(s), "monotone"))
    return _report(10, "witness chain criteria", not bad, f"{checked} sets; violations: {bad}", t0)


def criterion_11():
    """Exact reproduction of the three worked facets."""
    t0 = time.perf_counter()
    bad = []
    f1 = construct.build_descending_run(10)
    if f1.positions != (2, 4, 6, 8, 7, 5, 3, 1, 9) or str(bars.descent_word(f1)) != "D" * 7 + "A":
        bad.append(("run-10", f1.positions))
    f2 = construct.build_descending_run(11)
    if f2.positions != (2, 4, 6, 8, 9, 7, 5, 3, 1, 10) or str(bars.descent_word(f2)) != "D" * 8 + "A":
        bad.append(("run-11", f2.positions))
    f3 = construct.build_word("DDDADDDDA", 11)
    if str(bars.descent_word(f3)) != "DDDADDDDA":
        bad.append(("glue-11", f3.positions))
    if f1.render() != "o|8o|1o|7o|2o|6o|3o|5o|4o|9o":
        bad.append(("render-10", f1.render()))
    if time.perf_counter() - t0 > 1:
        bad.append(("runtime", "worked facets should take milliseconds"))
    return _report(11, "worked facet reproduction", not bad, f"violations: {bad}", t0)


def _random_chain(rng, n):
    """A uniform-ish random chain: random maximal chain, random support."""
    partition = [frozenset(range(1, n + 1))]
    chain = []
    while any(len(b) > 1 for b in partition):
        idx = rng.choice([i for i, b in enumerate(partition) if len(b) > 1])
        block = sorted(partition[idx])
        rng.shuffle(block)
        cut = rng.randint(1, len(block) - 1)
        partition[idx : idx + 1] = [frozenset(block[:cut]), frozenset(block[cut:])]
        if 2 <= len(partition) <= n - 1:
            chain.append([frozenset(b) for b in partition])
    keep = [lv for lv in chain if rng.random() < 0.6]
    return keep or [chain[rng.randrange(len(chain))]]


def _permutation_equal(chain_a, chain_b, n):
    if [len(p) for p in chain_a] != [len(p) for p in chain_b]:
        return False
    target = [set(map(frozenset, p)) for p in chain_b]
    for perm in itertools.permutations(range(1, n + 1)):
        mapping = {i + 1: perm[i] for i in range(n)}
        ok = True
        for p, t in zip(chain_a, target):
            if {frozenset(mapping[e] for e in b) for b in p} != t:
                ok = False
                break
        if ok:
            return True
    return False


def criterion_12(max_n=8, pairs=1000):
    """Two enumeration routes agree; canonical equality is orbit equality."""
    t0 = time.perf_counter()
    bad = []
    for n in range(3, max_n + 1):
        shape = full_shape(n)
        for s in _subsets(range(1, n - 1)):
            got = core.faces_with_support(n, shape, set(s), cross_check=True)
            if not got and s == ():
                bad.append((n, "empty support missing"))
    rng = random.Random(20260810)
    for n in range(3, 7):
        shape = full_shape(n)
        for trial in range(pairs):
            a = _random_chain(rng, n)
            # reverse to finest-first ordering
            a = list(reversed(a))
            if trial % 2:
                perm = list(range(1, n + 1))
                rng.shuffle(perm)
                mapping = {i + 1: perm[i] for i in range(n)}
                b = [[frozenset(mapping[e] for e in blk) for blk in p] for p in a]
            else:
                b = list(reversed(_random_chain(rng, n)))
            same_type = core.canonicalize(a, shape) == core.canonicalize(b, shape)
            same_orbit = _permutation_equal(a, b, n)
            if same_type != same_orbit:
                bad.append((n, trial, a, b))
    return _report(12, "oracle cross-checks", not bad, f"violations: {bad[:2]}", t0)


def criterion_13(max_n=8):
    """Lengthening condition holds for both named orders, fails for the plant."""
    t0 = time.perf_counter()
    bad = []

    def all_shapes(n):
        def rec(remaining, most):
            if remaining == 0:
                yield ()
            for p in range(min(remaining, most), 0, -1):
                for rest in rec(remaining - p, p):
                    yield (p,) + rest

        return rec(n, n)

    for n in range(2, max_n + 1):
        for parts in all_shapes(n):
            if not orders.verify_lengthening(orders.length_lex(), n, parts):
                bad.append((n, parts, "length-lex"))
            if parts[-1] == 1:
                order = orders.distinguished(parts)
                if not orders.verify_lengthening(order, n, parts):
                    bad.append((n, parts, "distinguished"))
    if orders.verify_lengthening(orders.reverse_length(), 4, (4,)):
        bad.append((4, (4,), "reverse-length should fail"))
    return _report(13, "lengthening condition", not bad, f"violations: {bad}", t0)


CRITERIA = [
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
    criterion_11,
    criterion_12,
    criterion_13,
]


def run_all(max_n=None, verbose=False):
    """Run every criterion; ``max_n`` (if given) lowers the heavy ranges for
    a quick pass but never raises them above the contract values."""
    reports = []
    for num, fn in enumerate(CRITERIA, start=1):
        kwargs = {}
        if max_n is not None and "max_n" in fn.__code__.co_varnames[: fn.__code__.co_argcount]:
            default = fn.__defaults__[0]
            kwargs["max_n"] = min(max_n, default)
        try:
            rep = fn(**kwargs)
        except Exception as exc:  # a crash is a failure, not an abort
            rep = {
                "criterion": num,
                "name": fn.__name__,
                "passed": False,
                "detail": f"raised {type(exc).__name__}: {exc}",
                "seconds": 0.0,
            }
        reports.append(rep)
        if verbose:
            status = "PASS" if rep["passed"] else "FAIL"
            print(
                f"{status} criterion {rep['criterion']:2d} [{rep['name']}] "
                f"({rep['seconds']}s) {'' if rep['passed'] else rep['detail']}",
                file=sys.stderr,
            )
    return reports
