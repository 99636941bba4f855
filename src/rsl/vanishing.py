"""Vanishing predicates and the chain-existence criteria.

Four predicates force the trivial multiplicity to zero: an initial-segment
rank set; a rank set containing [1, floor((n+1)/2)]; an initial segment
[1, r] with one hole k satisfying 2k > r + 1; and [1, r] plus a single
rank outside [C(r+2, 2), n-r-1].

For rank sets {1..i, j_1..j_l}, positivity forces a chain whose bottom
element has i pair blocks and whose first upper element carries at least
i+1 nontrivial blocks in distinct stabilizer orbits.  The search reduces
the skeleton criterion to that orbit count: invariant homology of the
(i-1)-skeleton of a simplex on j orbit-vertices vanishes unless j > i.
"""

from __future__ import annotations

import itertools
from math import comb

from .core import ChainType, block_orbits, canonicalize, faces_with_support
from .shapes import RankSet, Record, content_size, full_shape

__all__ = [
    "RankSetShape",
    "WitnessChain",
    "classify_rank_set",
    "vanishing_predicates",
    "chain_condition_search",
    "theorem31_witness",
    "delta_beta_nonvanishing",
]


class RankSetShape(Record):
    """Exhaustive, mutually exclusive classification of a rank set: ``kind``
    is "initial-segment", "initial-plus-tail" or "no-1"."""

    __slots__ = ("kind", "i", "js")

    def __init__(self, kind: str, i: int, js: tuple):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "js", js)

    @property
    def l(self) -> int:
        return len(self.js)


class WitnessChain(Record):
    """A chain and its count of distinct stabilizer orbits of nontrivial
    bottom blocks."""

    __slots__ = ("chain", "orbit_count")

    def __init__(self, chain: ChainType, orbit_count: int):
        object.__setattr__(self, "chain", chain)
        object.__setattr__(self, "orbit_count", orbit_count)


def classify_rank_set(ranks, n: int) -> RankSetShape:
    s = sorted(RankSet.primal(n, ranks).ranks)
    i = 0
    while i < len(s) and s[i] == i + 1:
        i += 1
    js = tuple(s[i:])
    if i == 0:
        return RankSetShape("no-1", 0, js)
    if not js:
        return RankSetShape("initial-segment", i, ())
    return RankSetShape("initial-plus-tail", i, js)


def vanishing_predicates(ranks, n: int) -> frozenset:
    """Fired rules among {initial, halfset, gap, single-a}; every fired rule
    forces flag_h(n, (n), S) = 0."""
    s = frozenset(RankSet.primal(n, ranks).ranks)
    fired = set()
    shape = classify_rank_set(s, n)
    if shape.kind == "initial-segment":
        fired.add("initial")
    if s >= set(range(1, (n + 1) // 2 + 1)):
        fired.add("halfset")
    if s:
        r = max(s)
        missing = set(range(1, r + 1)) - s
        if len(missing) == 1:
            k = missing.pop()
            # hole strictly past the midpoint: 2k > r + 1.  The weaker bound
            # 2k > r admits k = (r+1)/2, where {1..k-1, k+1..2k-1} supports a
            # positive multiplicity (the i = l construction), so it is excluded.
            if 2 * k > r + 1:
                fired.add("gap")
    if shape.kind in ("initial-segment", "initial-plus-tail") and len(shape.js) <= 1:
        # S = [1, r] u {a}; a = r + 1 degenerates to the initial segment
        if shape.js:
            r, a = shape.i, shape.js[0]
        elif shape.i >= 2:
            r, a = shape.i - 1, shape.i
        else:
            r = a = None
        if a is not None and not comb(r + 2, 2) <= a <= n - r - 1:
            fired.add("single-a")
    return frozenset(fired)


def _tail_shape(ranks, n: int) -> RankSetShape | None:
    """The classification of S = {1..i, j_1..j_l} a witness search reads, or
    None for an initial segment, which has no upper chain to carry one."""
    shape = classify_rank_set(ranks, n)
    if shape.kind == "initial-segment":
        return None
    if shape.kind != "initial-plus-tail":
        raise ValueError("rank set must have the form {1..i, j_1..j_l} with i >= 1")
    return shape


def _beta_chains(js: tuple, n: int):
    return sorted(
        faces_with_support(n, full_shape(n), js),
        key=lambda c: (c.dual_levels, c.roots),
    )


def _surviving_orbits(beta: ChainType, i: int) -> list:
    """(orbit, room) for each stabilizer orbit of nontrivial bottom blocks
    of beta, its block indices and the pair blocks one of them holds, when
    there are more than i such orbits; else [].  This is the test of
    ``delta_beta_nonvanishing``."""
    contents = [node[0] for node in beta.level_nodes(len(beta.dual_levels) - 1)]
    orbits = block_orbits(beta, beta.support[0])
    rooms = [(orbit, content_size(contents[orbit[0]]) // 2) for orbit in orbits]
    nontrivial = [(orbit, room) for orbit, room in rooms if room]
    return nontrivial if len(nontrivial) > i else []


def _attach_alpha(beta: ChainType, block_indices, i: int) -> ChainType:
    """The chain alpha_1 < ... < alpha_i < beta with one pair block packed
    into each listed bottom block of beta, in order."""
    explicit = beta.realize()
    bottom = explicit[0]
    pairs = []
    offsets = {}
    for idx in block_indices:
        o = offsets.get(idx, 0)
        members = sorted(bottom[idx])
        pairs.append(frozenset(members[o : o + 2]))
        offsets[idx] = o + 2
    chain = []
    for r in range(1, i + 1):
        used = set().union(*pairs[:r])
        partition = pairs[:r] + [frozenset([e]) for e in range(1, beta.n + 1) if e not in used]
        chain.append(partition)
    return canonicalize(chain + explicit, full_shape(beta.n))


def chain_condition_search(ranks, n: int) -> WitnessChain | None:
    """Search for the chain forced by positivity over S = {1..i, j_1..j_l}.

    Scans every orbit of support {j_1..j_l}; a witness needs at least i+1
    stabilizer orbits of nontrivial bottom blocks and room for i disjoint
    pair blocks.  Returns None when no orbit qualifies.
    """
    shape = _tail_shape(ranks, n)
    if shape is None:
        return None
    i = shape.i
    for beta in _beta_chains(shape.js, n):
        orbits = _surviving_orbits(beta, i)
        if orbits:
            packed = [idx for orbit, room in orbits for idx in orbit for _ in range(room)]
            witness = _attach_alpha(beta, packed[:i], i)
            return WitnessChain(chain=witness, orbit_count=len(orbits))
    return None


def delta_beta_nonvanishing(beta: ChainType, i: int) -> bool:
    """Whether the invariant homology of the skeleton complex survives:
    true exactly when the nontrivial bottom blocks of the chain fall into
    more than i stabilizer orbits (with room for the i pair blocks, which
    the orbit count already guarantees)."""
    if not beta.dual_levels:
        raise ValueError("need a nonempty chain")
    return bool(_surviving_orbits(beta, i))


def theorem31_witness(ranks, n: int) -> ChainType | None:
    """A full chain of support {1..i, j_1..j_l} meeting the positivity
    hypotheses: pair blocks in i distinct-orbit nontrivial blocks of the
    bottom upper element, a spare distinct orbit, and the strict non-equal
    block condition on the lex-least extension."""
    from .bars import block_conditions

    shape = _tail_shape(ranks, n)
    if shape is None:
        return None
    i = shape.i
    for beta in _beta_chains(shape.js, n):
        reps = [orbit[0] for orbit, _ in _surviving_orbits(beta, i)]
        for chosen in itertools.permutations(reps, i):
            witness = _attach_alpha(beta, list(chosen), i)
            if block_conditions(witness)[0]:
                return witness
    return None
