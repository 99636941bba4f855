"""Orbit counts of chains by Burnside's lemma over cycle types.

An orbit type of support T is an S_lambda orbit of chains of Pi_n with
ranks T, so f_T(lambda) is the average over g in S_lambda of the chains of
ranks T that g fixes.  That number depends only on the cycle type mu of g
(R. P. Stanley, "Some aspects of groups acting on finite posets", JCTA 32,
1982), so f_T(lambda) = sum over mu of |S_lambda meet C_mu| F_T(mu),
divided by |S_lambda|.  The class weights are integers and the division is
made once, at the end; ArithmeticError if it is not exact.

g fixes a chain when it fixes each of its partitions, and it then permutes
the blocks of each level.  Counted level by level from the finest, as in
Harary and Palmer's transform: a g-invariant partition of a level on which
g acts with cycle type mu groups g's cycles into block orbits, and the
invariant partitions on whose blocks g acts with cycle type nu are counted
one cycle of g at a time, with no set partition enumerated
(``FixedChains.transitions``): the new cycle's blocks form an orbit of
their own, or it joins an orbit of the other cycles' partition.
"""

from __future__ import annotations

from math import factorial, prod

__all__ = ["cycle_types", "class_weights", "FixedChains", "orbit_counts"]


def cycle_types(n: int) -> list:
    """Every partition of n as a weakly decreasing tuple, the largest first
    part first: (n), (n-1, 1), ..., (1, ..., 1)."""
    out = []

    def rec(left, top, prefix):
        if not left:
            out.append(prefix)
        for part in range(min(left, top), 0, -1):
            rec(left - part, part, prefix + (part,))

    rec(n, n, ())
    return out


def _centralizer(mu: tuple) -> int:
    """z_mu = prod over i of i^(m_i) m_i!, so that |C_mu| = |mu|! / z_mu."""
    return prod(i ** mu.count(i) * factorial(mu.count(i)) for i in set(mu))


def class_weights(parts) -> dict:
    """{mu: |S_lambda meet C_mu|} over the cycle types mu of S_lambda, the
    Young subgroup of the shape ``parts``: each factor S_p contributes a
    class of p!/z cycle type, and the cycles of the factors merge."""
    weights = {(): 1}
    for p in parts:
        merged = {}
        for mu, w in weights.items():
            for nu in cycle_types(p):
                key = tuple(sorted(mu + nu, reverse=True))
                merged[key] = merged.get(key, 0) + w * (factorial(p) // _centralizer(nu))
        weights = merged
    return weights


class FixedChains:
    """Sums of the fixed-chain lists F(mu) of cycle types, with the
    transitions of each cycle type computed once for the life of the
    object.

    F(mu) counts the chains that coarsen a level of e + 1 blocks on which g
    acts with cycle type mu and that g fixes, as a list indexed by the mask
    of their coranks (bit c - 1 for corank c < e): entry 0 is the empty
    chain, and entries 2^(c-1) to 2^c - 1 are the chains whose finest level
    has corank c, that is c + 1 blocks.  So F(mu) is 1 followed, level by
    level, by sum over nu of T(mu -> nu) F(nu).  No F(nu) is stored: a
    weighted sum of them carries its weights down to each coarser level
    instead, so memory is the transitions and one path of weights: a count
    of (18) peaks at 31 MB, where a list per cycle type held 13 million
    entries.

    T(mu -> nu) is built one cycle at a time: the transitions of every
    prefix of a cycle type are kept (``tables``), so cycle types that share
    a prefix share its work."""

    def __init__(self):
        self.tables = {(): {(): 1}}  # cycle type -> its transitions, every prefix kept
        self.memo = {}

    def transitions(self, mu: tuple) -> dict:
        """{nu: number of g-invariant partitions of the level on whose blocks
        g acts with cycle type nu}, g of cycle type ``mu``, nu descending.

        With one more cycle, of length L, on an invariant partition of the
        other points whose blocks have cycle type nu, the blocks meeting the
        cycle form one orbit of a length l dividing L.  Either they hold
        only its points, one way, giving nu + (l,); or the cycle joins one
        of the j_l(nu) orbits of length l, in l alignments each, leaving nu.
        Extended from the longest prefix already kept, in a loop, so the
        depth of the interpreter's stack does not grow with len(mu).  The
        dict is kept: later calls for mu, and for every cycle type that
        extends it, read it, so callers must not mutate it."""
        k = len(mu)
        while mu[:k] not in self.tables:
            k -= 1
        got = self.tables[mu[:k]]
        for i in range(k, len(mu)):
            L = mu[i]
            lengths = [l for l in range(1, L + 1) if L % l == 0]
            grown = {}
            for nu, w in got.items():
                for l in lengths:
                    at = len(nu)  # where l goes in the descending nu
                    while at and nu[at - 1] < l:
                        at -= 1
                    key = nu[:at] + (l,) + nu[at:]
                    grown[key] = grown.get(key, 0) + w
                    j = nu.count(l)
                    if j:
                        grown[nu] = grown.get(nu, 0) + w * l * j
            got = self.tables[mu[: i + 1]] = grown
        return got

    def _coarser(self, mu: tuple) -> list:
        """``transitions(mu)`` to the proper coarser levels, 2 to |mu| - 1
        blocks, as (number of blocks, nu, count); computed once per object."""
        got = self.memo.get(mu)
        if got is None:
            size = sum(mu)
            got = self.memo[mu] = [
                (sum(nu), nu, k) for nu, k in self.transitions(mu).items() if 2 <= sum(nu) < size
            ]
        return got

    def sums(self, weighted: dict, size: int) -> list:
        """sum over nu of weighted[nu] F(nu), for cycle types nu of ``size``
        points, with no F(nu) stored.  Entry 0 is the sum of the weights.
        The weights carried to a coarser level of k blocks are
        W(nu') = sum over nu of weighted[nu] T(nu -> nu'), and its entries
        are sum over nu' of W(nu') F(nu'), from the same call on k points."""
        carried = [{} for _ in range(size)]
        for mu, w in weighted.items():
            for k, nu, t in self._coarser(mu):
                level = carried[k]
                level[nu] = level.get(nu, 0) + w * t
        got = [sum(weighted.values())]
        for k in range(2, size):
            got += self.sums(carried[k], k)
        return got


def orbit_counts(shape) -> dict:
    """f of every support of the shape, as {corank mask: number of orbit
    types}, bit d - 1 standing for corank d.

    The root level is the ground set, on which g acts with its own cycle
    type, so the sum over the classes of S_lambda, weighted, is carried
    down from it at once.  ArithmeticError if a class-weighted sum is not
    divisible by |S_lambda|."""
    n = shape.n
    if n < 2:
        raise ValueError("need n >= 2")
    weights = class_weights(shape.parts)
    order = prod(map(factorial, shape.parts))
    counts = {}
    for mask, total in enumerate(FixedChains().sums(weights, n)):
        f, rest = divmod(total, order)
        if rest:
            raise ArithmeticError(
                f"class-weighted count {total} at corank mask {mask} "
                f"is not divisible by |S_lambda| = {order}"
            )
        counts[mask] = f
    return counts
