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
g acts with cycle type mu groups g's cycles into block orbits.  An orbit of
length l takes cycles whose lengths l divides, and one group of t cycles
forms one orbit in l^(t-1) ways.  So the invariant partitions on whose
blocks g acts with cycle type nu are counted from multinomials and
S(s, j) l^(s-j), with no set partition enumerated (``transitions``).
"""

from __future__ import annotations

from itertools import product
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


def _stirling_rows(m: int) -> list:
    """S(s, j) for 0 <= j <= s <= m, as rows indexed by s."""
    rows = [[1]]
    for s in range(1, m + 1):
        prev = rows[-1] + [0]
        rows.append([0] + [j * prev[j] + prev[j - 1] for j in range(1, s + 1)])
    return rows


class FixedChains:
    """Sums of the fixed-chain lists F(mu) of cycle types of at most n
    points, with the transitions of each cycle type computed once for the
    life of the object.

    F(mu) counts the chains that coarsen a level of e + 1 blocks on which g
    acts with cycle type mu and that g fixes, as a list indexed by the mask
    of their coranks (bit c - 1 for corank c < e): entry 0 is the empty
    chain, and entries 2^(c-1) to 2^c - 1 are the chains whose finest level
    has corank c, that is c + 1 blocks.  So F(mu) is 1 followed, level by
    level, by sum over nu of T(mu -> nu) F(nu).  No F(nu) is stored: a
    weighted sum of them carries its weights down to each coarser level
    instead, so memory is the transitions and one path of weights, 32 MB at
    n = 18, where a list per cycle type held 13 million entries."""

    def __init__(self, n: int):
        self.stirling = _stirling_rows(n)
        self.memo = {}

    def transitions(self, mu: tuple) -> dict:
        """{nu: number of g-invariant partitions of the level on whose blocks
        g acts with cycle type nu}, g of cycle type ``mu``.

        The m_L cycles of length L split among the orbit lengths l dividing
        L in multinomially many ways; the s_l cycles sent to length l form
        j_l orbits in S(s_l, j_l) l^(s_l - j_l) ways, and nu has j_l parts
        equal to l."""
        lengths = sorted({l for L in set(mu) for l in range(1, L + 1) if L % l == 0})
        splits = {(0,) * len(lengths): 1}  # cycles sent to each orbit length -> ways
        for L in set(mu):
            m = mu.count(L)
            slots = [i for i, l in enumerate(lengths) if L % l == 0]
            shares = []
            for head in product(range(m + 1), repeat=len(slots) - 1):
                if sum(head) <= m:
                    share = (*head, m - sum(head))
                    shares.append((share, factorial(m) // prod(map(factorial, share))))
            merged = {}
            for split, ways in splits.items():
                for share, k in shares:
                    s = list(split)
                    for i, x in zip(slots, share):
                        s[i] += x
                    s = tuple(s)
                    merged[s] = merged.get(s, 0) + ways * k
            splits = merged
        out = {}
        for split, ways in splits.items():
            partial = {(): ways}  # nu so far, its parts descending -> ways
            for l, s in reversed(list(zip(lengths, split))):
                if s:
                    row = self.stirling[s]
                    partial = {
                        nu + (l,) * j: w * row[j] * l ** (s - j)
                        for nu, w in partial.items()
                        for j in range(1, s + 1)
                    }
            for nu, w in partial.items():
                out[nu] = out.get(nu, 0) + w
        return out

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
    for mask, total in enumerate(FixedChains(n).sums(weights, n)):
        f, rest = divmod(total, order)
        if rest:
            raise ArithmeticError(
                f"class-weighted count {total} at corank mask {mask} "
                f"is not divisible by |S_lambda| = {order}"
            )
        counts[mask] = f
    return counts
