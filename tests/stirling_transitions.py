"""The transitions of ``rsl.classes.FixedChains`` counted by splitting cycles
among orbit lengths, kept as a test oracle with which it shares no code.

For g of cycle type mu, a g-invariant partition groups g's cycles into
block orbits.  An orbit of length l takes cycles whose lengths l divides,
and one group of t cycles forms one orbit in l^(t-1) ways.  So the m_L
cycles of length L split among the orbit lengths l dividing L in
multinomially many ways, and the s_l cycles sent to length l form j_l
orbits in S(s_l, j_l) l^(s_l - j_l) ways, where S is the Stirling number of
the second kind and nu has j_l parts equal to l.
"""

from itertools import product
from math import factorial, prod


def _stirling_rows(m: int) -> list:
    """S(s, j) for 0 <= j <= s <= m, as rows indexed by s."""
    rows = [[1]]
    for s in range(1, m + 1):
        prev = rows[-1] + [0]
        rows.append([0] + [j * prev[j] + prev[j - 1] for j in range(1, s + 1)])
    return rows


def transitions(mu: tuple) -> dict:
    """{nu: number of g-invariant partitions on whose blocks g acts with
    cycle type nu}, g of cycle type ``mu``, nu descending."""
    stirling = _stirling_rows(len(mu))
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
                row = stirling[s]
                partial = {
                    nu + (l,) * j: w * row[j] * l ** (s - j)
                    for nu, w in partial.items()
                    for j in range(1, s + 1)
                }
        for nu, w in partial.items():
            out[nu] = out.get(nu, 0) + w
    return out
