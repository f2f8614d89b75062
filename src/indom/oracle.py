"""Brute-force ground truth for domination numbers.

Everything here favors transparency over speed: two independent solvers for
set domination (branch-and-bound and exhaustive subset scan) and a maximal
independent set enumerator. Class-specific solvers are accepted only by
agreement with this module on small instances. Practical ceiling is n <= ~18.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .graph import (Graph, GraphError, bits, dominates, is_independent, mask_from, mask_to_list,
                    vertex_set)


@dataclass(frozen=True)
class DominationCertificate:
    """Witness pair proving a reported independence-domination value.

    ``independent_set`` is independent in the host graph, ``dominating_set``
    dominates it, and ``value == |dominating_set|``.
    """

    independent_set: int
    dominating_set: int
    value: int

    def as_dict(self):
        return {
            "independent_set": mask_to_list(self.independent_set),
            "dominating_set": mask_to_list(self.dominating_set),
            "value": self.value,
        }


def verify_certificate(g: Graph, cert: DominationCertificate) -> bool:
    return (
        is_independent(g, cert.independent_set)
        and dominates(g, cert.dominating_set, cert.independent_set)
        and cert.dominating_set.bit_count() == cert.value
    )


def gamma_of_set(g: Graph, b) -> tuple[int, int]:
    """Minimum number of vertices dominating the set b, with a witness mask.

    Exact branch and bound: pick an undominated target with the fewest
    candidate dominators and branch on its closed neighborhood.
    """
    b = vertex_set(g, b)
    if b == 0:
        return 0, 0
    closed = g.closed

    # greedy cover gives the initial upper bound
    uncovered = b
    greedy = 0
    while uncovered:
        best_v = max(range(g.n), key=lambda v: (closed[v] & uncovered).bit_count())
        greedy |= 1 << best_v
        uncovered &= ~closed[best_v]
    best = [greedy.bit_count(), greedy]

    def lower_bound(uncovered):
        max_cov = 1
        for v in range(g.n):
            c = (closed[v] & uncovered).bit_count()
            if c > max_cov:
                max_cov = c
        return -(-uncovered.bit_count() // max_cov)

    def descend(uncovered, chosen, size):
        if uncovered == 0:
            if size < best[0]:
                best[0] = size
                best[1] = chosen
            return
        if size + lower_bound(uncovered) >= best[0]:
            return
        # target with fewest candidate dominators; candidates are closed[v]
        target = min(bits(uncovered), key=lambda v: closed[v].bit_count())
        cands = sorted(
            bits(closed[target]),
            key=lambda w: -(closed[w] & uncovered).bit_count(),
        )
        for w in cands:
            descend(uncovered & ~closed[w], chosen | (1 << w), size + 1)

    descend(b, 0, 0)
    return best[0], best[1]


def gamma_of_set_exhaustive(g: Graph, b) -> tuple[int, int]:
    """Independent second oracle: scan subsets by increasing size. n <= ~12."""
    b = vertex_set(g, b)
    if b == 0:
        return 0, 0
    closed = g.closed
    for size in range(1, g.n + 1):
        for combo in itertools.combinations(range(g.n), size):
            cover = 0
            for v in combo:
                cover |= closed[v]
            if b & ~cover == 0:
                return size, mask_from(combo)
    raise GraphError("unreachable: V always dominates b")


def gamma(g: Graph) -> tuple[int, int]:
    """Domination number of the whole graph, with witness."""
    return gamma_of_set(g, g.full_mask)


def enumerate_maximal_independent_sets(g: Graph) -> Iterator[int]:
    """Yield every maximal independent set of g exactly once, as masks.

    Pivoting clique enumeration on the complement adjacency. Order is
    unspecified; callers may stop early.
    """
    if g.n == 0:
        yield 0
        return
    full = g.full_mask
    # complement adjacency rows
    crow = [(full & ~g.row[v]) & ~(1 << v) for v in range(g.n)]

    def expand(r, p, x):
        if p == 0 and x == 0:
            yield r
            return
        pivot = max(bits(p | x), key=lambda w: ((p & crow[w]).bit_count(), w))
        ext = p & ~crow[pivot]
        for v in bits(ext):
            vb = 1 << v
            yield from expand(r | vb, p & crow[v], x & crow[v])
            p &= ~vb
            x |= vb

    yield from expand(0, full, 0)


def gamma_i_oracle(g: Graph) -> tuple[int, DominationCertificate]:
    """Independence-domination number by exhaustion over maximal independent sets.

    gamma_of_set is monotone under set inclusion, so restricting the outer
    maximum to maximal independent sets is exact.
    """
    best_value = 0
    best_cert = DominationCertificate(0, 0, 0)
    for m in enumerate_maximal_independent_sets(g):
        value, witness = gamma_of_set(g, m)
        if value > best_value:
            best_value = value
            best_cert = DominationCertificate(m, witness, value)
    return best_value, best_cert
