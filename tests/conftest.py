"""Shared helpers for the test suite."""

import random

from indom import Graph
from indom.distance_hereditary import JOIN, PruneOp
from indom.graph import bits


def random_outerplanar(n, seed):
    """Cycle plus random non-crossing chords (partial polygon triangulation)."""
    rng = random.Random(seed)
    edges = {(i, (i + 1) % n) for i in range(n)}

    def chords(lo, hi):
        if hi - lo < 2:
            return
        if rng.random() < 0.7:
            mid = rng.randint(lo + 1, hi - 1)
            if not (lo == 0 and hi == n - 1):
                edges.add((lo, hi))
            chords(lo, mid)
            chords(mid, hi)

    chords(0, n - 1)
    return Graph(n, sorted(edges))


def subsets_of(mask):
    """All subsets of a bit mask, including 0 and the mask itself."""
    out = []
    sub = mask
    while True:
        out.append(sub)
        if sub == 0:
            return out
        sub = (sub - 1) & mask


def cover_of(g, dmask):
    cover = 0
    for v in bits(dmask):
        cover |= g.closed[v]
    return cover


def twinset_of(g, w):
    """The members of part w with a neighbour outside w."""
    outside = g.full_mask & ~w
    return sum(1 << v for v in bits(w) if g.row[v] & outside)


def assert_rank_one(g, d):
    """Across every node's cut, a left vertex sees exactly the right twinset
    if it is in the left twinset under a JOIN, and nothing otherwise."""
    for node in d.postorder():
        if node.is_leaf:
            continue
        q1, q2 = node.left.q, node.right.q
        for v in bits(node.left.w):
            cross = g.row[v] & node.right.w
            if node.label == JOIN and (q1 >> v) & 1:
                assert cross == q2
            else:
                assert cross == 0


def valid_ops(g, alive):
    """Every pendant, true-twin and false-twin elimination (v into u) that is
    valid among the live vertices."""
    out = []
    for v in bits(alive):
        row, closed = g.row[v] & alive, g.closed[v] & alive
        for u in bits(alive & ~(1 << v)):
            if row == 1 << u:
                out.append(PruneOp("pendant", v, u))
            if closed == g.closed[u] & alive:
                out.append(PruneOp("ttwin", v, u))
            if row == g.row[u] & alive:
                out.append(PruneOp("ftwin", v, u))
    return out
