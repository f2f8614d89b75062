"""Permutation-diagram representation and the left-to-right DP for gamma-i.

A diagram assigns each vertex a top-line and a bottom-line position; two
vertices are adjacent exactly when their segments cross. An independent set
is a family of parallel segments, linearly ordered left to right, and a
minimum dominating set of it is a minimum cover of that order by closed
neighborhoods, each of which meets the set in a contiguous run.

Two consequences drive this module:

* gamma(M) equals the largest subset of M whose consecutive members have
  disjoint closed neighborhoods (cover/packing duality for runs), which
  yields the chain DP in :func:`gamma_i_permutation`, run on prefix maxima
  and suffix minima of the bottom positions without building the graph;
* every minimum dominating set of M contains exactly one vertex covering
  the last member x, so ``k in gamma_x(z)`` holds iff some independent M
  ending in x has gamma(M) = k and gamma(M - N[z]) = k - 1. The table DP in
  :func:`gamma_sets` enumerates exactly these configurations.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass, field

from .graph import Graph, GraphError, FormatError, mask_to_list, parse_ints, read_lines
from .oracle import DominationCertificate
from .cograph import LEAF, UNION


@dataclass(frozen=True)
class PermutationDiagram:
    """Segment i runs from top-line position top[i] to bottom position bot[i]."""

    n: int
    top: tuple[int, ...]
    bot: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.top) != list(range(self.n)) or sorted(self.bot) != list(range(self.n)):
            raise GraphError("diagram positions must each be a permutation of 0..n-1")

    def left_of(self, i, j):
        """Segment i entirely left of (parallel to) segment j."""
        return self.top[i] < self.top[j] and self.bot[i] < self.bot[j]


def diagram_to_graph(d: PermutationDiagram) -> Graph:
    """Crossing graph of the diagram. With L the segments whose top end lies
    left of v's and R those whose bottom end does, j crosses v exactly when
    it lies in one of L and R but not both, so row[v] = L ^ R."""
    rows = [0] * d.n
    for ends in (d.top, d.bot):
        left = 0
        for v in sorted(range(d.n), key=ends.__getitem__):
            rows[v] ^= left
            left |= 1 << v
    return Graph._from_rows(rows)


def gamma_i_permutation(d: PermutationDiagram) -> tuple[int, DominationCertificate]:
    """Independence-domination number of the diagram's graph, with certificate.

    Longest chain of segments, increasing in both lines, whose consecutive
    members have disjoint closed neighborhoods. Such a chain P needs |P|
    dominators (no vertex covers two of its members) and P covers itself.

    Segments are taken in top order. For u left of v, a common neighbour
    starts left of u and ends right of v, or starts right of v and ends left
    of u. So u may precede v exactly when the largest bottom end up to u
    lies left of v's, and u's lies left of the smallest bottom end from v
    on. The u passing the first test are a prefix of the top order, those
    passing the second the segments with the smallest bottom ends; both are
    masks over top positions. v extends the longest chain the candidates
    end, at its first position in top order, as the pairwise DP did. That
    is O(n log n) mask steps plus the chain lengths skipped.
    """
    n = d.n
    at = sorted(range(n), key=d.top.__getitem__)  # vertex at each top position
    bot = [d.bot[v] for v in at]
    reach = list(itertools.accumulate(bot, max))  # largest bottom end up to p
    floor = list(itertools.accumulate(reversed(bot), min))[::-1]  # smallest from p on
    place = [0] * n  # top position of the segment with each bottom end
    for p, b in enumerate(bot):
        place[b] = p
    low = 0  # top positions whose bottom end lies below floor[p]
    below = 0
    ends = [0]  # ends[k]: top positions whose longest chain has k members
    back = [-1] * n
    for p, b in enumerate(bot):
        while below < floor[p]:
            low |= 1 << place[below]
            below += 1
        candidates = low & ((1 << bisect.bisect_left(reach, b)) - 1)
        k = len(ends) - 1
        while k and not ends[k] & candidates:
            k -= 1
        if k:
            hit = ends[k] & candidates
            back[p] = (hit & -hit).bit_length() - 1
        if k + 1 == len(ends):
            ends.append(0)
        ends[k + 1] |= 1 << p
    value = len(ends) - 1
    p = (ends[value] & -ends[value]).bit_length() - 1
    chain = 0
    while p >= 0:
        chain |= 1 << at[p]
        p = back[p]
    return value, DominationCertificate(chain, chain, value)


@dataclass
class GammaSets:
    """Achievable-value sets gamma_x(z), stored as bit masks over k.

    ``k in table[(x, z)]`` means some independent set M ending in x has
    gamma(M) = k together with a minimum dominating set whose unique
    x-covering vertex is z.
    """

    n: int
    rules: str
    table: dict = field(default_factory=dict)

    def kset(self, x, z) -> int:
        return self.table.get((x, z), 0)

    def values(self, x, z) -> list[int]:
        return mask_to_list(self.kset(x, z))

    def max_k(self) -> int:
        best = 0
        for kset in self.table.values():
            if kset:
                best = max(best, kset.bit_length() - 1)
        return best


def gamma_sets(d: PermutationDiagram, rules: str = "exact") -> GammaSets:
    if rules == "exact":
        return _gamma_sets_exact(d)
    raise GraphError(f"unknown rule set {rules!r}")


def _gamma_sets_exact(d):
    """Exact table: per candidate dominator z, build chains of packing points
    and fillers left to right, requiring members inside N[z] to form a suffix
    holding exactly one packing point."""
    g = diagram_to_graph(d)
    n = d.n
    out = GammaSets(n, "exact")
    order = sorted(range(n), key=lambda v: d.top[v])
    for z in range(n):
        nz = g.closed[z]
        # per last member: (packing point of the open block, inside-N[z]
        # suffix entered, packing points inside the suffix) -> bitmask of k
        at = {v: {} for v in range(n)}
        for m in range(n):
            near = bool(nz >> m & 1)
            at[m][(m, near, 1 if near else 0)] = 2
        for last in order:
            for (p, entered, npts), kset in at[last].items():
                for f in range(n):
                    if not d.left_of(last, f):
                        continue
                    f_near = bool(nz >> f & 1)
                    if entered and not f_near:
                        continue
                    bucket = at[f]
                    if g.closed[p] & g.closed[f]:
                        key = (p, entered or f_near, npts)
                        bucket[key] = bucket.get(key, 0) | kset
                    else:
                        new_npts = npts + (1 if f_near else 0)
                        if new_npts <= 1:
                            key = (f, entered or f_near, new_npts)
                            bucket[key] = bucket.get(key, 0) | (kset << 1)
        for last in range(n):
            if not (nz >> last & 1):
                continue
            acc = 0
            for (_, _, npts), kset in at[last].items():
                if npts == 1:
                    acc |= kset
            if acc:
                key = (last, z)
                out.table[key] = out.table.get(key, 0) | acc
    return out


# --- diagram text format -----------------------------------------------------
#
# line 1: n; line 2: top positions per vertex; line 3: bottom positions.


def serialize_diagram(d: PermutationDiagram) -> str:
    return "{}\n{}\n{}\n".format(
        d.n,
        " ".join(map(str, d.top)),
        " ".join(map(str, d.bot)),
    )


def parse_diagram(text: str) -> PermutationDiagram:
    lines = list(read_lines(text))
    if len(lines) != 3:
        raise FormatError("expected 3 lines: n, top positions, bottom positions")
    rows = [parse_ints(tokens, line) for line, tokens in lines]
    n = rows[0][0]
    for (line, _), row, wanted in zip(lines, rows, (1, n, n)):
        if len(row) != wanted:
            raise FormatError(f"line holds {len(row)} integers, expected {wanted}", line)
    return PermutationDiagram(n, tuple(rows[1]), tuple(rows[2]))


def cotree_to_diagram(t) -> PermutationDiagram:
    """Standard diagram of a cograph: unions concatenate both lines, joins
    concatenate the top line and reverse the block order on the bottom line."""
    lines = {}  # a finished node's (top, bottom) vertex sequences
    for node in t.postorder():
        if node.label == LEAF:
            lines[id(node)] = [node.vertex], [node.vertex]
            continue
        parts = [lines.pop(id(c)) for c in node.children]
        top = [v for part in parts for v in part[0]]
        if node.label == UNION:
            bot = [v for part in parts for v in part[1]]
        else:
            bot = [v for part in reversed(parts) for v in part[1]]
        lines[id(node)] = top, bot
    top_seq, bot_seq = lines[id(t.root)]
    top = [0] * t.n
    bot = [0] * t.n
    for pos, v in enumerate(top_seq):
        top[v] = pos
    for pos, v in enumerate(bot_seq):
        bot[v] = pos
    return PermutationDiagram(t.n, tuple(top), tuple(bot))
