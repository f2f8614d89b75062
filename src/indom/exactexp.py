"""Exact exponential computation of the independence-domination number.

Every maximal independent set M is enumerated; small sets are solved by a
branch-and-bound over outside vertices with three or more M-neighbors,
finishing with a maximum-matching base case; large sets fall back to subset
enumeration over the outside vertices. The split threshold is DEFAULT_BETA
times n.

The solver enumerates the sets itself, with an iterative Bron-Kerbosch
search with Tomita pivoting (TCS 363, 2006) over non-neighbors. It yields
the sets in the same order as `oracle.enumerate_maximal_independent_sets`,
which stays the ground truth it is tested against. What does not depend on
the set (the isolated vertices, the rows the greedy cover scans) is worked
out once per graph.

The answer is a maximum over sets of a minimum, so a set only matters if it
beats the running maximum. A set with |M| <= best is skipped (M dominates
itself), and the per-set solver takes the running maximum as a cutoff c:
once any dominating set of M with at most c vertices is known, by a greedy
cover or by the search, it returns that set and stops. Only a set whose
minimum exceeds c is solved to optimality, so the value and witness that
raise the maximum are always exact.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass

from .graph import (CapacityError, Graph, GraphError, bits, closed_neighborhood, is_independent,
                    mask_from, vertex_set)
from .oracle import DominationCertificate

DEFAULT_BETA = 0.6827
DEFAULT_CEILING = 40


@dataclass
class BranchStats:
    """Search effort counters, reported with every run."""

    nodes: int = 0
    max_depth: int = 0
    matching_calls: int = 0
    subset_calls: int = 0
    sets_enumerated: int = 0
    sets_cut: int = 0  # settled without search: |M| or a greedy cover <= cutoff


def maximum_matching_general(g: Graph) -> list[tuple[int, int]]:
    """Maximum matching in an arbitrary graph by blossom-contracting
    augmenting-path search, O(V^3)."""
    n = g.n
    adj = [list(bits(r)) for r in g.row]  # the search rescans neighbors often
    match = [-1] * n
    for u in range(n):
        if match[u] == -1:
            for v in adj[u]:
                if match[v] == -1:
                    match[u] = v
                    match[v] = u
                    break
    parent = [-1] * n
    base = list(range(n))

    def lowest_common_base(a, b):
        seen = [False] * n
        while True:
            a = base[a]
            seen[a] = True
            if match[a] == -1:
                break
            a = parent[match[a]]
        while True:
            b = base[b]
            if seen[b]:
                return b
            b = parent[match[b]]

    def mark_path(v, b, child, in_blossom):
        while base[v] != b:
            in_blossom[base[v]] = True
            in_blossom[base[match[v]]] = True
            parent[v] = child
            child = match[v]
            v = parent[match[v]]

    def augment_from(root):
        used = [False] * n
        for i in range(n):
            parent[i] = -1
            base[i] = i
        used[root] = True
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for to in adj[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and parent[match[to]] != -1):
                    cur = lowest_common_base(v, to)
                    in_blossom = [False] * n
                    mark_path(v, cur, to, in_blossom)
                    mark_path(to, cur, v, in_blossom)
                    for i in range(n):
                        if in_blossom[base[i]]:
                            base[i] = cur
                            if not used[i]:
                                used[i] = True
                                queue.append(i)
                elif parent[to] == -1:
                    parent[to] = v
                    if match[to] == -1:
                        while to != -1:
                            pv = parent[to]
                            next_to = match[pv]
                            match[to] = pv
                            match[pv] = to
                            to = next_to
                        return True
                    used[match[to]] = True
                    queue.append(match[to])
        return False

    for v in range(n):
        if match[v] == -1:
            augment_from(v)
    return sorted({(min(u, match[u]), max(u, match[u])) for u in range(n) if match[u] != -1})


def brute_force_matching(g: Graph) -> int:
    """Maximum matching size by exhaustive search; test oracle for n <= ~12."""
    edge_list = list(g.edges())

    def best(idx, used):
        if idx == len(edge_list):
            return 0
        u, v = edge_list[idx]
        result = best(idx + 1, used)
        if not (used >> u & 1) and not (used >> v & 1):
            result = max(result, 1 + best(idx + 1, used | 1 << u | 1 << v))
        return result

    return best(0, 0)


def gamma_of_independent_set_fast(
    g: Graph, m, stats: BranchStats | None = None, cutoff: int = -1
):
    """Minimum size of a set dominating the independent set m, with witness.

    Only edges between m and the rest matter. Any outside vertex with three
    or more m-neighbors is branched on (taken into the dominating set, or
    discarded); once every remaining outside vertex covers at most two
    m-vertices, pair up coverage via maximum matching: the answer there is
    the matching size plus one dominator per unmatched m-vertex.

    With cutoff c >= 0 and gamma(m) <= c, the result may be any dominating
    set of m with at most c vertices: a greedy cover is tried first, and the
    search stops at its first solution of size <= c. With gamma(m) > c, or
    with the default c = -1, the value and witness are the exact minimum.
    """
    m = vertex_set(g, m)
    if not is_independent(g, m):
        raise GraphError("set is not independent")
    if stats is None:
        stats = BranchStats()
    committed = mask_from(v for v in bits(m) if not g.row[v])
    rows = [(row, v) for v, row in enumerate(g.row) if row & m]
    value, witness = _gamma_of_set(g, m, committed, rows, stats, cutoff)
    return value, witness, stats


def _gamma_of_set(g, m, committed, rows, stats, cutoff):
    """gamma_of_independent_set_fast for a checked independent set m.

    committed holds the members of m without neighbors: m is independent,
    so they are the members with no neighbor outside m, and only they can
    dominate themselves. rows lists (g.row[v], v) in increasing v for at
    least every vertex with a neighbor in m: the candidates of the greedy
    cover. A vertex with no neighbor in m never gains, so more rows change
    nothing but the time.
    """
    if m == 0:
        return 0, 0
    outside = g.full_mask & ~m
    remaining = m & ~committed
    base_count = committed.bit_count()

    if cutoff >= base_count:
        # greedy cover: take the vertex covering the most of the rest
        count, witness, rem = base_count, committed, remaining
        while rem and count <= cutoff:
            gain = 0
            for row, v in rows:
                c = (row & rem).bit_count()
                if c > gain:
                    gain, x = c, v
            count += 1
            witness |= 1 << x
            rem &= ~g.row[x]
        if count <= cutoff:
            stats.sets_cut += 1
            return count, witness

    # depth-first over (rem, avail, count, chosen, depth); no solution yet
    # reads as best = |m| + 1, above every dominating set the search finds
    best, best_witness = m.bit_count() + 1, None
    stack = [(remaining, outside, base_count, committed, 0)]
    while stack and best > cutoff:
        rem, avail, count, chosen, depth = stack.pop()
        stats.nodes += 1
        stats.max_depth = max(stats.max_depth, depth)
        if rem == 0:
            if count < best:
                best, best_witness = count, chosen
            continue
        branch_x = -1
        max_deg = 0
        for x in bits(avail):
            deg = (g.row[x] & rem).bit_count()
            if deg > max_deg:
                max_deg = deg
                branch_x = x
        # admissible bound: every further dominator covers <= max_deg targets
        bound = -(-rem.bit_count() // max(max_deg, 1))
        if count + bound >= best:
            continue
        if max_deg <= 2:
            # matching base case: a maximum matching of the pairs that one
            # vertex covers saves one dominator per matched pair
            stats.matching_calls += 1
            members = list(bits(rem))
            index = {v: i for i, v in enumerate(members)}
            pair_witness = {}
            for x in bits(avail):
                pair = tuple(index[v] for v in bits(g.row[x] & rem))
                if len(pair) == 2:
                    pair_witness.setdefault(pair, x)
            matching = maximum_matching_general(Graph(len(members), pair_witness))
            value = count + len(members) - len(matching)
            if value < best:
                best, best_witness = value, chosen
                for pair in matching:
                    best_witness |= 1 << pair_witness[pair]
                matched = {i for pair in matching for i in pair}
                for i, v in enumerate(members):
                    if i not in matched:
                        nbr = g.row[v] & avail
                        best_witness |= (nbr & -nbr) if nbr else (1 << v)
            continue
        xbit = 1 << branch_x
        avail &= ~xbit
        stack.append((rem, avail, count, chosen, depth + 1))  # discard x
        stack.append((rem & ~g.row[branch_x], avail, count + 1, chosen | xbit, depth + 1))
    return best, best_witness


def _gamma_by_subsets(g, m, mandatory, stats):
    """Smallest dominating set of m by subset enumeration over the outside
    vertices plus the members of m nobody else can dominate (mandatory, the
    isolated members of m)."""
    stats.subset_calls += 1
    others = [v for v in bits(g.full_mask & ~m)]
    base = mandatory.bit_count()
    cover_base = closed_neighborhood(g, mandatory)
    for extra in range(len(others) + 1):
        for combo in itertools.combinations(others, extra):
            cover = cover_base
            for v in combo:
                cover |= g.closed[v]
            if m & ~cover == 0:
                return base + extra, mandatory | mask_from(combo)
    raise GraphError("unreachable: V dominates m")


def _maximal_independent_sets(g):
    """Every maximal independent set of g as a mask, in the order of
    oracle.enumerate_maximal_independent_sets: the same search with an
    explicit stack. A node (r, p, x) holds the set r, the candidates p and
    the excluded x. Its pivot is the w in p | x with the fewest candidates
    in N[w], ties going to the larger id; the children take the candidates
    in N[w] in increasing order, each excluding the earlier ones."""
    closed = g.closed
    stack = [(0, g.full_mask, 0)]
    while stack:
        r, p, x = stack.pop()
        if not p:
            if not x:
                yield r
            continue
        least = g.n + 1
        rest = p | x
        while rest:
            low = rest & -rest
            w = low.bit_length() - 1
            c = (p & closed[w]).bit_count()
            if c <= least:
                least, pivot = c, w
            rest ^= low
        ext = p & closed[pivot]
        children = []
        while ext:
            low = ext & -ext
            v = low.bit_length() - 1
            children.append((r | low, p & ~closed[v], x & ~closed[v]))
            p ^= low
            x |= low
            ext ^= low
        stack += reversed(children)


def check_beta(beta: float):
    """GraphError unless beta is a number in [0, 1] (nan is not)."""
    if not 0 <= beta <= 1:
        raise GraphError(f"beta must be a number in [0, 1], got {beta}")


def gamma_i_exact(
    g: Graph,
    beta: float = DEFAULT_BETA,
    ceiling: int = DEFAULT_CEILING,
):
    """Exact independence-domination number for arbitrary graphs.

    Maximal independent sets of size at most beta*n go through the
    branching/matching route, larger ones through subset enumeration. A set
    no larger than the running maximum is skipped, and the branching route
    gets the running maximum as its cutoff.
    """
    check_beta(beta)
    if g.n > ceiling:
        raise CapacityError(f"n={g.n} above the exact-solver ceiling {ceiling}")
    stats = BranchStats()
    best_value = 0
    best_cert = DominationCertificate(0, 0, 0)
    threshold = beta * g.n
    isolated = mask_from(v for v, row in enumerate(g.row) if not row)
    rows = [(row, v) for v, row in enumerate(g.row) if row]
    for m in _maximal_independent_sets(g):
        stats.sets_enumerated += 1
        size = m.bit_count()
        if size <= best_value:
            stats.sets_cut += 1
            continue
        if size <= threshold:
            value, witness = _gamma_of_set(g, m, m & isolated, rows, stats, best_value)
        else:
            value, witness = _gamma_by_subsets(g, m, m & isolated, stats)
        if value > best_value:
            best_value = value
            best_cert = DominationCertificate(m, witness, value)
    return best_value, best_cert, stats
