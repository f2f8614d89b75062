"""Distance-hereditary graphs: pruning sequences, rank-1 decomposition trees
and the table dynamic program for the independence-domination number.

Recognition eliminates pendant vertices and twins one at a time; the reverse
of that order rebuilds the graph, and the order itself builds the
decomposition tree, one node per elimination. Recognition runs as one
worklist pass: each vertex is filed under its live open and closed rows, and
a removal refiles only the removed vertex's live neighbours, so the whole
pass costs about n + m mask updates (each one word-parallel over n bits).
Removing a pendant or a twin keeps a graph distance-hereditary or not, so
any elimination order gives the same answer. When no live vertex is a
pendant or has a twin, the graph is not distance-hereditary, and the
failure names the lowest-numbered vertex left.

The decomposition tree (T, f) is a rooted binary tree whose leaves are the
vertices. For a tree edge e, ``W_e`` is the vertex set below e and the
twinset ``Q_e`` holds the members of ``W_e`` with neighbors outside. Every
cut is rank one, so all of ``Q_e`` shares one outside neighborhood and the
interface of a partial solution (A, D) on ``W_e`` collapses to four bits:

* ``i``: A meets the twinset;
* ``u``: dominating A's twinset part is deferred to the outside;
* ``d``: D meets the twinset (so it covers the entire outside attachment);
* ``x``: D's twinset part already dominates some of A off the twinset.

The value DP keeps, per A-configuration class, the minimum |D| for each
(u, d) demand; a boolean table over counts (|A|, |D|) cannot recover the
max-over-A of min-over-D. Each item carries one such A and, per demand, one
D of that size, so the best root item is the certificate and nothing walks
back down the tree. The feasibility tables of :func:`edge_tables`
keep exactly those boolean entries, flags included, and exist to be checked
verbatim against exhaustive enumeration on small instances.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass

from .graph import Graph, GraphError, FormatError, bits, parse_ints, read_lines
from .oracle import DominationCertificate
from .cograph import ClassMismatchError

INF = 10**9  # cost of an infeasible value-DP slot
PENDANT = "pendant"
TRUE_TWIN = "ttwin"
FALSE_TWIN = "ftwin"


@dataclass(frozen=True)
class PruneOp:
    kind: str
    v: int
    u: int


@dataclass(frozen=True)
class PruningSequence:
    """Eliminations ending at a single vertex; replaying backwards rebuilds g."""

    ops: tuple[PruneOp, ...]
    n: int

    @property
    def final_vertex(self) -> int:
        eliminated = {op.v for op in self.ops}
        rest = [v for v in range(self.n) if v not in eliminated]
        if len(rest) != 1:
            raise GraphError("pruning sequence does not end at a single vertex")
        return rest[0]


@dataclass(frozen=True)
class DHFailure:
    """No pendant vertex or twin pair exists among the remaining vertices."""

    stuck_vertex: int
    alive: int


@dataclass
class DHStats:
    """Size of one DH solve: the eliminations of each kind recognition made,
    and the most value-DP items kept at one tree node."""

    pendants: int = 0
    true_twins: int = 0
    false_twins: int = 0
    max_items: int = 0

    def as_dict(self):
        return asdict(self)


def recognize_dh(g: Graph, stats: DHStats | None = None):
    """PruningSequence if g is distance-hereditary, else a DHFailure.

    One pass over a worklist of dirty vertices, lowest id first. A dirty
    vertex with one live neighbour is a pendant; otherwise it is refiled
    under its live open row and its live closed row, and a key filed already
    makes it a false or a true twin. Removing a vertex changes the live rows
    of its live neighbours only, so only they become dirty. A key filed
    before such a removal contains the removed vertex, so it never equals a
    current key. The empty graph's sequence is empty.
    """
    n = g.n
    rows = g.row
    alive = g.full_mask
    by_open = {}
    by_closed = {}
    filed = [None] * n  # the open key each vertex is filed under
    dirty = alive
    ops = []
    for _ in range(n - 1):
        op = None
        dirty &= alive
        while dirty:
            low = dirty & -dirty
            dirty ^= low
            v = low.bit_length() - 1
            old = filed[v]
            if old is not None:
                del by_open[old], by_closed[old | low]
                filed[v] = None
            key = rows[v] & alive
            if key.bit_count() == 1:
                op = PruneOp(PENDANT, v, key.bit_length() - 1)
                break
            twin = by_closed.get(key | low)
            if twin is not None:
                op = PruneOp(TRUE_TWIN, v, twin)
                break
            twin = by_open.get(key)
            if twin is not None:
                op = PruneOp(FALSE_TWIN, v, twin)
                break
            by_open[key] = by_closed[key | low] = v
            filed[v] = key
        if op is None:
            return DHFailure((alive & -alive).bit_length() - 1, alive)
        alive ^= low
        dirty |= rows[v] & alive
        ops.append(op)
    if stats is not None:
        kinds = [op.kind for op in ops]
        stats.pendants += kinds.count(PENDANT)
        stats.true_twins += kinds.count(TRUE_TWIN)
        stats.false_twins += kinds.count(FALSE_TWIN)
    return PruningSequence(tuple(ops), n)


def replay_sequence(seq: PruningSequence) -> Graph:
    """Rebuild the graph by applying the eliminations backwards."""
    n = seq.n
    if n == 0:
        return Graph(0)
    if len(seq.ops) != n - 1:
        raise GraphError(f"expected {n - 1} operations for n={n}")
    final = seq.final_vertex
    adj = [set() for _ in range(n)]
    present = {final}
    for op in reversed(seq.ops):
        if op.u not in present or op.v in present or not (0 <= op.v < n):
            raise GraphError(f"inconsistent operation {op}")
        if op.kind == PENDANT:
            nbrs = {op.u}
        elif op.kind == TRUE_TWIN:
            nbrs = adj[op.u] | {op.u}
        elif op.kind == FALSE_TWIN:
            nbrs = set(adj[op.u])
        else:
            raise GraphError(f"unknown operation kind {op.kind!r}")
        for w in nbrs:
            adj[w].add(op.v)
        adj[op.v] = nbrs
        present.add(op.v)
    return Graph(n, [(u, v) for u in range(n) for v in adj[u] if u < v])


def serialize_sequence(seq: PruningSequence) -> str:
    return "".join(f"{op.kind} {op.v} {op.u}\n" for op in seq.ops)


def parse_sequence(text: str) -> PruningSequence:
    ops = []
    for lineno, parts in read_lines(text):
        if len(parts) != 3 or parts[0] not in (PENDANT, TRUE_TWIN, FALSE_TWIN):
            raise FormatError("expected 'pendant|ttwin|ftwin v u'", lineno)
        v, u = parse_ints(parts[1:], lineno)
        ops.append(PruneOp(parts[0], v, u))
    n = len(ops) + 1
    ids = {op.v for op in ops} | ({ops[-1].u} if ops else {0})
    if ids != set(range(n)):
        raise FormatError("operations do not cover vertex ids 0..n-1")
    return PruningSequence(tuple(ops), n)


# --- decomposition tree ------------------------------------------------------

UNION = "union"
JOIN = "join"


class DHNode:
    """A leaf for one vertex, or the JOIN or UNION of its children's parts.
    ``l_in`` and ``r_in`` say whether the left and the right child's twinset
    stays in this node's twinset ``q``."""

    __slots__ = ("left", "right", "vertex", "w", "q", "label", "l_in", "r_in")

    def __init__(self, vertex, w, q, left=None, right=None, label=None,
                 l_in=False, r_in=False):
        self.left = left
        self.right = right
        self.vertex = vertex
        self.w = w
        self.q = q
        self.label = label
        self.l_in = l_in
        self.r_in = r_in

    @property
    def is_leaf(self):
        return self.vertex is not None


@dataclass(frozen=True)
class DHDecomposition:
    """The tree's nodes in creation order: every node after its children."""

    nodes: tuple[DHNode, ...]
    n: int

    @property
    def root(self) -> DHNode:
        return self.nodes[-1]

    def postorder(self):
        return self.nodes


def build_dh_decomposition(g: Graph, seq: PruningSequence) -> DHDecomposition:
    """Decomposition tree from a pruning sequence, checked against g.

    Every operation is checked at its elimination step, then makes its tree
    node: the parts that u and v stand for become its children, and u stands
    for their union from then on. Once every step has passed, replaying the
    sequence rebuilds g, so every cut is rank one: a twinset shares one
    outside neighbourhood, and a child's twinset stays in its parent's
    exactly when its lowest member has a neighbour outside the parent's part.
    A sequence that fails a step or does not end at a single vertex raises
    GraphError; the empty graph's empty sequence gives a tree of no nodes.
    """
    if seq.n != g.n:
        raise GraphError(f"sequence for n={seq.n} does not match graph n={g.n}")
    nodes = [DHNode(v, 1 << v, 1 << v if g.row[v] else 0) for v in range(g.n)]
    top = nodes[:]  # the part each live vertex stands for
    alive = g.full_mask
    for idx, op in enumerate(seq.ops):
        v, u = op.v, op.u
        if v == u or min(v, u) < 0 or not (alive >> v & 1 and alive >> u & 1):
            raise GraphError(f"operation {idx} ({op.kind} {v} {u}): vertex not available")
        row_v = g.row[v] & alive
        if op.kind == PENDANT:
            ok = row_v == 1 << u
        elif op.kind == TRUE_TWIN:
            ok = (g.closed[v] & alive) == (g.closed[u] & alive)
        elif op.kind == FALSE_TWIN:
            ok = row_v == g.row[u] & alive
        else:
            raise GraphError(f"operation {idx}: unknown kind {op.kind!r}")
        if not ok:
            raise GraphError(f"operation {idx} ({op.kind} {v} {u}) is invalid at its step")
        alive &= ~(1 << v)
        left, right = top[u], top[v]
        w = left.w | right.w
        l_in = left.q != 0 and g.row[(left.q & -left.q).bit_length() - 1] & ~w != 0
        r_in = right.q != 0 and g.row[(right.q & -right.q).bit_length() - 1] & ~w != 0
        q = (left.q if l_in else 0) | (right.q if r_in else 0)
        label = UNION if op.kind == FALSE_TWIN else JOIN
        top[u] = DHNode(None, w, q, left, right, label, l_in, r_in)
        nodes.append(top[u])
    if alive & (alive - 1):
        raise GraphError("pruning sequence does not end at a single vertex")
    return DHDecomposition(tuple(nodes), g.n)


# --- value DP ----------------------------------------------------------------
#
# An item abstracts one class of independent sets A inside W_e and carries
# its own certificate, so no item refers to another:
#   i     whether A meets Q_e,
#   c     cost vector: c[u*2+d] = min |D| subject to
#         - D dominates all of A off the twinset, and all of A if u=0,
#         - D meets the twinset if d=1,
#   a     one representative A, as a mask,
#   d     per slot u*2+d, a dominating set D of cost c[u*2+d], as a mask.
# A combined item ORs its children's A and, per slot, the D masks of the
# first child slot pair of minimum cost. Items whose cost vector is
# pointwise dominated within the same i are dropped; the root maximizes
# c[u=0,d=0] over the surviving items, and its (a, d[0]) is the certificate.


class _Item:
    __slots__ = ("i", "c", "a", "d")

    def __init__(self, i, c, a, d):
        self.i = i
        self.c = c
        self.a = a
        self.d = d


def _leaf_items(g, node):
    v = 1 << node.vertex
    if node.q:
        return [_Item(False, (0, 1, 0, 1), 0, (0, v, 0, v)),
                _Item(True, (1, 1, 0, 1), v, (v, v, 0, v))]
    # an isolated vertex: leaving it out of A costs pointwise less, so that
    # item would be pruned
    return [_Item(False, (1, INF, 1, INF), v, (v, 0, v, 0))]


def _cut(join, l_in, r_in, u1, d1, u2, d2):
    """The rank-1 cut rule: the parent's (u, d) from its children's, or None
    when a child's deferred domination has nowhere to go. A child's deferral
    is met by the other child's d across a join, and otherwise passes up only
    through a twinset the parent keeps; the parent's d is a kept child's d."""
    res1 = u1 and not (join and d2)
    res2 = u2 and not (join and d1)
    if res1 and not l_in or res2 and not r_in:
        return None
    return int(res1 or res2), int(d1 and l_in or d2 and r_in)


def _legal_pairs(join, l_in, r_in):
    """Per parent slot u*2+d, the child slot pairs (u1*2+d1, u2*2+d2) a node
    allows, in (u1, d1, u2, d2) order: their cut exists, defers nothing when
    u = 0, and keeps a twinset dominator when d = 1."""
    cuts = [(u1 * 2 + d1, u2 * 2 + d2, _cut(join, l_in, r_in, u1, d1, u2, d2))
            for u1, d1, u2, d2 in itertools.product((0, 1), repeat=4)]
    return tuple(
        tuple((k1, k2) for k1, k2, cut in cuts
              if cut is not None and cut[0] <= u and d <= cut[1])
        for u in (0, 1) for d in (0, 1)
    )


# (join, left twinset kept, right twinset kept) -> legal slot pairs per slot
_LEGAL = {
    (join, l_in, r_in): _legal_pairs(join, l_in, r_in)
    for join in (False, True) for l_in in (False, True) for r_in in (False, True)
}


def _combine_items(node, items1, items2):
    join = node.label == JOIN
    l_in, r_in = node.l_in, node.r_in
    legal = _LEGAL[join, l_in, r_in]
    out = []
    for it1 in items1:
        c1, d1 = it1.c, it1.d
        for it2 in items2:
            if join and it1.i and it2.i:
                continue
            c2, d2 = it2.c, it2.d
            c = []
            d = []
            for slot in legal:
                best = INF
                dom = 0
                for k1, k2 in slot:
                    cost = c1[k1] + c2[k2]
                    if cost < best:
                        best = cost
                        dom = d1[k1] | d2[k2]
                c.append(best)
                d.append(dom)
            i = (it1.i and l_in) or (it2.i and r_in)
            out.append(_Item(i, tuple(c), it1.a | it2.a, tuple(d)))
    return _prune_items(out)


def _prune_items(items):
    kept = []
    seen = set()
    for it in items:
        key = (it.i, it.c)
        if key in seen:
            continue
        seen.add(key)
        kept.append(it)
    survivors = []
    for it in kept:
        dominated = False
        for other in kept:
            if other is it or other.i != it.i:
                continue
            if all(oc >= c for oc, c in zip(other.c, it.c)) and other.c != it.c:
                dominated = True
                break
        if not dominated:
            survivors.append(it)
    return survivors


def _value_items(g, decomp, stats):
    """Items of the root. The decomposition lists every leaf first, so a
    leaf's items are made only when its parent combines them."""
    table = {}
    for node in decomp.postorder():
        if node.is_leaf:
            continue
        kids = [_leaf_items(g, c) if c.is_leaf else table.pop(id(c))
                for c in (node.left, node.right)]
        items = _combine_items(node, *kids)
        table[id(node)] = items
        if stats is not None:
            stats.max_items = max(stats.max_items, len(items), *map(len, kids))
    return table[id(decomp.root)]


def gamma_i_dh(g: Graph, decomp: DHDecomposition | None = None,
               stats: DHStats | None = None):
    """Independence-domination number of a distance-hereditary graph.

    Without a decomposition the graph is recognized first; stats, if given,
    receives the elimination counts of that recognition and the DP size."""
    if g.n == 0:
        return 0, DominationCertificate(0, 0, 0)
    if decomp is None:
        seq = recognize_dh(g, stats)
        if isinstance(seq, DHFailure):
            raise ClassMismatchError(
                f"input is not distance-hereditary (stuck at vertex {seq.stuck_vertex})",
                witness=seq,
            )
        decomp = build_dh_decomposition(g, seq)
    if decomp.root.is_leaf:
        v = decomp.root.vertex
        return 1, DominationCertificate(1 << v, 1 << v, 1)
    best = max(_value_items(g, decomp, stats), key=lambda it: it.c[0])
    value = best.c[0]
    return value, DominationCertificate(best.a, best.d[0], value)


# --- feasibility tables ------------------------------------------------------
#
# EdgeTable keeps, per flag tuple (i, u, d, x), the set of feasible (|A|, |D|)
# pairs packed into one int with stride n+1. Flags are exact here: u means
# some of A's twinset part is actually undominated, d that D meets the
# twinset, x that D's twinset part dominates some vertex of A off the
# twinset; i (A meets the twinset) is projected away in the public profile
# view but is load-bearing for the join rule.


@dataclass
class EdgeTable:
    n: int
    flags: dict

    def pairs(self, i, u, d, x):
        stride = self.n + 1
        mask = self.flags.get((i, u, d, x), 0)
        return sorted((idx // stride, idx % stride) for idx in bits(mask))

    def profile_pairs(self, u, d, x):
        out = set()
        for i in (0, 1):
            out.update(self.pairs(i, u, d, x))
        return sorted(out)

    def feasible(self, a, g, profile):
        u, d, x = profile
        return (a, g) in self.profile_pairs(u, d, x)


def edge_tables(g: Graph, decomp: DHDecomposition) -> dict:
    """Bottom-up feasibility tables for every tree edge (plus the root cut)."""
    stride = g.n + 1
    tables = {}
    for node in decomp.postorder():
        if node.is_leaf:
            flags = {}
            if node.q:
                entries = [
                    ((0, 0, 0, 0), 0, 0),
                    ((0, 0, 1, 0), 0, 1),
                    ((1, 1, 0, 0), 1, 0),
                    ((1, 0, 1, 0), 1, 1),
                ]
            else:
                entries = [
                    ((0, 0, 0, 0), 0, 0),
                    ((0, 0, 0, 0), 0, 1),
                    ((0, 0, 0, 0), 1, 1),
                ]
            for key, a, dd in entries:
                flags[key] = flags.get(key, 0) | 1 << (a * stride + dd)
            tables[id(node)] = EdgeTable(g.n, flags)
        else:
            tables[id(node)] = _combine_tables(
                g.n, node, tables[id(node.left)], tables[id(node.right)]
            )
    return tables


def _combine_tables(n, node, t1, t2):
    join = node.label == JOIN
    l_in, r_in = node.l_in, node.r_in
    out = {}
    for (i1, u1, d1, x1), m1 in t1.flags.items():
        for (i2, u2, d2, x2), m2 in t2.flags.items():
            cut = _cut(join, l_in, r_in, u1, d1, u2, d2)
            if join and i1 and i2 or cut is None:
                continue
            key = (
                int((i1 and l_in) or (i2 and r_in)),
                *cut,
                int(
                    (x1 and l_in)
                    or (x2 and r_in)
                    or (join and d1 and l_in and not r_in and i2)
                    or (join and d2 and r_in and not l_in and i1)
                ),
            )
            acc = 0
            mm = m1
            while mm:
                low = mm & -mm
                acc |= m2 << (low.bit_length() - 1)
                mm ^= low
            out[key] = out.get(key, 0) | acc
    return EdgeTable(n, out)
