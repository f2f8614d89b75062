"""Tree decompositions and the bag dynamic program for gamma-i.

A bag vertex can be outside the pair (A, D), in A and still undominated
(gray), in A and dominated (white), or in D. No member of A needs to be in
D: for an independent A, a member in D with a neighbor can be swapped for
that neighbor, which still dominates it, while the member dominates no other
member of A. So some minimum D holds no member of A with a neighbor, and a
member without one pays one to dominate itself, which turns it white. The
DP keeps, per class of independent sets A, a cost table mapping (D-in-bag
pattern, dominated subset of A-in-bag) to the minimum number of dominators
spent so far. Keeping the whole table per A-class is what lets the root take
a maximum over A of a minimum over D; a flat boolean table over counts
cannot, because independent sets of equal size with different domination
costs would be merged.

Tables are dense lists in local bits. With the bag's vertices outside A and
the item's A-vertices each in increasing id order, the entry for D-pattern d
and white set w sits at index d | w << |bag - A|, so every table holds
2^|bag| entries and every white set owns one block of them, one per
D-pattern. An infeasible entry holds INF. Each step is a few whole-list
passes: introduce gathers through index maps that depend only on a table's
shape and are kept, up to a bound, for the next node of that shape; forget
reads runs of slices; join adds whole blocks.

Tables are closed under white subsets: entry (d, w) costs at least entry
(d, w') for every w' inside w. An entry reads "at least w dominated" and
equal cost functions have equal tables. Forget keeps the closure. Introduce
writes the closed table directly: as the child's table is closed, the entry
for "at least w" after a new dominator v is the child's entry for w minus
what v whitens, so each entry is one gather. Join adds blocks only for
disjoint white sets, as closure supplies every disjoint split of a union.

A node's entry count follows from its children's shapes before any list is
built. Above TABLE_BUDGET entries it raises CapacityError, so an instance
too wide for memory is refused instead of exhausting it.

Each item carries its members, the A-vertices of its whole subtree, so the
root's best item names its independent set without a walk back down, and a
node's tables can be dropped as soon as its parent is built.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass
from itertools import groupby
from operator import add, attrgetter, sub

from .graph import (MAX_VERTICES, CapacityError, Graph, GraphError, FormatError, bits,
                    mask_from, mask_to_list, parse_ints, read_lines, undominated)
from .oracle import DominationCertificate
from .exactexp import check_ceiling, gamma_of_independent_set_fast

DEFAULT_WIDTH_CEILING = 12
INF = float("inf")  # cost of an infeasible table entry
# Most table entries one nice node may allocate. Width-7 grid decompositions
# need up to about 0.3 M; refusing beyond this ends a call before its tables
# exhaust memory.
TABLE_BUDGET = 1 << 22
MAP_CACHE_ENTRIES = 1 << 18  # most index-map entries kept between nodes


@dataclass
class Violation:
    kind: str
    detail: str

    def __str__(self):
        return f"{self.kind}: {self.detail}"


@dataclass
class TreeDecomposition:
    n: int
    bags: list[int]
    edges: list[tuple[int, int]]

    @property
    def width(self) -> int:
        if not self.bags:
            return -1
        return max(b.bit_count() for b in self.bags) - 1

    def neighbors(self):
        adj = [[] for _ in self.bags]
        for a, b in self.edges:
            if not (0 <= a < len(adj) and 0 <= b < len(adj)):
                raise GraphError(f"bag edge ({a}, {b}) out of range")
            adj[a].append(b)
            adj[b].append(a)
        return adj


def _postorder(td: TreeDecomposition):
    """(bag, parent, children) for every bag that bag 0 reaches, rooted at
    bag 0 (parent None): each bag after its subtree, children in td.edges
    order, each child's subtree before the next's. A bag is reached once
    however often td.edges lists its edges. A loop, not recursion: a path
    decomposition is as deep as it has bags."""
    if not td.bags:
        return []
    adj = td.neighbors()
    seen = [False] * len(td.bags)
    seen[0] = True
    walk = []
    stack = [(0, None)]
    while stack:
        b, parent = stack.pop()
        children = []
        for c in adj[b]:
            if not seen[c]:
                seen[c] = True
                children.append(c)
        walk.append((b, parent, children))
        # the last child is walked first, so the reversed walk puts them in order
        stack += [(c, b) for c in children]
    walk.reverse()
    return walk


def validate_decomposition(g: Graph, td: TreeDecomposition):
    """None when valid, otherwise a Violation naming the failing vertex/edge."""
    union = 0
    for b in td.bags:
        union |= b
    if union >> g.n:
        return Violation("vertex-range", f"vertex {union.bit_length() - 1} is not in 0..{g.n - 1}")
    if union != g.full_mask:
        missing = next(bits(g.full_mask & ~union))
        return Violation("vertex-cover", f"vertex {missing} is in no bag")
    # cover[v]: the vertices sharing a bag with v; holders[v]: bags holding v
    cover = [0] * g.n
    holders = [0] * g.n
    for b in td.bags:
        for v in bits(b):
            cover[v] |= b
            holders[v] += 1
    for u, r in enumerate(g.row):
        uncovered = r >> u + 1 << u + 1 & ~cover[u]
        if uncovered:
            v = (uncovered & -uncovered).bit_length() - 1
            return Violation("edge-cover", f"edge ({u}, {v}) has no common bag")
    if len(td.edges) != max(len(td.bags) - 1, 0):
        return Violation("tree", "bag graph is not a tree")
    try:
        if len(_postorder(td)) != len(td.bags):
            return Violation("tree", "bag graph is disconnected")
    except GraphError as exc:  # a bag edge out of range
        return Violation("tree", str(exc))
    # in a tree the bags holding v induce a forest with (holders - shared
    # edges) components, so they are connected iff that count is 1
    for a, b in td.edges:
        for v in bits(td.bags[a] & td.bags[b]):
            holders[v] -= 1
    for v, components in enumerate(holders):
        if components != 1:
            return Violation("connectivity", f"occurrences of vertex {v} are disconnected")
    return None


def heuristic_decomposition(g: Graph, order: str = "fill") -> TreeDecomposition:
    """Elimination-based decomposition; min-fill by default, no width claim.

    Each step eliminates the live vertex of least (score, id), the first
    minimum in id order. Scores are kept per vertex in a heap whose stale
    entries are skipped when popped. Eliminating v turns its live neighbors
    into a clique: their scores are recomputed, and each fill edge x-y lowers
    the fill score of every other common neighbor of x and y by one."""
    n = g.n
    rows = list(g.row)
    alive = g.full_mask

    def score(v, clique):
        """v's score, its live neighbors in `clique` being pairwise adjacent."""
        rest = rows[v] & alive & ~clique
        if order == "degree":
            return rest.bit_count() + clique.bit_count()
        inner = cross = 0
        for x in bits(rest):
            inner += (rest & ~rows[x]).bit_count() - 1
            cross += (clique & ~rows[x]).bit_count()
        return inner // 2 + cross

    scores = [score(v, 0) for v in range(n)]
    heap = [(s, v) for v, s in enumerate(scores)]
    heapq.heapify(heap)
    bags = []
    elim_pos = {}
    elim_order = []
    for step in range(n):
        while True:
            s, v = heapq.heappop(heap)
            if alive >> v & 1 and scores[v] == s:
                break
        nb = rows[v] & alive
        bags.append(nb | (1 << v))
        elim_pos[v] = step
        elim_order.append(v)
        alive &= ~(1 << v)
        changed = nb
        if order != "degree":
            for x in bits(nb):
                for y in bits(nb & ~rows[x] & ~((2 << x) - 1)):
                    common = rows[x] & rows[y] & alive & ~nb
                    changed |= common
                    for u in bits(common):
                        scores[u] -= 1
        for u in bits(nb):
            clique = nb & ~(1 << u)
            rows[u] |= clique
            scores[u] = score(u, clique)
        for u in bits(changed):
            heapq.heappush(heap, (scores[u], u))
    edges = []
    roots = []
    for step, v in enumerate(elim_order):
        rest = bags[step] & ~(1 << v)
        if rest:
            parent_vertex = min(bits(rest), key=lambda u: elim_pos[u])
            edges.append((step, elim_pos[parent_vertex]))
        else:
            roots.append(step)
    for a, b in zip(roots, roots[1:]):
        edges.append((a, b))
    return TreeDecomposition(n, bags, edges)


def path_decomposition(g: Graph, max_width: int | None = None) -> TreeDecomposition | None:
    """Path decomposition from a greedy vertex-separation order, or None once
    a bag would hold more than max_width + 1 vertices.

    Vertices are placed one at a time. The frontier holds the placed vertices
    with a neighbor still unplaced, and each step's bag is the frontier plus
    the vertex it places. The next vertex is a neighbor of the frontier that
    grows it least, then the one with the most neighbors in it, then the one
    with the fewest unplaced neighbors, then the least id; a component is
    entered at its vertex of least degree, then least id."""
    rows = g.row
    unplaced = g.full_mask
    frontier = 0
    bags = []
    while unplaced:
        if max_width is not None and frontier.bit_count() > max_width:
            return None
        # closes[m]: how many frontier vertices have m as their one unplaced neighbor
        closes = {}
        candidates = 0
        for u in bits(frontier):
            rest = rows[u] & unplaced
            candidates |= rest
            if not rest & (rest - 1):
                closes[rest] = closes.get(rest, 0) + 1

        def growth(v):
            rest = rows[v] & unplaced
            return ((rest != 0) - closes.get(1 << v, 0), -(rows[v] & frontier).bit_count(),
                    rest.bit_count(), v)

        if candidates:
            v = min(bits(candidates), key=growth)
        else:
            v = min(bits(unplaced), key=lambda u: (rows[u].bit_count(), u))
        vb = 1 << v
        bags.append(frontier | vb)
        unplaced &= ~vb
        frontier |= vb
        for u in bits(frontier & (rows[v] | vb)):
            if not rows[u] & unplaced:
                frontier &= ~(1 << u)
    return TreeDecomposition(g.n, bags, [(i, i + 1) for i in range(len(bags) - 1)])


def planned_cost(td: TreeDecomposition) -> int:
    """Planned work of the bag DP on td: 6^s for each node of td's nice form
    whose bag holds s vertices, and 8^s more for each join node.

    Counted bag by bag as make_nice makes them, without building any node:
    a leaf bag's chain up from an empty leaf or a bag's k - 1 joins, then its
    move into its parent's bag, or the empty bag at the root."""

    def chain(lo, hi):
        """One nice node for each bag size lo..hi."""
        return (6 ** (hi + 1) - 6 ** lo) // 5

    if not td.bags:
        return 1  # make_nice's one empty leaf
    total = 0
    for b, parent, children in _postorder(td):
        bag = td.bags[b]
        size = bag.bit_count()
        if children:
            total += (len(children) - 1) * (6 ** size + 8 ** size)
        else:
            total += chain(0, size)
        target = 0 if parent is None else td.bags[parent]
        shared = (bag & target).bit_count()
        total += chain(shared, size - 1) + chain(shared + 1, target.bit_count())
    return total


def choose_decomposition(g: Graph, width_ceiling: int = DEFAULT_WIDTH_CEILING):
    """Min-fill's decomposition or a path decomposition, whichever has the
    lower planned_cost; gamma_i_treewidth checks the one it runs on.

    A path decomposition wider than the ceiling is not built, so one within
    it replaces a wider min-fill regardless of cost, and with none within it
    min-fill is returned for the solver to refuse. Ties keep min-fill."""
    best = heuristic_decomposition(g)
    path = path_decomposition(g, width_ceiling)
    if path is not None and (best.width > width_ceiling or planned_cost(path) < planned_cost(best)):
        best = path
    return best


# --- nice form ---------------------------------------------------------------

LEAF = "leaf"
INTRODUCE = "introduce"
FORGET = "forget"
JOIN = "join"


@dataclass
class NiceNode:
    kind: str
    bag: int
    children: tuple[int, ...] = ()
    vertex: int | None = None


@dataclass
class NiceDecomposition:
    n: int
    nodes: list[NiceNode]

    @property
    def root(self) -> int:
        return len(self.nodes) - 1

    @property
    def width(self) -> int:
        return max(node.bag.bit_count() for node in self.nodes) - 1


def make_nice(td: TreeDecomposition) -> NiceDecomposition:
    """Nice form: leaf/introduce/forget/join nodes, empty root bag. Raises
    GraphError when bag 0 does not reach every bag.

    Per bag of _postorder: a leaf bag's introduce chain from an empty leaf,
    or joins of the branches its children moved into it; then its move into
    its parent's bag (the root's is empty), one vertex forgotten or
    introduced per node."""
    nodes: list[NiceNode] = []

    def emit(kind, bag, children=(), vertex=None):
        nodes.append(NiceNode(kind, bag, tuple(children), vertex))
        return len(nodes) - 1

    def move(nid, src, dst):
        current = src
        for v in bits(src & ~dst):
            current &= ~(1 << v)
            nid = emit(FORGET, current, (nid,), v)
        for v in bits(dst & ~current):
            current |= 1 << v
            nid = emit(INTRODUCE, current, (nid,), v)
        return nid

    if not td.bags:
        emit(LEAF, 0)
        return NiceDecomposition(td.n, nodes)
    walk = _postorder(td)
    if len(walk) != len(td.bags):
        raise GraphError(f"bag graph is disconnected: bag 0 reaches {len(walk)} of "
                         f"{len(td.bags)} bags")
    top = [0] * len(td.bags)  # each bag's last node, in its parent's bag
    for b, parent, children in walk:
        bag = td.bags[b]
        if children:
            nid = top[children[0]]
            for c in children[1:]:
                nid = emit(JOIN, bag, (nid, top[c]))
        else:
            nid = move(emit(LEAF, 0), 0, bag)
        top[b] = move(nid, bag, 0 if parent is None else td.bags[parent])
    return NiceDecomposition(td.n, nodes)


# --- the DP ------------------------------------------------------------------


@dataclass(slots=True, eq=False)
class _Item:
    alpha: int  # A inside the bag
    table: list  # cost at d | w << |bag - alpha| in local bits, INF if infeasible
    members: int  # A in the whole subtree, forgotten vertices included

    def as_dict(self, bag):
        """The finite entries as {(D-in-bag mask, white mask): cost}."""
        ds, ws = _subsets(bag & ~self.alpha), _subsets(self.alpha)
        return {
            (ds[i % len(ds)], ws[i // len(ds)]): c
            for i, c in enumerate(self.table) if c != INF
        }


def _subsets(mask):
    """Every subset of mask, indexed by its bag-local bit pattern."""
    out = [0]
    for u in bits(mask):
        out += [m | 1 << u for m in out]
    return out


def _rank(mask, v):
    """Position of v among the bits of mask, counted from the lowest."""
    return (mask & ((1 << v) - 1)).bit_count()


def _local(mask, within):
    """mask restricted to within, with each bit renumbered by its rank."""
    out = 0
    mask &= within
    while mask:
        low = mask & -mask
        out |= 1 << (within & (low - 1)).bit_count()
        mask ^= low
    return out


def _drop(x, p):
    """x with bit p taken out and the higher bits moved down one."""
    return (x & ((1 << p) - 1)) | (x >> (p + 1)) << p


# An index map lists source positions: introduce builds a table as
# [src[i] for i in m]. Maps depend only on a table's shape (the numbers of
# D-positions and of A-members, the vertex's position and a small local
# pattern), never on the instance, so one built for a shape serves every
# later node and call of that shape. The cache keeps them as tuples, up to
# MAP_CACHE_ENTRIES in all.


def _introduce_map(a, b, p, seen):
    """Introduce v outside A at D-position p. The source is the child's table
    (2^(a+b) entries) followed by the same plus one: with v in D the entry
    for white set w is the child's for w minus what v whitens, `seen`."""
    n = 1 << (a + b)
    out = []
    for w in range(1 << a):
        base0, base1 = w << b, n + ((w & ~seen) << b)
        out += [_drop(d, p) + (base1 if d >> p & 1 else base0) for d in range(2 << b)]
    return out


def _add_to_a_map(a, b, q, row, lone):
    """Introduce v into A at position q, from the same source. v may be white
    only if a D-vertex of the bag in `row` dominates it, or, `lone` (without
    neighbors), by paying one to dominate itself; otherwise the entry reads
    INF (index 2n)."""
    n = 1 << (a + b)
    out = []
    for w in range(2 << a):
        base = _drop(w, q) << b
        if not w >> q & 1:
            out += range(base, base + (1 << b))
        elif lone:
            out += range(n + base, n + base + (1 << b))
        else:
            out += [base + d if d & row else 2 * n for d in range(1 << b)]
    return out


class _MapCache:
    """Index maps by builder and shape, holding at most `limit` entries in
    all: a map larger than that is built and not kept, and a cache that
    would overflow is emptied first."""

    def __init__(self, limit):
        self.limit = limit
        self.maps = {}
        self.size = 0

    def get(self, build, *shape):
        key = (build, *shape)
        m = self.maps.get(key)
        if m is None:
            m = tuple(build(*shape))
            if len(m) <= self.limit:
                if self.size + len(m) > self.limit:
                    self.maps.clear()
                    self.size = 0
                self.maps[key] = m
                self.size += len(m)
        return m


_maps = _MapCache(MAP_CACHE_ENTRIES)


@dataclass
class DPStats:
    """Size of one bag DP: items and table entries at the largest node, and
    the most table entries live at once (a node's tables live until its
    parent is built). Entries count dense slots, infeasible ones included."""

    nice_nodes: int = 0
    max_items: int = 0
    max_entries: int = 0
    peak_live_entries: int = 0


def _planned_entries(g, node, kids):
    """Table entries a node allocates before its infeasible and bounded items
    are dropped, from its children's items alone: 2^|bag| for each item it
    builds."""
    if node.kind == LEAF:
        return 1
    if node.kind == JOIN:
        right = Counter(it.alpha for it in kids[1])
        count = sum(right[it.alpha] for it in kids[0])
    elif node.kind == FORGET:
        count = len(kids[0])
    else:
        row = g.row[node.vertex]
        count = sum(2 - bool(row & it.alpha) for it in kids[0])
    return count << node.bag.bit_count()


def _feasible(item):
    return min(item.table) < INF


def _dp_nodes(g, nd, stats=None):
    """Yield (node index, items) for every nice node, children first. A
    forget or a join drops each item that is infeasible throughout and,
    through graph.undominated, each whose table another item of its
    A-pattern bounds from above; closed tables are canonical, so of equal
    cost functions one item stays. A node's items are dropped once its
    parent is built, so only the tables of the frontier stay live. A node
    that would allocate more than TABLE_BUDGET entries raises CapacityError
    before it allocates any."""
    if stats is None:
        stats = DPStats()
    stats.nice_nodes = len(nd.nodes)
    live = {}
    sizes = {}
    live_entries = 0
    for idx, node in enumerate(nd.nodes):
        kids = [live.pop(c) for c in node.children]
        need = _planned_entries(g, node, kids)
        if need > TABLE_BUDGET:
            raise CapacityError(
                f"nice node {idx} (bag width {node.bag.bit_count() - 1}) needs {need} "
                f"table entries, above the budget of {TABLE_BUDGET}"
            )
        if node.kind == LEAF:
            items = [_Item(0, [0], 0)]
        elif node.kind == INTRODUCE:
            items = _introduce(g, node, kids[0])
        else:
            built = _forget(node, kids[0]) if node.kind == FORGET else _join(node, *kids)
            items = undominated(filter(_feasible, built), attrgetter("alpha"), attrgetter("table"))
        live[idx] = items
        entries = sizes[idx] = len(items) << node.bag.bit_count()
        live_entries += entries
        stats.max_items = max(stats.max_items, len(items))
        stats.max_entries = max(stats.max_entries, entries)
        stats.peak_live_entries = max(stats.peak_live_entries, live_entries)
        for c in node.children:
            live_entries -= sizes.pop(c)
        yield idx, items


def _introduce(g, node, child_items):
    """Closed tables straight from closed child tables: the cheapest way to
    reach "at least w dominated" with v in D is the child entry for w minus
    what v dominates, so every entry is one gather and no minimum is taken.
    v joins A outside D, and pays one to dominate itself if it has no
    neighbor (see the module docstring). Every child entry is copied, so
    items stay mutually unbounded and need no filter; emitting each
    A-pattern's items before those that add v keeps them grouped by
    A-pattern, as undominated leaves them."""
    v = node.vertex
    vb = 1 << v
    row = g.row[v]
    items = []
    for alpha, group in groupby(child_items, key=attrgetter("alpha")):
        a = alpha.bit_count()
        others = node.bag & ~alpha & ~vb  # the child's D-positions
        b = others.bit_count()
        seen = row & alpha
        keep = _maps.get(_introduce_map, a, b, _rank(others, v), _local(seen, alpha))
        join_a = None if seen else _maps.get(_add_to_a_map, a, b, _rank(alpha, v),
                                             _local(row, others), not row)
        added = []
        for it in group:
            src = it.table + [c + 1 for c in it.table]
            src.append(INF)
            items.append(_Item(alpha, [src[i] for i in keep], it.members))
            if join_a is not None:
                added.append(_Item(alpha | vb, [src[i] for i in join_a], it.members | vb))
        items += added
    return items


def _forget(node, child_items):
    """A forgotten member of A is read as white; any other vertex takes the
    cheaper of outside D and in D. Either way the entries kept are those
    whose index has v's bit set or clear, read as runs of slices."""
    v = node.vertex
    vb = 1 << v
    items = []
    for alpha, group in groupby(child_items, key=attrgetter("alpha")):
        others = node.bag & ~alpha
        if alpha & vb:
            run = 1 << (_rank(alpha, v) + others.bit_count())
            items += [_Item(alpha & ~vb, _runs(it.table, run, run), it.members) for it in group]
            continue
        run = 1 << _rank(others, v)
        for it in group:
            t = it.table
            table = [x if x < y else y for x, y in zip(_runs(t, run, 0), _runs(t, run, run))]
            items.append(_Item(alpha, table, it.members))
    return items


def _runs(t, run, start):
    """The entries of t whose index has the bit of value `run` clear (start
    0) or set (start `run`), in order."""
    if run == 1:
        return t[start::2]
    out = []
    for i in range(start, len(t), 2 * run):
        out += t[i:i + run]
    return out


def _join(node, items1, items2):
    """Pairs of items with equal A-patterns. White set w is the block of
    entries w << |bag - A| onwards, one entry per D-pattern, and each split
    of w into disjoint w1 | w2 adds two whole blocks."""
    dominators = [d.bit_count() for d in range(1 << node.bag.bit_count())]
    by_alpha = {}
    for it in items2:
        t = it.table
        size = 1 << (node.bag & ~it.alpha).bit_count()
        blocks = [t[i:i + size] for i in range(0, len(t), size)]
        by_alpha.setdefault(it.alpha, []).append((it, blocks))
    items = []
    for it1 in items1:
        pairs = by_alpha.get(it1.alpha)
        if not pairs:
            continue
        t = it1.table
        size = 1 << (node.bag & ~it1.alpha).bit_count()
        # both sides count the bag's dominators
        left = [list(map(sub, t[i:i + size], dominators)) for i in range(0, len(t), size)]
        for it2, right in pairs:
            table = []
            for w in range(len(left)):
                acc = list(map(add, left[w], right[0]))
                w1 = w
                while w1:
                    w1 = (w1 - 1) & w
                    acc = [x if x < y else y
                           for x, y in zip(acc, map(add, left[w1], right[w ^ w1]))]
                table += acc
            items.append(_Item(it1.alpha, table, it1.members | it2.members))
    return items


def gamma_i_treewidth(
    g: Graph,
    td: TreeDecomposition | None = None,
    width_ceiling: int = DEFAULT_WIDTH_CEILING,
    stats: DPStats | None = None,
):
    """Independence-domination number via a tree decomposition.

    A negative ceiling is bad input (GraphError, see check_ceiling). Without
    a decomposition, choose_decomposition picks one. Widths above the
    ceiling are rejected rather than attempted (CapacityError); then the
    decomposition, given or chosen, is checked with validate_decomposition,
    and an invalid one raises GraphError. A given ``stats`` is filled with
    the size of the DP.

    The DP prices its independent set A; a search that stops at the first
    dominating set of A with at most that many vertices names the witness.
    It raises when the set found is smaller than the value (the DP was too
    high) and when the search finds none and ends above it (too low).
    """
    check_ceiling("width", width_ceiling)
    if td is None:
        td = choose_decomposition(g, width_ceiling)
    if td.width > width_ceiling:
        raise CapacityError(f"decomposition width {td.width} exceeds ceiling {width_ceiling}")
    bad = validate_decomposition(g, td)
    if bad is not None:
        raise GraphError(f"invalid tree decomposition ({bad})")
    for _, root_items in _dp_nodes(g, make_nice(td), stats):
        pass  # only the root's items are needed
    best_item = max(root_items, key=lambda it: it.table[0])
    best_value = best_item.table[0]
    a_mask = best_item.members
    found, witness, _ = gamma_of_independent_set_fast(g, a_mask, cutoff=best_value)
    if found != best_value:
        raise GraphError(
            f"internal error: DP value {best_value}, but the witness search found a "
            f"dominating set of {found} vertices for its independent set"
        )
    return best_value, DominationCertificate(a_mask, witness, best_value)


# --- PACE-style file format --------------------------------------------------
#
# Native header "s <#bags> <width+1> <n>" with 0-based "b <id> <vertices..>"
# lines and bag-edge lines "<id> <id>". Files with an "s td ..." header are
# read with PACE conventions instead: 1-based bag ids and vertex names.


def serialize_decomposition(td: TreeDecomposition) -> str:
    lines = [f"s {len(td.bags)} {td.width + 1} {td.n}"]
    for i, bag in enumerate(td.bags):
        lines.append("b {} {}".format(i, " ".join(map(str, mask_to_list(bag)))).rstrip())
    for a, b in td.edges:
        lines.append(f"{a} {b}")
    return "\n".join(lines) + "\n"


def _ids(tokens, first, lineno):
    """Tokens as 0-based ids; ids in the file start at `first`."""
    ids = [i - first for i in parse_ints(tokens, lineno)]
    if any(i < 0 for i in ids):
        raise FormatError(f"ids start at {first}", lineno)
    return ids


def parse_decomposition(text: str) -> TreeDecomposition:
    header = None
    first = 0
    bags = {}
    edges = []
    for lineno, parts in read_lines(text, c_comments=True):
        if parts[0] == "s":
            if header is not None:
                raise FormatError("duplicate 's' header", lineno)
            body = parts[1:]
            if body and body[0] == "td":
                first = 1
                body = body[1:]
            if len(body) != 3:
                raise FormatError("expected 's [td] <#bags> <width+1> <n>'", lineno)
            header = tuple(_ids(body, 0, lineno))
            header_line = lineno
            if header[2] > MAX_VERTICES:
                raise FormatError(f"n={header[2]} exceeds {MAX_VERTICES} vertices", lineno)
        elif parts[0] == "b":
            if header is None or len(parts) < 2:
                raise FormatError("expected bag line 'b <id> <vertices..>' after 's'", lineno)
            idx, *verts = _ids(parts[1:], first, lineno)
            if any(v >= header[2] for v in verts):
                raise FormatError(f"bag {parts[1]} has a vertex out of range for n={header[2]}", lineno)
            if idx in bags:
                raise FormatError(f"duplicate bag {parts[1]}", lineno)
            bags[idx] = mask_from(verts)
        else:
            if header is None or len(parts) != 2:
                raise FormatError("expected bag-edge line '<id> <id>'", lineno)
            edges.append(tuple(_ids(parts, first, lineno)))
    if header is None:
        raise FormatError("missing 's' header")
    count, size, n = header
    if len(bags) != count or sorted(bags) != list(range(count)):
        raise FormatError(f"expected bags 0..{count - 1}")
    largest = max((b.bit_count() for b in bags.values()), default=0)
    if size != largest:
        raise FormatError(
            f"header gives <width+1> = {size}, but the largest bag holds {largest} vertices",
            header_line,
        )
    return TreeDecomposition(n, [bags[i] for i in range(count)], edges)
