"""Tree decompositions and the bag dynamic program for gamma-i.

A bag vertex can be outside the pair (A, D), in A and still undominated
(gray), in A and dominated (white), in D only, or in both A and D (which
makes it white immediately; self-domination is how isolated members of A
ever get dominated). The DP keeps, per class of independent sets A, a cost
table mapping (D-in-bag pattern, dominated subset of A-in-bag) to the
minimum number of dominators spent so far. Keeping the whole table per
A-class is what lets the root take a maximum over A of a minimum over D;
a flat boolean table over counts cannot, because independent sets of equal
size with different domination costs would be merged.

Tables are closed under white subsets: with (dm, w), every (dm, w') with w'
inside w is present at equal or lower cost. An entry reads "at least w
dominated", a lookup is one dict access and equal cost functions have equal
tables. Forget keeps the closure. Introduce writes the closed table directly:
as the child's table is closed, the entry for "at least w" after a new
dominator v is the child's entry for w minus what v whitens, so each key is
written once. Join pairs only disjoint white sets under equal D-patterns, as
closure supplies every disjoint split of a union.

Each item carries its members, the A-vertices of its whole subtree, so the
root's best item names its independent set without a walk back down, and a
node's tables can be dropped as soon as its parent is built.
"""

from __future__ import annotations

import sys
from dataclasses import asdict, dataclass

from .graph import (MAX_VERTICES, Graph, GraphError, FormatError, bits, mask_from,
                    mask_to_list, parse_ints, read_lines)
from .oracle import DominationCertificate

DEFAULT_WIDTH_CEILING = 12


class CapacityError(GraphError):
    """Instance exceeds a configured resource ceiling."""


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
            adj[a].append(b)
            adj[b].append(a)
        return adj


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
    for u, v in g.edges():
        need = (1 << u) | (1 << v)
        if not any(b & need == need for b in td.bags):
            return Violation("edge-cover", f"edge ({u}, {v}) has no common bag")
    if len(td.edges) != max(len(td.bags) - 1, 0):
        return Violation("tree", "bag graph is not a tree")
    for a, b in td.edges:
        if not (0 <= a < len(td.bags) and 0 <= b < len(td.bags)):
            return Violation("tree", f"bag edge ({a}, {b}) out of range")
    adj = td.neighbors()
    if td.bags:
        seen = {0}
        frontier = [0]
        while frontier:
            nxt = []
            for i in frontier:
                for j in adj[i]:
                    if j not in seen:
                        seen.add(j)
                        nxt.append(j)
            frontier = nxt
        if len(seen) != len(td.bags):
            return Violation("tree", "bag graph is disconnected")
    for v in range(g.n):
        holders = [i for i, b in enumerate(td.bags) if b >> v & 1]
        seen = {holders[0]}
        frontier = [holders[0]]
        while frontier:
            nxt = []
            for i in frontier:
                for j in adj[i]:
                    if j not in seen and td.bags[j] >> v & 1:
                        seen.add(j)
                        nxt.append(j)
            frontier = nxt
        if len(seen) != len(holders):
            return Violation("connectivity", f"occurrences of vertex {v} are disconnected")
    return None


def heuristic_decomposition(g: Graph, order: str = "fill") -> TreeDecomposition:
    """Elimination-based decomposition; min-fill by default, no width claim."""
    n = g.n
    if n == 0:
        return TreeDecomposition(0, [0], [])
    rows = list(g.row)
    alive = g.full_mask
    bags = []
    elim_pos = {}
    elim_order = []
    for step in range(n):
        best_v, best_score = -1, None
        for v in bits(alive):
            nb = rows[v] & alive & ~(1 << v)
            if order == "degree":
                score = nb.bit_count()
            else:
                fill = 0
                for u in bits(nb):
                    fill += (nb & ~rows[u] & ~(1 << u)).bit_count()
                score = fill // 2
            if best_score is None or score < best_score:
                best_v, best_score = v, score
                if not score:
                    break  # nothing scores lower, and the first minimum wins
        v = best_v
        nb = rows[v] & alive & ~(1 << v)
        bags.append(nb | (1 << v))
        elim_pos[v] = step
        elim_order.append(v)
        for u in bits(nb):
            rows[u] |= nb & ~(1 << u)
        alive &= ~(1 << v)
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
    """Nice form: leaf/introduce/forget/join nodes, empty root bag."""
    nodes: list[NiceNode] = []

    def emit(kind, bag, children=(), vertex=None):
        nodes.append(NiceNode(kind, bag, tuple(children), vertex))
        return len(nodes) - 1

    def chain_from_empty(bag):
        nid = emit(LEAF, 0)
        current = 0
        for v in sorted(bits(bag)):
            current |= 1 << v
            nid = emit(INTRODUCE, current, (nid,), v)
        return nid

    def morph(nid, src, dst):
        current = src
        for v in sorted(bits(src & ~dst)):
            current &= ~(1 << v)
            nid = emit(FORGET, current, (nid,), v)
        for v in sorted(bits(dst & ~current)):
            current |= 1 << v
            nid = emit(INTRODUCE, current, (nid,), v)
        return nid

    if not td.bags:
        emit(LEAF, 0)
        return NiceDecomposition(td.n, nodes)

    adj = td.neighbors()

    def build(b, parent):
        children = [c for c in adj[b] if c != parent]
        if not children:
            return chain_from_empty(td.bags[b])
        branches = []
        for c in children:
            sub = build(c, b)
            branches.append(morph(sub, td.bags[c], td.bags[b]))
        nid = branches[0]
        for other in branches[1:]:
            nid = emit(JOIN, td.bags[b], (nid, other))
        return nid

    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, 4 * len(td.bags) + 100))
    try:
        top = build(0, None)
    finally:
        sys.setrecursionlimit(old_limit)
    morph(top, td.bags[0], 0)
    return NiceDecomposition(td.n, nodes)


# --- the DP ------------------------------------------------------------------


@dataclass(slots=True, eq=False)
class _Item:
    alpha: int  # A inside the bag
    table: dict
    members: int  # A in the whole subtree, forgotten vertices included


@dataclass
class DPStats:
    """Size of one bag DP: items and table entries at the largest node, and
    the most table entries live at once (a node's tables live until its
    parent is built)."""

    nice_nodes: int = 0
    max_items: int = 0
    max_entries: int = 0
    peak_live_entries: int = 0

    def as_dict(self):
        return asdict(self)


def _at_least(b, a):
    """True if table b costs at least as much as table a on every key of b,
    so a never wins the maximum over A."""
    for key, c in b.items():
        ca = a.get(key)
        if ca is None or ca > c:
            return False
    return True


def _merge_items(items):
    """Per A-pattern, keep one item of each cost function that no other
    item's function bounds from above. Closed tables are canonical, so equal
    functions have equal tables and duplicates go the same way."""
    grouped = {}
    for it in items:
        grouped.setdefault(it.alpha, []).append(it)
    out = []
    for group in grouped.values():
        kept = []
        for it in group:
            if not any(_at_least(b.table, it.table) for b in kept):
                kept = [b for b in kept if not _at_least(it.table, b.table)]
                kept.append(it)
        out.extend(kept)
    return out


def _dp_nodes(g, nd, stats=None):
    """Yield (node index, items) for every nice node, children first. A
    node's items are dropped once its parent is built, so only the tables
    of the frontier stay live."""
    if stats is None:
        stats = DPStats()
    stats.nice_nodes = len(nd.nodes)
    live = {}
    sizes = {}
    live_entries = 0
    for idx, node in enumerate(nd.nodes):
        kids = [live.pop(c) for c in node.children]
        if node.kind == LEAF:
            items = [_Item(0, {(0, 0): 0}, 0)]
        elif node.kind == INTRODUCE:
            items = _introduce(g, node, kids[0])
        elif node.kind == FORGET:
            items = _forget(node, kids[0])
        else:
            items = _join(*kids)
        live[idx] = items = _merge_items(items)
        entries = sizes[idx] = sum(len(it.table) for it in items)
        live_entries += entries
        stats.max_items = max(stats.max_items, len(items))
        stats.max_entries = max(stats.max_entries, entries)
        stats.peak_live_entries = max(stats.peak_live_entries, live_entries)
        for c in node.children:
            live_entries -= sizes.pop(c)
        yield idx, items


def _introduce(g, node, child_items):
    """Closed tables straight from closed child tables: the cheapest way to
    reach "at least wm dominated" is the child entry for wm minus what v
    dominates, so every key is written once and no minimum is taken."""
    v = node.vertex
    vb = 1 << v
    row = g.row[v]
    items = []
    for it in child_items:
        seen = row & it.alpha
        whitened = [0]  # every subset of seen
        for u in bits(seen):
            whitened += [b | 1 << u for b in whitened]
        table = dict(it.table)
        for (dm, wm), c in it.table.items():
            if not wm & seen:
                for b in whitened:
                    table[dm | vb, wm | b] = c + 1
        items.append(_Item(it.alpha, table, it.members))
        if not seen:
            table = {}
            for (dm, wm), c in it.table.items():
                table[dm, wm] = c
                if dm & row:
                    table[dm, wm | vb] = c
                table[dm | vb, wm] = table[dm | vb, wm | vb] = c + 1
            items.append(_Item(it.alpha | vb, table, it.members | vb))
    return items


def _forget(node, child_items):
    v = node.vertex
    vb = 1 << v
    items = []
    for it in child_items:
        in_a = bool(it.alpha & vb)
        table = {}
        for (dm, wm), c in it.table.items():
            if in_a and not (wm & vb):
                continue  # a forgotten member of A must be dominated by now
            key = (dm & ~vb, wm & ~vb)
            old = table.get(key)
            if old is None or c < old:
                table[key] = c
        if table:
            items.append(_Item(it.alpha & ~vb, table, it.members))
    return items


def _join(items1, items2):
    by_alpha = {}
    for it in items2:
        by_d = {}
        for (dm, wm), c in it.table.items():
            by_d.setdefault(dm, []).append((wm, c))
        by_alpha.setdefault(it.alpha, []).append((it, by_d))
    items = []
    for it1 in items1:
        for it2, by_d in by_alpha.get(it1.alpha, ()):
            table = {}
            for (dm, w1), c1 in it1.table.items():
                c1 -= dm.bit_count()  # both sides count the bag's dominators
                for w2, c2 in by_d.get(dm, ()):
                    if not w1 & w2:
                        key = (dm, w1 | w2)
                        old = table.get(key)
                        if old is None or c1 + c2 < old:
                            table[key] = c1 + c2
            if table:
                items.append(_Item(it1.alpha, table, it1.members | it2.members))
    return items


def gamma_i_treewidth(
    g: Graph,
    td: TreeDecomposition | None = None,
    width_ceiling: int = DEFAULT_WIDTH_CEILING,
    stats: DPStats | None = None,
):
    """Independence-domination number via a tree decomposition.

    The decomposition defaults to the min-fill heuristic; widths above the
    ceiling are rejected rather than attempted. A given ``stats`` is filled
    with the size of the DP.
    """
    if g.n == 0:
        return 0, DominationCertificate(0, 0, 0)
    if td is None:
        td = heuristic_decomposition(g)
    if td.width > width_ceiling:
        raise CapacityError(f"decomposition width {td.width} exceeds ceiling {width_ceiling}")
    bad = validate_decomposition(g, td)
    if bad is not None:
        raise GraphError(f"invalid tree decomposition ({bad})")
    for _, root_items in _dp_nodes(g, make_nice(td), stats):
        pass  # only the root's items are needed
    best_item = max(root_items, key=lambda it: it.table[0, 0])
    best_value = best_item.table[0, 0]
    a_mask = best_item.members
    from .exactexp import gamma_of_independent_set_fast

    value, witness, _ = gamma_of_independent_set_fast(g, a_mask)
    if value != best_value:
        raise GraphError(
            f"internal error: DP value {best_value} but witness set needs {value}"
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
    count, _, n = header
    if len(bags) != count or sorted(bags) != list(range(count)):
        raise FormatError(f"expected bags 0..{count - 1}")
    return TreeDecomposition(n, [bags[i] for i in range(count)], edges)
