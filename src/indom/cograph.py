"""Cotree recognition and closed-form domination values for cographs.

A cograph decomposes completely into disjoint unions and joins; the cotree
records that decomposition with leaves standing for vertices. Recognition
works by recursive partition: split on connected components, otherwise on
components of the complement, otherwise the block is not a cograph. The
refusal witness is a 4-vertex induced path in that block, extracted when it
is first read.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import (
    ClassMismatchError,
    Graph,
    GraphError,
    FormatError,
    bits,
    connected_components,
    mask_from,
    mask_to_list,
    parse_ints,
    read_lines,
)
from .oracle import DominationCertificate

LEAF = "leaf"
UNION = "union"
JOIN = "join"


class CotreeNode:
    __slots__ = ("label", "children", "vertex")

    def __init__(self, label, children=(), vertex=None):
        self.label = label
        self.children = list(children)
        self.vertex = vertex


@dataclass(frozen=True)
class Cotree:
    root: CotreeNode
    n: int

    def postorder(self):
        """Every node after its children; a leaf's children are not walked."""
        order = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            order.append(node)
            if node.label != LEAF:
                stack.extend(node.children)
        order.reverse()
        return order


class P4Witness:
    """Four vertices inducing a path, in path order.

    build_cotree gives the graph and the block it could not split instead,
    and the path is found in that block when ``vertices`` is first read:
    auto dispatch only tests the type of a refusal and moves on.
    """

    __slots__ = ("_vertices", "_block")

    def __init__(self, vertices: tuple[int, int, int, int]):
        self._vertices = tuple(vertices)
        self._block = None

    @classmethod
    def _in_block(cls, g: Graph, mask: int) -> P4Witness:
        witness = cls.__new__(cls)
        witness._vertices = None
        witness._block = g, mask
        return witness

    @property
    def vertices(self) -> tuple[int, int, int, int]:
        if self._vertices is None:
            self._vertices = _extract_p4(*self._block)
            self._block = None
        return self._vertices

    def __eq__(self, other):
        if not isinstance(other, P4Witness):
            return NotImplemented
        return self.vertices == other.vertices

    def __hash__(self):
        return hash(self.vertices)

    def __repr__(self):
        return f"P4Witness(vertices={self.vertices!r})"


def _split(g, mask):
    """Classify a vertex block: leaf, union parts, join parts, or stuck."""
    if mask & (mask - 1) == 0:
        return LEAF, None
    comps = connected_components(g, mask)
    if len(comps) > 1:
        return UNION, comps
    co_comps = _co_components(g, mask)
    if len(co_comps) > 1:
        return JOIN, co_comps
    return None, None


def _co_components(g, mask):
    """Connected components of the complement, restricted to mask."""
    todo = mask
    comps = []
    while todo:
        seed = todo & -todo
        comp = seed
        frontier = seed
        while frontier:
            grow = 0
            for v in bits(frontier):
                grow |= mask & ~g.row[v] & ~(1 << v)
            grow &= todo & ~comp
            comp |= grow
            frontier = grow
        comps.append(comp)
        todo &= ~comp
    return comps


def _is_cograph_block(g, mask):
    stack = [mask]
    while stack:
        m = stack.pop()
        kind, parts = _split(g, m)
        if kind is None:
            return False
        if kind != LEAF:
            stack.extend(parts)
    return True


def _extract_p4(g, mask):
    """Shrink a non-cograph block to exactly four vertices inducing a P4,
    returned in path order.

    Every superset of a non-cograph set is a non-cograph, so a run of
    vertices whose removal leaves a non-cograph is dropped at once and a run
    that cannot go is halved. Each vertex kept was tested alone, so the result
    is a minimal non-cograph set, which is an induced P4.
    """
    runs = [mask_to_list(mask)]
    while runs:
        run = runs.pop()
        smaller = mask & ~mask_from(run)
        if not _is_cograph_block(g, smaller):
            mask = smaller
        elif len(run) > 1:
            half = len(run) // 2
            runs += [run[half:], run[:half]]
    quad = mask_to_list(mask)
    assert len(quad) == 4
    ends = [v for v in quad if (g.row[v] & mask).bit_count() == 1]
    a = min(ends)
    path = [a]
    seen = 1 << a
    while len(path) < 4:
        nxt = g.row[path[-1]] & mask & ~seen
        v = next(bits(nxt))
        path.append(v)
        seen |= 1 << v
    return tuple(path)


def build_cotree(g: Graph):
    """Cotree of g, or a P4Witness when g is not a cograph. The empty graph's
    cotree is a union of no components."""
    if g.n == 0:
        return Cotree(CotreeNode(UNION), 0)
    root_holder = [None]
    stack = [(g.full_mask, root_holder, 0)]
    while stack:
        mask, holder, slot = stack.pop()
        kind, parts = _split(g, mask)
        if kind is None:
            return P4Witness._in_block(g, mask)
        if kind == LEAF:
            node = CotreeNode(LEAF, vertex=next(bits(mask)))
        else:
            node = CotreeNode(kind, children=[None] * len(parts))
            for i, part in enumerate(parts):
                stack.append((part, node.children, i))
        holder[slot] = node
    return Cotree(root_holder[0], g.n)


def is_cograph(g: Graph) -> bool:
    return g.n == 0 or _is_cograph_block(g, g.full_mask)


def cotree_to_graph(t: Cotree) -> Graph:
    """Reconstruct adjacency from the cotree.

    A JOIN makes each vertex of a child adjacent to the node's vertices in
    its other children, so each such vertex's row ORs in one mask: the
    node's vertices minus its child's. The leaves are checked first.
    """
    order = t.postorder()
    leaves = [node.vertex for node in order if node.label == LEAF]
    if sorted(leaves) != list(range(t.n)):
        raise GraphError("cotree leaves are not a bijection onto 0..n-1")
    rows = [0] * t.n
    parts = {}  # id(node) -> (vertex mask, vertex list) of a node not yet merged
    for node in order:
        if node.label == LEAF:
            parts[id(node)] = (1 << node.vertex, [node.vertex])
            continue
        children = [parts.pop(id(c)) for c in node.children]
        mask = 0
        vertices = []
        for part, members in children:
            mask |= part
            vertices += members
        if node.label == JOIN:
            for part, members in children:
                others = mask ^ part
                for v in members:
                    rows[v] |= others
        parts[id(node)] = (mask, vertices)
    return Graph._from_rows(rows)


def validate_cotree(t: Cotree) -> None:
    """Check arity, that no internal node shares its label with a child, and
    that the leaves are 0..n-1. The one internal node allowed fewer than two
    children is the empty graph's root, a union of no components."""
    seen = []
    for node in t.postorder():
        if node.label == LEAF:
            seen.append(node.vertex)
            continue
        empty_root = t.n == 0 and node is t.root and node.label == UNION
        if len(node.children) < 2 and not empty_root:
            raise GraphError("internal cotree node with fewer than 2 children")
        if any(c.label == node.label for c in node.children):
            raise GraphError("cotree labels do not alternate")
    if sorted(seen) != list(range(t.n)):
        raise GraphError("cotree leaves are not a bijection onto 0..n-1")


def gamma_cograph(t: Cotree) -> int:
    """Domination number from the cotree alone.

    Union nodes add up; a join is dominated by one universal vertex if some
    part has one, and by a cross pair otherwise.
    """
    values = {}
    for node in t.postorder():
        if node.label == LEAF:
            values[id(node)] = 1
        else:
            child_vals = [values.pop(id(c)) for c in node.children]
            if node.label == UNION:
                values[id(node)] = sum(child_vals)
            else:
                values[id(node)] = min(min(child_vals), 2)
    return values[id(t.root)]


def gamma_i_cograph(g: Graph, cotree: Cotree | None = None) -> tuple[int, DominationCertificate]:
    """Independence-domination number of a cograph: its component count.

    The cotree, when given, stands in for recognition and is trusted to be
    g's (check it with cotree_to_graph); otherwise g is recognised here. The
    certificate takes, per component, the lexicographically least maximal
    independent set together with one vertex adjacent to all of it.
    """
    if cotree is None:
        cotree = build_cotree(g)
        if isinstance(cotree, P4Witness):
            raise ClassMismatchError("input is not a cograph", witness=cotree)
    comps = connected_components(g)
    a_mask = 0
    d_mask = 0
    for comp in comps:
        part = 0
        for v in bits(comp):
            if g.row[v] & part == 0:
                part |= 1 << v
        a_mask |= part
        for v in bits(comp):
            if part & ~g.closed[v] == 0:
                d_mask |= 1 << v
                break
        else:
            raise GraphError("no single dominator inside a cograph component")
    return len(comps), DominationCertificate(a_mask, d_mask, len(comps))


# --- cotree text format ------------------------------------------------------
#
# One node per line, preorder: "node <id> <parent-id|-> <UNION|JOIN|LEAF> [vertex]".

_LABELS = {"UNION": UNION, "JOIN": JOIN, "LEAF": LEAF}


def serialize_cotree(t: Cotree) -> str:
    lines = []
    stack = [(t.root, "-")]
    next_id = 0
    while stack:
        node, parent_id = stack.pop()
        my_id = next_id
        next_id += 1
        if node.label == LEAF:
            lines.append(f"node {my_id} {parent_id} LEAF {node.vertex}")
        else:
            lines.append(f"node {my_id} {parent_id} {node.label.upper()}")
            for c in reversed(node.children):
                stack.append((c, my_id))
    return "\n".join(lines) + "\n"


def parse_cotree(text: str) -> Cotree:
    nodes = {}
    root_id = None
    n_leaves = 0
    for lineno, parts in read_lines(text):
        if len(parts) < 4 or parts[0] != "node":
            raise FormatError("expected 'node <id> <parent> <LABEL> [vertex]'", lineno)
        label = _LABELS.get(parts[3])
        if label is None:
            raise FormatError(f"unknown label {parts[3]!r}", lineno)
        if len(parts) != (5 if label == LEAF else 4):
            raise FormatError(
                "a LEAF line ends with its vertex, a UNION or JOIN line with its label", lineno
            )
        node_id = parse_ints(parts[1:2], lineno)[0]
        if node_id in nodes:
            raise FormatError(f"duplicate node id {node_id}", lineno)
        parent_id = None if parts[2] == "-" else parse_ints(parts[2:3], lineno)[0]
        vertex = parse_ints(parts[4:5], lineno)[0] if label == LEAF else None
        if label == LEAF:
            node = CotreeNode(LEAF, vertex=vertex)
            n_leaves += 1
        else:
            node = CotreeNode(label)
        nodes[node_id] = node
        if parent_id is None:
            if root_id is not None:
                raise FormatError("two roots", lineno)
            root_id = node_id
        else:
            parent = nodes.get(parent_id)
            if parent is None:
                raise FormatError("parent appears after child or is missing", lineno)
            if parent.label == LEAF:
                raise FormatError(f"parent {parent_id} is a LEAF", lineno)
            parent.children.append(node)
    if root_id is None:
        raise FormatError("no root node")
    t = Cotree(nodes[root_id], n_leaves)
    validate_cotree(t)
    return t
