"""Core graph type, set algebra, products and file formats.

Vertex sets are plain Python ints used as bit masks over 0..n-1, so all
set operations (union, intersection, domination checks) are word-parallel.
A graph is stored only as such masks, one row of neighbors per vertex.
Helpers below convert between masks and vertex lists.
"""

from __future__ import annotations

import itertools
import operator
from typing import Iterable, Iterator

# Vertex ids are capped so product constructions cannot silently explode.
MAX_VERTICES = 4_000_000


class GraphError(ValueError):
    """Invalid graph construction or operation."""


class FormatError(GraphError):
    """Malformed graph text; carries the 1-based offending line number."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


def mask_from(vertices: Iterable[int] | int) -> int:
    """Normalize an int mask or an iterable of vertex ids to a mask."""
    if isinstance(vertices, int):
        return vertices
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bits(mask: int) -> Iterator[int]:
    """Iterate set bit positions in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_to_list(mask: int) -> list[int]:
    return list(bits(mask))


class Graph:
    """Simple undirected graph stored as its bit rows.

    ``row[v]`` is the neighbor set of v as a bit mask and ``closed[v]`` the
    closed neighborhood ``row[v] | 1 << v``; edges and degrees are read from
    the rows. Instances are immutable after construction and safe to share.
    """

    __slots__ = ("n", "row", "closed", "m")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0 or n > MAX_VERTICES:
            raise GraphError(f"vertex count {n} out of range 0..{MAX_VERTICES}")
        rows = [0] * n
        for u, v in edges:
            if u == v:
                raise GraphError(f"self-loop ({u}, {v})")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        self._set_rows(rows)

    @classmethod
    def _from_rows(cls, rows: Iterable[int]) -> Graph:
        """Graph on symmetric, loop-free adjacency masks, taken unchecked."""
        g = cls.__new__(cls)
        g._set_rows(rows)
        return g

    def _set_rows(self, rows):
        rows = tuple(rows)
        self.n = len(rows)
        self.row = rows
        self.closed = tuple(r | (1 << v) for v, r in enumerate(rows))
        self.m = sum(r.bit_count() for r in rows) // 2

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def edges(self) -> Iterator[tuple[int, int]]:
        for u, r in enumerate(self.row):
            for v in bits(r >> u + 1 << u + 1):
                yield (u, v)

    def degree(self, v: int) -> int:
        return self.row[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.row[u] >> v & 1)

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.row == other.row

    def __hash__(self):
        return hash((self.n, self.row))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a simple graph; duplicate edges are deduplicated."""
    return Graph(n, edges)


def is_independent(g: Graph, s: Iterable[int] | int) -> bool:
    s = mask_from(s)
    for v in bits(s):
        if g.row[v] & s:
            return False
    return True


def dominates(g: Graph, d: Iterable[int] | int, b: Iterable[int] | int) -> bool:
    """True iff every vertex of b lies in the closed neighborhood of some d vertex."""
    d = mask_from(d)
    b = mask_from(b)
    cover = 0
    for v in bits(d):
        cover |= g.closed[v]
    return b & ~cover == 0


def complement(g: Graph) -> Graph:
    full = g.full_mask
    return Graph._from_rows(full & ~c for c in g.closed)


def induced_subgraph(g: Graph, s: Iterable[int] | int) -> tuple[Graph, list[int]]:
    """Induced subgraph on s plus the list mapping new ids to original ids."""
    s = mask_from(s)
    old = mask_to_list(s)
    index = {v: i for i, v in enumerate(old)}
    rows = (mask_from(index[w] for w in bits(g.row[v] & s)) for v in old)
    return Graph._from_rows(rows), old


def connected_components(g: Graph, within: int | None = None) -> list[int]:
    """Component masks, in increasing order of their smallest member."""
    todo = g.full_mask if within is None else within
    comps = []
    while todo:
        seed = todo & -todo
        comp = seed
        frontier = seed
        while frontier:
            grow = 0
            for v in bits(frontier):
                grow |= g.row[v]
            grow &= todo & ~comp
            comp |= grow
            frontier = grow
        comps.append(comp)
        todo &= ~comp
    return comps


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Cartesian product; vertex (a, b) gets index a * h.n + b.

    (a1, b1) ~ (a2, b2) iff a1 == a2 and b1 ~ b2, or a1 ~ a2 and b1 == b2.
    """
    if g.n * h.n > MAX_VERTICES:
        raise GraphError(f"product on {g.n}*{h.n} vertices exceeds the id width")
    edges = []
    for a in range(g.n):
        base = a * h.n
        for b1, b2 in h.edges():
            edges.append((base + b1, base + b2))
    for a1, a2 in g.edges():
        for b in range(h.n):
            edges.append((a1 * h.n + b, a2 * h.n + b))
    return Graph(g.n * h.n, edges)


def strong_product(g: Graph, h: Graph) -> Graph:
    """Strong product; (a1, b1) ~ (a2, b2) iff a1 in N[a2] and b1 in N[b2]."""
    if g.n * h.n > MAX_VERTICES:
        raise GraphError(f"product on {g.n}*{h.n} vertices exceeds the id width")
    edges = list(cartesian_product(g, h).edges())
    for a1, a2 in g.edges():
        for b1, b2 in h.edges():
            edges.append((a1 * h.n + b1, a2 * h.n + b2))
            edges.append((a1 * h.n + b2, a2 * h.n + b1))
    return Graph(g.n * h.n, edges)


def product_pair(h: Graph, index: int) -> tuple[int, int]:
    """Row-major product index back to its (g-vertex, h-vertex) pair."""
    return divmod(index, h.n)


def edge_clique_graph(g: Graph) -> tuple[Graph, list[tuple[int, int]]]:
    """Edge-clique graph: vertices are the edges of g in lexicographic order.

    Two distinct edges are adjacent iff the union of their endpoints spans a
    clique of g: a shared endpoint plus a triangle, or two disjoint edges
    whose four endpoints induce a K4.
    """
    edge_list = sorted(g.edges())
    index = {e: i for i, e in enumerate(edge_list)}
    out = []
    for i, (a, b) in enumerate(edge_list):
        for j in range(i + 1, len(edge_list)):
            c, d = edge_list[j]
            endpoints = {a, b, c, d}
            if all(g.has_edge(u, v) for u, v in itertools.combinations(endpoints, 2)):
                out.append((i, j))
    return Graph(len(edge_list), out), edge_list


# --- text formats -----------------------------------------------------------
#
# edge-list: first line "n m", then m lines "u v" (0-based).
# DIMACS-like: "p [name] <n> <m>" header, then m lines "e u v" (0-based).
# Every text parser of the package reads its lines through read_lines and
# its integers through parse_ints: '#' starts a comment anywhere in every
# format, DIMACS and PACE files also skip 'c' lines.

EDGE_LIST = "edge-list"
DIMACS = "dimacs"

# edge lines are checked this many at a time; a bounded slice keeps the
# token lists of a large file from being held all at once
EDGE_SLICE = 4096


def read_lines(text: str, c_comments: bool = False) -> Iterator[tuple[int, list[str]]]:
    """(1-based line number, tokens) for each line with content; '#' starts a
    comment, and with c_comments so does a leading 'c' (DIMACS and PACE)."""
    return _content(text.splitlines(), 1, c_comments)


def _content(lines, first, c_comments):
    for lineno, line in enumerate(lines, start=first):
        tokens = line.partition("#")[0].split()
        if tokens and not (c_comments and tokens[0][0] == "c"):
            yield lineno, tokens


def parse_ints(tokens: list[str], line: int | None = None, what: str = "integers") -> list[int]:
    """Tokens as ints; a token that is not one is a FormatError for the line."""
    try:
        return list(map(int, tokens))
    except ValueError:
        raise FormatError(f"expected {what}, got {' '.join(tokens)!r}", line) from None


def parse(text: str, fmt: str = EDGE_LIST) -> Graph:
    """Graph from edge-list or DIMACS text, which differ only in the header
    and edge syntax.

    Edge lines are read in slices of EDGE_SLICE lines. A slice of plain edge
    lines is cut, converted and checked by builtins over the whole slice;
    any other slice (a comment, a blank line or an error in it) is read line
    by line, so an error names its line. Only the row ORs are a Python loop.
    """
    if fmt not in (EDGE_LIST, DIMACS):
        raise FormatError(f"unknown format {fmt!r}")
    dimacs = fmt == DIMACS
    lines = text.splitlines()
    header, n, m = _header(lines, dimacs)
    rows = [0] * n
    count = 0
    for start in range(header, len(lines), EDGE_SLICE):
        chunk = lines[start:start + EDGE_SLICE]
        us, vs = _plain_edges(chunk, n, dimacs) or _edge_lines(chunk, start + 1, n, dimacs)
        for u, v in zip(us, vs):
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        count += len(us)
    if count != m:
        raise FormatError(f"header declared {m} edges, found {count}", header)
    return Graph._from_rows(rows)


def _header(lines, dimacs):
    """(line number, n, m) of the header, the first line with content."""
    for lineno, tokens in _content(lines, 1, dimacs):
        if dimacs:
            directive, *tokens = tokens
            if directive == "e":
                raise FormatError("edge before 'p' header", lineno)
            if directive != "p":
                raise FormatError(f"unknown directive {directive!r}", lineno)
            if len(tokens) == 3 and not tokens[0].lstrip("-").isdigit():
                tokens = tokens[1:]  # the name in "p <name> n m"
        if len(tokens) != 2:
            raise FormatError("expected header " + ("'p [name] n m'" if dimacs else "'n m'"),
                              lineno)
        n, m = parse_ints(tokens, lineno)
        if not 0 <= n <= MAX_VERTICES:
            raise FormatError(f"vertex count {n} out of range 0..{MAX_VERTICES}", lineno)
        return lineno, n, m
    raise FormatError("missing 'p' header" if dimacs else "empty input: missing 'n m' header")


def _plain_edges(chunk, n, dimacs):
    """(us, vs) when every line of the slice is one valid edge, written with
    single spaces between its tokens, else None.

    Each line must hold exactly the spaces of its syntax, so joining the
    slice with spaces and cutting it at spaces puts line i's tokens at a
    known stride. Every other line fails a check here: a comment leaves a
    token holding '#' or 'c' (DIMACS), which int() or the directive test
    rejects, and a token with other whitespace inside is no int.
    """
    width = 3 if dimacs else 2
    if set(map(str.count, chunk, itertools.repeat(" "))) != {width - 1}:
        return None
    tokens = " ".join(chunk).split(" ")
    if dimacs and set(tokens[0::3]) != {"e"}:
        return None
    try:
        us = list(map(int, tokens[width - 2::width]))
        vs = list(map(int, tokens[width - 1::width]))
    except ValueError:
        return None
    if min(us) < 0 or min(vs) < 0 or max(us) >= n or max(vs) >= n:
        return None
    if any(map(operator.eq, us, vs)):
        return None
    return us, vs


def _edge_lines(chunk, first, n, dimacs):
    """(us, vs) of a slice read line by line; the first bad line raises."""
    us, vs = [], []
    for lineno, tokens in _content(chunk, first, dimacs):
        if dimacs:
            directive, *tokens = tokens
            if directive == "p":
                raise FormatError("duplicate 'p' header", lineno)
            if directive != "e":
                raise FormatError(f"unknown directive {directive!r}", lineno)
        if len(tokens) != 2:
            raise FormatError("expected edge " + ("'e u v'" if dimacs else "'u v'"), lineno)
        u, v = parse_ints(tokens, lineno)
        if u == v or not (0 <= u < n and 0 <= v < n):
            raise FormatError(f"bad edge ({u}, {v}) for n={n}", lineno)
        us.append(u)
        vs.append(v)
    return us, vs


def serialize(g: Graph, fmt: str = EDGE_LIST) -> str:
    edge_list = sorted(g.edges())
    if fmt == EDGE_LIST:
        lines = [f"{g.n} {len(edge_list)}"]
        lines += [f"{u} {v}" for u, v in edge_list]
        return "\n".join(lines) + "\n"
    if fmt == DIMACS:
        lines = [f"p {g.n} {len(edge_list)}"]
        lines += [f"e {u} {v}" for u, v in edge_list]
        return "\n".join(lines) + "\n"
    raise FormatError(f"unknown format {fmt!r}")
