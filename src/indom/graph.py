"""Core graph type, set algebra, products, file formats and the package's
error types.

Vertex sets are plain Python ints used as bit masks over 0..n-1, so all
set operations (union, intersection, domination checks) are word-parallel.
A graph is stored only as such masks, one row of neighbors per vertex.
Helpers below convert between masks and vertex lists.
"""

from __future__ import annotations

import itertools
import json
from collections import deque
from functools import partial
from operator import le, setitem
from typing import Iterable, Iterator

# Vertex ids are capped so product constructions cannot silently explode.
MAX_VERTICES = 4_000_000


class GraphError(ValueError):
    """Invalid graph construction or operation."""


class FormatError(GraphError):
    """Malformed graph text; carries the 1-based offending line number."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.message = message
        self.line = line


class ClassMismatchError(GraphError):
    """Input is outside the graph class a solver was forced onto."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class CapacityError(GraphError):
    """Instance exceeds a configured resource ceiling."""


def mask_from(vertices: Iterable[int] | int) -> int:
    """Normalize an int mask or an iterable of vertex ids to a mask."""
    if isinstance(vertices, int):
        return vertices
    m = 0
    for v in vertices:
        try:
            m |= 1 << v
        except ValueError:  # only a negative shift count
            raise GraphError(f"vertex id {v} is negative") from None
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
        bad = _add_edges(rows, edges)
        if bad is not None:
            u, v = bad
            raise GraphError(f"self-loop ({u}, {v})" if u == v
                             else f"edge ({u}, {v}) out of range for n={n}")
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


def _add_edges(rows: list[int], edges: Iterable[tuple[int, int]]) -> tuple[int, int] | None:
    """OR each edge (u, v) into rows[u] and rows[v]. The first self-loop or
    edge out of range for len(rows) vertices stops the loop and is returned,
    before any shift by it; None when every edge fits."""
    n = len(rows)
    for u, v in edges:
        if u == v or not (0 <= u < n and 0 <= v < n):
            return u, v
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return None


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a simple graph; duplicate edges are deduplicated."""
    return Graph(n, edges)


def vertex_set(g: Graph, s: Iterable[int] | int) -> int:
    """s as a mask; GraphError when it names a vertex outside 0..n-1."""
    s = mask_from(s)
    if s < 0 or s >> g.n:
        raise GraphError(f"set names a vertex outside 0..{g.n - 1}")
    return s


def closed_neighborhood(g: Graph, s: Iterable[int] | int) -> int:
    """N[s]: the mask of s and its neighbors."""
    cover = 0
    for v in bits(vertex_set(g, s)):
        cover |= g.closed[v]
    return cover


def is_independent(g: Graph, s: Iterable[int] | int) -> bool:
    s = vertex_set(g, s)
    for v in bits(s):
        if g.row[v] & s:
            return False
    return True


def dominates(g: Graph, d: Iterable[int] | int, b: Iterable[int] | int) -> bool:
    """True iff every vertex of b lies in the closed neighborhood of some d vertex."""
    cover = closed_neighborhood(g, d)
    return vertex_set(g, b) & ~cover == 0


def complement(g: Graph) -> Graph:
    full = g.full_mask
    return Graph._from_rows(full & ~c for c in g.closed)


def induced_subgraph(g: Graph, s: Iterable[int] | int) -> tuple[Graph, list[int]]:
    """Induced subgraph on s plus the list mapping new ids to original ids."""
    s = vertex_set(g, s)
    old = mask_to_list(s)
    index = {v: i for i, v in enumerate(old)}
    rows = (mask_from(index[w] for w in bits(g.row[v] & s)) for v in old)
    return Graph._from_rows(rows), old


def connected_components(g: Graph, within: int | None = None) -> list[int]:
    """Component masks, in increasing order of their smallest member."""
    todo = g.full_mask if within is None else vertex_set(g, within)
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
    edge_list = list(g.edges())
    index = {e: i for i, e in enumerate(edge_list)}
    out = []
    for i, (a, b) in enumerate(edge_list):
        for j in range(i + 1, len(edge_list)):
            c, d = edge_list[j]
            endpoints = {a, b, c, d}
            if all(g.has_edge(u, v) for u, v in itertools.combinations(endpoints, 2)):
                out.append((i, j))
    return Graph(len(edge_list), out), edge_list


def undominated(items: Iterable, key, costs) -> list:
    """The items that no other item of the same key bounds from above.

    An item whose cost vector another item's bounds pointwise from above
    never wins a maximum over items of a minimum over costs, so the max-min
    DPs drop it. Of items with equal costs the first is kept. The result
    lists the keys in order of first appearance, and each key's items in
    their input order.
    """
    groups = {}
    for it in items:
        c = costs(it)
        kept = groups.get(k := key(it))
        if kept is None:
            groups[k] = [(c, it)]
        elif not any(all(map(le, c, kc)) for kc, _ in kept):
            kept[:] = [(kc, b) for kc, b in kept if not all(map(le, kc, c))]
            kept.append((c, it))
    return [it for kept in groups.values() for _, it in kept]


# --- text formats -----------------------------------------------------------
#
# edge-list: first line "n m", then m lines "u v" (0-based).
# DIMACS-like: "p [name] <n> <m>" header, then m lines "e u v" (0-based).
# Every text parser of the package reads its lines through read_lines and
# its integers through parse_ints: '#' starts a comment anywhere in every
# format, DIMACS and PACE files also skip 'c' lines. parse reads slices of
# plain edge lines by one digit-deleting translate and one json decode
# instead, and every other slice as the rule says. When an n x n byte
# matrix is no larger than the text, parse scatters the edges into it in C
# rather than OR-ing each into a row mask in a Python loop step.

EDGE_LIST = "edge-list"
DIMACS = "dimacs"

# edge lines are read in slices of about this many characters, each cut at a
# line break, so only one slice's lines and ints are held at a time
EDGE_SLICE = 1 << 16

# str.splitlines breaks lines at "\r\n" and at each of these besides "\n";
# parse turns every break into "\n", so a slice can be cut and its lines
# counted at "\n" alone and line numbers stay those of splitlines
_OTHER_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_TO_NEWLINE = dict.fromkeys(map(ord, _OTHER_BREAKS), "\n")

# a slice of plain edge lines, "u v" in ASCII digits with single spaces
# (after its "e " line starts in DIMACS), has no comment, blank line, sign
# or other whitespace, so without its digits it is " " lines joined by
# line breaks
_NO_DIGITS = str.maketrans("", "", "0123456789")
_TO_COMMAS = str.maketrans(" \n", ",,")
# the byte of an edge in the matrix; every other byte is b"0"
_EDGE = ord("1")


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

    The header is found line by line. The rest of the text is read in slices
    of about EDGE_SLICE characters cut at line breaks. A slice of plain edge
    lines is recognised by one translate and decoded into ints by one json
    call; any other slice (a comment, a blank line, other whitespace, a
    number json or int() refuses, or a bad edge) is read line by line, so an
    error names its line. Line numbers are those of str.splitlines.

    When n * n is at most the length of the text, each edge (u, v) sets byte
    u * n + v of an n x n matrix of b"0" to b"1" through a C-level map, and
    row v is read back as the binary numbers of its row and its column; the
    bound is the text's length, not the header's m, so a header cannot make
    the matrix large. Other graphs OR each edge into two row masks.
    """
    if fmt not in (EDGE_LIST, DIMACS):
        raise FormatError(f"unknown format {fmt!r}")
    dimacs = fmt == DIMACS
    if any(map(text.__contains__, _OTHER_BREAKS)):
        text = text.replace("\r\n", "\n").translate(_TO_NEWLINE)
    header, start, n, m = _header(text, dimacs)
    if n * n <= len(text):
        matrix = bytearray(b"0") * (n * n)
        view = memoryview(matrix)
        add = partial(_scatter, matrix, [view[v * n:v * n + n] for v in range(n)])
    else:
        matrix = None
        rows = [0] * n
        add = lambda us, vs: _add_edges(rows, zip(us, vs)) is None
    count = 0
    lineno = header + 1
    # a final line break ends the last line and starts none
    end = len(text) - 1 if text.endswith("\n") else len(text)
    while start < end:
        cut = text.find("\n", start + EDGE_SLICE, end)
        if cut < 0:
            cut = end
        chunk = text[start:cut]
        edges = _plain_edges(chunk, dimacs)
        if edges is None or not add(*edges):
            # not plain, or a bad edge: read line by line, which raises at
            # the first bad line
            edges = _edge_lines(chunk.split("\n"), lineno, n, dimacs)
            add(*edges)
        count += len(edges[0])
        lineno += chunk.count("\n") + 1
        start = cut + 1
    if count != m:
        raise FormatError(f"header declared {m} edges, found {count}", header)
    if matrix is None:
        return Graph._from_rows(rows)
    return Graph._from_rows(int(matrix[v * n:v * n + n][::-1], 2) | int(matrix[v::n][::-1], 2)
                            for v in range(n))


def _scatter(matrix, rows, us, vs):
    """Set byte v of rows[u], a view of the matrix, for each edge (u, v);
    False when an id is n or more (the map stops there) or an edge set a
    diagonal byte, a self-loop. Ids are never negative: the slice was plain
    or read line by line."""
    try:
        deque(map(setitem, map(rows.__getitem__, us), vs, itertools.repeat(_EDGE)), 0)
    except IndexError:
        return False
    return _EDGE not in matrix[::len(rows) + 1]


def _header(text, dimacs):
    """(line number, offset of the next line, n, m) of the header, the first
    line with content (as _content finds it); lines end at "\n"."""
    start = 0
    lineno = 0
    while start <= len(text):
        end = text.find("\n", start)
        if end < 0:
            end = len(text)
        lineno += 1
        tokens = text[start:end].partition("#")[0].split()
        start = end + 1
        if not tokens or dimacs and tokens[0][0] == "c":
            continue
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
        return lineno, start, n, m
    raise FormatError("missing 'p' header" if dimacs else "empty input: missing 'n m' header")


def _plain_edges(chunk, dimacs):
    """(us, vs) of a slice of plain edge lines, else None.

    A DIMACS slice must start with "e ", and each "e " after a line break is
    dropped with it; an "e" anywhere else stays and fails the next test.
    Without its ASCII digits a plain slice is then one " " per line, joined
    by line breaks, which one translate and one compare test. With its
    spaces and line breaks made commas it is one JSON array of ints, which
    json decodes in C. json refuses an empty id (two separators
    in a row), a leading zero and a number longer than int()'s digit limit;
    those slices, like the ones the compare refuses, are read line by line.
    Edges are checked as they are added.
    """
    if dimacs:
        if not chunk.startswith("e "):
            return None
        chunk = chunk[2:].replace("\ne ", "\n")
    if chunk.translate(_NO_DIGITS) != " \n" * chunk.count("\n") + " ":
        return None
    try:
        ends = json.loads(f"[{chunk.translate(_TO_COMMAS)}]")
    except ValueError:
        return None
    return ends[0::2], ends[1::2]


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
    edge_list = list(g.edges())
    if fmt == EDGE_LIST:
        lines = [f"{g.n} {len(edge_list)}"]
        lines += [f"{u} {v}" for u, v in edge_list]
        return "\n".join(lines) + "\n"
    if fmt == DIMACS:
        lines = [f"p {g.n} {len(edge_list)}"]
        lines += [f"e {u} {v}" for u, v in edge_list]
        return "\n".join(lines) + "\n"
    raise FormatError(f"unknown format {fmt!r}")
