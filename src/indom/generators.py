"""Reproducible graph generators, with class certificates where they exist.

Every generator is deterministic for a fixed (descriptor, seed) pair and is
driven by ``random.Random(seed)``; the sampling procedure of each generator
is part of the external contract so that test corpora stay stable. Class
generators also return the side artifact (cotree, pruning sequence,
permutation diagram) that certifies membership.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .graph import MAX_VERTICES, Graph, GraphError
from .cograph import Cotree, CotreeNode, LEAF, UNION, JOIN, cotree_to_graph
from .distance_hereditary import (
    PENDANT,
    TRUE_TWIN,
    FALSE_TWIN,
    PruneOp,
    PruningSequence,
    replay_sequence,
)
from .permutation import PermutationDiagram, diagram_to_graph


@dataclass(frozen=True)
class Generated:
    graph: Graph
    artifact: object = None


def _check_vertex_count(n: int) -> None:
    """Raise before any edge of an oversized graph is drawn or built."""
    if not 0 <= n <= MAX_VERTICES:
        raise GraphError(f"vertex count {n} out of range 0..{MAX_VERTICES}")


def gnp(n: int, p: float, seed: int = 0) -> Graph:
    _check_vertex_count(n)
    if not 0 <= p <= 1:
        raise GraphError(f"edge probability {p} out of range 0..1")
    rng = random.Random(seed)
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph(n, edges)


def path(n: int) -> Graph:
    _check_vertex_count(n)
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise GraphError("a cycle needs at least 3 vertices")
    _check_vertex_count(n)
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def star(n: int) -> Graph:
    """Star on n vertices: center 0, leaves 1..n-1."""
    _check_vertex_count(n)
    return Graph(n, [(0, i) for i in range(1, n)])


def grid(rows: int, cols: int) -> Graph:
    """rows x cols grid, row-major vertex ids."""
    if rows < 0 or cols < 0:
        raise GraphError(f"grid sides {rows}x{cols} must not be negative")
    _check_vertex_count(rows * cols)
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return Graph(rows * cols, edges)


def complete_multipartite(sizes: list[int]) -> Graph:
    offsets = []
    total = 0
    for s in sizes:
        if s <= 0:
            raise GraphError("part sizes must be positive")
        offsets.append(total)
        total += s
    _check_vertex_count(total)
    edges = []
    for i in range(len(sizes)):
        for j in range(i + 1, len(sizes)):
            for a in range(offsets[i], offsets[i] + sizes[i]):
                for b in range(offsets[j], offsets[j] + sizes[j]):
                    edges.append((a, b))
    return Graph(total, edges)


def random_cotree(n: int, seed: int = 0) -> Cotree:
    """Canonical random cotree: recursive random splits with alternating labels."""
    if n < 1:
        raise GraphError("need at least one vertex")
    _check_vertex_count(n)
    rng = random.Random(seed)
    ids = iter(range(n))

    def build(count, label):
        if count == 1:
            return CotreeNode(LEAF, vertex=next(ids))
        arity = 2 if count == 2 else rng.randint(2, min(count, 4))
        cuts = sorted(rng.sample(range(1, count), arity - 1))
        parts = [b - a for a, b in zip([0] + cuts, cuts + [count])]
        child_label = JOIN if label == UNION else UNION
        return CotreeNode(label, children=[build(p, child_label) for p in parts])

    root_label = rng.choice([UNION, JOIN])
    return Cotree(build(n, root_label) if n > 1 else CotreeNode(LEAF, vertex=0), n)


def random_cograph(n: int, seed: int = 0) -> Generated:
    t = random_cotree(n, seed)
    return Generated(cotree_to_graph(t), t)


def random_chordal(n: int, seed: int = 0, clique_bias: float = 0.5) -> Graph:
    """Random chordal graph: each new vertex is attached to a random clique
    grown inside an existing vertex's neighborhood, so the reverse insertion
    order is a perfect elimination ordering."""
    _check_vertex_count(n)
    rng = random.Random(seed)
    adj = [set() for _ in range(n)]
    for v in range(1, n):
        u = rng.randrange(v)
        clique = {u}
        candidates = set(adj[u]) & set(range(v))
        while candidates and rng.random() < clique_bias:
            w = rng.choice(sorted(candidates))
            clique.add(w)
            candidates &= adj[w]
        for w in clique:
            adj[v].add(w)
            adj[w].add(v)
    return Graph(n, [(u, v) for u in range(n) for v in adj[u] if u < v])


def random_dh_sequence(n: int, seed: int = 0) -> PruningSequence:
    """Random pruning sequence: vertex i attaches to a random earlier vertex
    as a pendant, true twin, or false twin; eliminations run in reverse."""
    if n < 1:
        raise GraphError("need at least one vertex")
    _check_vertex_count(n)
    rng = random.Random(seed)
    ops = []
    for v in range(n - 1, 0, -1):
        u = rng.randrange(v)
        kind = rng.choice([PENDANT, TRUE_TWIN, FALSE_TWIN])
        ops.append(PruneOp(kind, v, u))
    return PruningSequence(tuple(ops), n)


def random_dh(n: int, seed: int = 0) -> Generated:
    seq = random_dh_sequence(n, seed)
    return Generated(replay_sequence(seq), seq)


def random_diagram(n: int, seed: int = 0) -> PermutationDiagram:
    _check_vertex_count(n)
    rng = random.Random(seed)
    bot = list(range(n))
    rng.shuffle(bot)
    return PermutationDiagram(n, tuple(range(n)), tuple(bot))


def random_permutation(n: int, seed: int = 0) -> Generated:
    d = random_diagram(n, seed)
    return Generated(diagram_to_graph(d), d)


def generate(descriptor: str, seed: int = 0) -> Generated:
    """Build a graph from a descriptor like ``gnp(12,0.3)`` or ``path(7)``.

    Class generators return their side artifact in ``Generated.artifact``.
    """
    name, args = _parse_descriptor(descriptor)

    def numbers(*types):
        if len(args) != len(types):
            raise GraphError(f"{name} takes {len(types)} argument(s), got {len(args)}")
        try:
            return [convert(a) for convert, a in zip(types, args)]
        except ValueError:
            raise GraphError(f"bad number in descriptor {descriptor!r}") from None

    if name == "gnp":
        n, p = numbers(int, float)
        return Generated(gnp(n, p, seed))
    if name == "path":
        return Generated(path(*numbers(int)))
    if name == "cycle":
        return Generated(cycle(*numbers(int)))
    if name == "star":
        return Generated(star(*numbers(int)))
    if name == "grid":
        return Generated(grid(*numbers(int, int)))
    if name == "complete_multipartite":
        return Generated(complete_multipartite(numbers(*[int] * len(args))))
    if name == "random_cograph":
        return random_cograph(*numbers(int), seed)
    if name == "random_chordal":
        return Generated(random_chordal(*numbers(int), seed))
    if name == "random_dh":
        return random_dh(*numbers(int), seed)
    if name == "random_permutation":
        return random_permutation(*numbers(int), seed)
    raise GraphError(f"unknown generator {name!r}")


def _parse_descriptor(descriptor):
    text = descriptor.strip()
    if "(" not in text:
        raise GraphError(f"descriptor {descriptor!r} is not of the form name(args)")
    name, rest = text.split("(", 1)
    if not rest.endswith(")"):
        raise GraphError(f"descriptor {descriptor!r} is missing ')'")
    body = rest[:-1].strip()
    args = [a.strip() for a in body.split(",")] if body else []
    return name.strip(), args
