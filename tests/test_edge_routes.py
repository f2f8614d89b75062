"""Edge lists to rows and back: Graph(n, edges), Graph.edges, serialize,
cotree_to_graph and replay_sequence against the per-edge code they replace,
kept here as the reference, and the errors each keeps."""

import random

import pytest

from indom import graph as graph_module
from indom.cograph import JOIN, LEAF, UNION, Cotree, CotreeNode, cotree_to_graph
from indom.distance_hereditary import (PENDANT, TRUE_TWIN, FALSE_TWIN, PruneOp, PruningSequence,
                                       replay_sequence)
from indom.generators import cycle, gnp, random_cograph, random_cotree, random_dh
from indom.graph import DIMACS, EDGE_LIST, Graph, GraphError, bits, serialize


# --- the per-edge reference ---------------------------------------------------

def _reference_rows(n, edges):
    """Rows by OR-ing in one edge at a time; the first bad edge raises."""
    rows = [0] * n
    for u, v in edges:
        if u == v or not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"self-loop ({u}, {v})" if u == v
                             else f"edge ({u}, {v}) out of range for n={n}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return tuple(rows)


def _reference_edges(g):
    for u, r in enumerate(g.row):
        for v in bits(r >> u + 1 << u + 1):
            yield (u, v)


def _reference_serialize(g, fmt):
    edge_list = list(_reference_edges(g))
    header, start = ("", "") if fmt == EDGE_LIST else ("p ", "e ")
    lines = [f"{header}{g.n} {len(edge_list)}"]
    lines += [f"{start}{u} {v}" for u, v in edge_list]
    return "\n".join(lines) + "\n"


def _reference_cotree_rows(t):
    """A JOIN's edges listed pair by pair, as lists of vertices merge."""
    edges = []
    leaves = {}
    for node in t.postorder():
        if node.label == LEAF:
            leaves[id(node)] = [node.vertex]
            continue
        merged = []
        for c in node.children:
            part = leaves.pop(id(c))
            if node.label == JOIN:
                edges += [(u, v) for u in merged for v in part]
            merged += part
        leaves[id(node)] = merged
    if sorted(leaves[id(t.root)]) != list(range(t.n)):
        raise GraphError("cotree leaves are not a bijection onto 0..n-1")
    return _reference_rows(t.n, edges)


def _reference_replay_rows(seq):
    """Neighbour sets grown backwards from the final vertex."""
    n = seq.n
    adj = [set() for _ in range(n)]
    present = {seq.final_vertex}
    for op in reversed(seq.ops):
        if op.u not in present or op.v in present or not (0 <= op.v < n):
            raise GraphError(f"inconsistent operation {op}")
        nbrs = {PENDANT: {op.u}, TRUE_TWIN: adj[op.u] | {op.u}, FALSE_TWIN: set(adj[op.u])}[op.kind]
        for w in nbrs:
            adj[w].add(op.v)
        adj[op.v] = nbrs
        present.add(op.v)
    return _reference_rows(n, [(u, v) for u in range(n) for v in adj[u] if u < v])


# --- graphs -------------------------------------------------------------------

def _matching(n):
    return Graph(n, [(u, u + n // 2) for u in range(n // 2)])


def _graphs():
    rng = random.Random(31)
    out = {}
    for n in (0, 1, 2, 17, 300):
        for p in (0.0, 0.05, 0.3, 0.8, 1.0):
            out[f"gnp({n},{p})"] = gnp(n, p, rng.randrange(1000))
    for n in (40, 300, 600):
        out[f"cograph({n})"] = random_cograph(n, rng.randrange(1000)).graph
        out[f"dh({n})"] = random_dh(n, rng.randrange(1000)).graph
    for n in (3, 1000, 5000):
        out[f"cycle({n})"] = cycle(n)
    for n in (2, 18, 2000):
        out[f"matching({n})"] = _matching(n)
    return out


GRAPHS = _graphs()


@pytest.fixture
def matrices(monkeypatch):
    """How many graphs were scattered through an _EdgeMatrix."""
    made = []

    class Counted(graph_module._EdgeMatrix):
        def __init__(self, n):
            super().__init__(n)
            made.append(n)

    monkeypatch.setattr(graph_module, "_EdgeMatrix", Counted)
    return made


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_edges_and_serialize_match_the_per_edge_reference(name):
    g = GRAPHS[name]
    assert list(g.edges()) == list(_reference_edges(g))
    for fmt in (EDGE_LIST, DIMACS):
        assert serialize(g, fmt) == _reference_serialize(g, fmt)


def test_both_row_walks_are_taken():
    # the graphs above hold rows that compress walks and rows the bit loop
    # walks; a row with no neighbour above its vertex takes the bit loop
    dense = sparse = 0
    for g in GRAPHS.values():
        for u, r in enumerate(g.row):
            if r >> u + 1:
                if graph_module._selectors(r >> u + 1) is None:
                    sparse += 1
                else:
                    dense += 1
    assert dense > 1000 and sparse > 1000


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_graph_from_pairs_matches_the_reference(name, matrices):
    g = GRAPHS[name]
    rng = random.Random(name)
    edges = list(g.edges())
    shuffled = rng.sample(edges, len(edges))
    flipped = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in shuffled]
    doubled = flipped + rng.sample(edges, len(edges) // 3)
    rng.shuffle(doubled)
    for pairs in (edges, shuffled, flipped, doubled, [(v, u) for u, v in reversed(edges)],
                  tuple(doubled), dict.fromkeys(doubled, 0), iter(doubled)):
        assert Graph(g.n, pairs).row == _reference_rows(g.n, doubled) == g.row


def test_dense_and_sparse_pair_lists_both_occur(matrices):
    sizes = {}
    for name, g in GRAPHS.items():
        before = len(matrices)
        Graph(g.n, list(g.edges()))
        sizes[name] = len(matrices) - before
    assert sizes["cograph(600)"] == sizes["gnp(300,0.8)"] == 1
    assert sizes["cycle(5000)"] == sizes["matching(2000)"] == sizes["gnp(17,0.3)"] == 0


# --- errors -------------------------------------------------------------------

def _outcome(call, *args):
    try:
        return "rows", call(*args)
    except (GraphError, TypeError, ValueError) as exc:
        return type(exc), str(exc)


_K12 = [(u, v) for u in range(12) for v in range(u + 1, 12)]  # dense: 66 pairs on 12 vertices


@pytest.mark.parametrize("bad", [(-1, 3), (3, -1), (-12, 0), (0, -12), (-13, 2), (5, 5), (0, 12),
                                 (12, 0), (12, 12), (10 ** 30, 1), (1, -10 ** 30), (1, 2, 3),
                                 (1,), 7, (1.5, 2), (0, "1")])
@pytest.mark.parametrize("container", [list, tuple, lambda e: dict.fromkeys(e, 1), iter],
                         ids=["list", "tuple", "dict", "generator"])
def test_a_bad_pair_raises_as_the_reference_does(bad, container, matrices):
    for at in (0, 30, len(_K12)):
        edges = _K12[:at] + [bad] + _K12[at:]
        expected = _outcome(_reference_rows, 12, edges)
        assert expected[0] != "rows"
        assert _outcome(lambda: Graph(12, container(edges)).row) == expected
    # the first of two bad pairs is the one named
    edges = _K12[:20] + [(4, 4)] + _K12[20:40] + [bad] + _K12[40:]
    with pytest.raises(GraphError, match=r"self-loop \(4, 4\)"):
        Graph(12, container(edges))
    # the dense route was tried on the sized containers, not on the generator
    assert bool(matrices) == (container is not iter)


def test_a_good_dense_list_takes_the_matrix(matrices):
    assert Graph(12, _K12).m == 66
    assert matrices == [12]


def _cotree(label, vertices, n):
    return Cotree(CotreeNode(label, [CotreeNode(LEAF, vertex=v) for v in vertices]), n)


@pytest.mark.parametrize("vertices", [(0, -1, 2), (0, 1, 3), (0, 1, 1), (-3, 1, 2), (0, 1)])
@pytest.mark.parametrize("label", [JOIN, UNION])
def test_cotree_leaves_are_checked_before_any_row(vertices, label):
    with pytest.raises(GraphError, match="cotree leaves are not a bijection onto 0..n-1"):
        cotree_to_graph(_cotree(label, vertices, 3))


def test_cotree_rows_match_the_per_edge_reference():
    rng = random.Random(7)
    for n in [1, 2, 3, 17, 300] + [rng.randrange(1, 80) for _ in range(40)]:
        t = random_cotree(n, rng.randrange(1000))
        assert cotree_to_graph(t).row == _reference_cotree_rows(t)
    empty = Cotree(CotreeNode(UNION), 0)
    assert cotree_to_graph(empty) == Graph(0)


def test_replay_rows_match_the_set_reference():
    rng = random.Random(8)
    for n in [1, 2, 3, 17, 300] + [rng.randrange(1, 80) for _ in range(40)]:
        seq = random_dh(n, rng.randrange(1000)).artifact
        assert replay_sequence(seq).row == _reference_replay_rows(seq)


@pytest.mark.parametrize("ops", [
    [PruneOp(PENDANT, 1, -1)],
    [PruneOp(TRUE_TWIN, 1, -2)],
    [PruneOp(PENDANT, 1, 2)],
    [PruneOp(PENDANT, 2, -1), PruneOp(FALSE_TWIN, 1, 0)],
    [PruneOp(PENDANT, 1, 0), PruneOp(PENDANT, 2, 1)],
], ids=["u-1", "u-2", "u-n", "later-u-1", "u-not-yet-present"])
def test_replay_with_a_bad_id_is_an_inconsistent_operation(ops):
    seq = PruningSequence(tuple(ops), len(ops) + 1)
    expected = _outcome(_reference_replay_rows, seq)
    assert expected[0] is GraphError and expected[1].startswith("inconsistent operation")
    assert _outcome(lambda: replay_sequence(seq).row) == expected
