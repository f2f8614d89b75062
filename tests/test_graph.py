import itertools
import random
import tracemalloc
from operator import itemgetter

import pytest

import indom
from indom import (
    Graph,
    GraphError,
    FormatError,
    build_graph,
    bits,
    closed_neighborhood,
    mask_from,
    mask_to_list,
    dominates,
    complement,
    induced_subgraph,
    connected_components,
    cartesian_product,
    strong_product,
    edge_clique_graph,
    parse,
    serialize,
)
from indom.cograph import cotree_to_graph, parse_cotree, serialize_cotree
from indom.distance_hereditary import parse_sequence, serialize_sequence
from indom.oracle import gamma
from indom.graph import EDGE_SLICE, undominated
from indom.generators import (
    complete_multipartite,
    cycle,
    gnp,
    grid,
    path,
    random_cograph,
    random_dh,
    random_permutation,
)
from indom.permutation import parse_diagram, serialize_diagram
from indom.treewidth import heuristic_decomposition, parse_decomposition, serialize_decomposition


def c4():
    return build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])


class TestBuild:
    def test_c4(self):
        g = c4()
        assert g.n == 4 and g.m == 4
        assert list(bits(g.row[0])) == [1, 3]

    def test_single_vertex(self):
        g = build_graph(1, [])
        assert g.n == 1 and g.degree(0) == 0

    def test_duplicate_edges_collapse(self):
        g = build_graph(3, [(0, 1), (0, 1)])
        assert g.m == 1

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphError, match=r"\(0, 5\)"):
            build_graph(3, [(0, 5)])

    def test_rejects_self_loop(self):
        with pytest.raises(GraphError, match=r"\(1, 1\)"):
            build_graph(3, [(1, 1)])


class TestDominates:
    def test_closed_neighborhood(self):
        g = c4()
        assert dominates(g, {0}, {0, 1, 3})
        assert not dominates(g, {0}, {2})

    def test_empty_sets(self):
        g = c4()
        assert dominates(g, 0, 0)
        assert dominates(g, g.full_mask, g.full_mask)
        assert not dominates(g, 0, {1})


def _negative_id_calls():
    from indom.exactexp import gamma_of_independent_set_fast
    from indom.graph import is_independent
    from indom.oracle import gamma_of_set

    return {
        "gamma_of_independent_set_fast": lambda g: gamma_of_independent_set_fast(g, {0, -1}),
        "is_independent": lambda g: is_independent(g, [2, -1]),
        "dominates": lambda g: dominates(g, {0}, (v for v in (1, -1))),
        "gamma_of_set": lambda g: gamma_of_set(g, {-1}),
    }


@pytest.mark.parametrize("entry", sorted(_negative_id_calls()))
def test_negative_id_is_a_graph_error_naming_it(entry):
    with pytest.raises(GraphError, match="vertex id -1 is negative"):
        _negative_id_calls()[entry](Graph(3, [(0, 1)]))


def _out_of_range_calls():
    from indom.exactexp import gamma_of_independent_set_fast
    from indom.graph import is_independent
    from indom.oracle import (DominationCertificate, gamma_of_set, gamma_of_set_exhaustive,
                              verify_certificate)
    from indom.planar import bfs_layering

    far = 1 << 9
    return {
        "is_independent": lambda g: is_independent(g, far),
        "dominates-d": lambda g: dominates(g, far, 1),
        "dominates-b": lambda g: dominates(g, 1, far),
        "closed_neighborhood": lambda g: closed_neighborhood(g, far),
        "induced_subgraph": lambda g: induced_subgraph(g, far),
        "connected_components": lambda g: connected_components(g, within=far),
        "bfs_layering": lambda g: bfs_layering(g, far),
        "gamma_of_independent_set_fast": lambda g: gamma_of_independent_set_fast(g, far),
        "verify_certificate": lambda g: verify_certificate(g, DominationCertificate(1, far, 1)),
        "gamma_of_set": lambda g: gamma_of_set(g, far),
        "gamma_of_set_exhaustive": lambda g: gamma_of_set_exhaustive(g, far),
    }


@pytest.mark.parametrize("entry", sorted(_out_of_range_calls()))
def test_set_beyond_the_graph_is_a_graph_error(entry):
    # vertex 9 of a 4-vertex graph: no bare IndexError, and no False from
    # dominates as though the set were merely undominated
    with pytest.raises(GraphError, match=r"set names a vertex outside 0\.\.3"):
        _out_of_range_calls()[entry](path(4))


def test_closed_neighborhood_is_the_set_and_its_neighbors():
    g = path(5)
    assert closed_neighborhood(g, 0) == 0
    assert closed_neighborhood(g, {0}) == 0b00011
    assert closed_neighborhood(g, {0, 3}) == 0b11111
    for seed in range(10):
        g = gnp(8, 0.3, seed)
        for s in range(1 << g.n):
            want = mask_from(v for v in range(g.n) if s >> v & 1 or g.row[v] & s)
            assert closed_neighborhood(g, s) == want


def _undominated_by_definition(items, key, costs):
    """Per key in order of first appearance, the items in input order that
    no item of the key bounds from above with other costs, and that no
    earlier item of the key equals."""
    out = []
    for k in dict.fromkeys(map(key, items)):
        group = [it for it in items if key(it) == k]
        for j, it in enumerate(group):
            c = list(costs(it))
            bounded = any(list(costs(o)) != c and all(x >= y for x, y in zip(costs(o), c))
                          for o in group)
            repeated = any(list(costs(o)) == c for o in group[:j])
            if not bounded and not repeated:
                out.append(it)
    return out


def test_undominated_keeps_the_first_unbounded_item_per_key_in_order():
    items = [("b", 0, (1, 2)), ("a", 1, (0, 0)), ("b", 2, (1, 2)), ("b", 3, (2, 1)),
             ("a", 4, (1, 0)), ("b", 5, (0, 1))]
    # (1, 2) once, of the two; (0, 1) lies under (1, 2) and (0, 0) under (1, 0)
    kept = undominated(items, itemgetter(0), itemgetter(2))
    assert [it[1] for it in kept] == [0, 3, 4]
    assert undominated([], itemgetter(0), itemgetter(2)) == []


@pytest.mark.parametrize("vector", [tuple, list], ids=["tuple", "list"])
def test_undominated_matches_its_definition(vector):
    rng = random.Random(26)
    equal = bounded = 0
    for _ in range(300):
        width = rng.randrange(1, 5)
        items = [(rng.randrange(3), idx, vector(rng.randrange(3) for _ in range(width)))
                 for idx in range(rng.randrange(25))]
        for key in (itemgetter(0), lambda it: it[0] % 2, lambda it: 0):
            kept = undominated(items, key, itemgetter(2))
            assert kept == _undominated_by_definition(items, key, itemgetter(2))
            equal += len({(key(it), tuple(it[2])) for it in items}) < len(items)
            bounded += len(kept) < len({(key(it), tuple(it[2])) for it in items})
    assert equal > 100 and bounded > 100


def test_error_types_are_defined_once_in_graph():
    assert indom.CapacityError is indom.graph.CapacityError is indom.treewidth.CapacityError
    assert indom.CapacityError is indom.exactexp.CapacityError
    assert (indom.ClassMismatchError is indom.graph.ClassMismatchError
            is indom.cograph.ClassMismatchError)
    for error in (indom.CapacityError, indom.ClassMismatchError, indom.FormatError):
        assert issubclass(error, indom.GraphError)


def test_complement_c4_is_2k2():
    h = complement(c4())
    assert h.m == 2
    assert h.has_edge(0, 2) and h.has_edge(1, 3)


def test_complement_involution():
    for seed in range(10):
        g = gnp(9, 0.4, seed)
        assert complement(complement(g)) == g


def test_induced_subgraph_remap():
    p4 = path(4)
    sub, ids = induced_subgraph(p4, {0, 1})
    assert sub.n == 2 and sub.m == 1
    assert ids == [0, 1]


def test_connected_components_order():
    g = build_graph(3, [(1, 2)])
    comps = connected_components(g)
    assert [mask_to_list(c) for c in comps] == [[0], [1, 2]]


class TestCartesianProduct:
    def test_k2_square_is_c4(self):
        k2 = build_graph(2, [(0, 1)])
        prod = cartesian_product(k2, k2)
        assert prod.n == 4 and prod.m == 4
        assert all(prod.degree(v) == 2 for v in range(4))

    def test_k1_identity(self):
        g = gnp(6, 0.5, 1)
        assert cartesian_product(Graph(1), g) == g

    def test_p2_p3_grid_edge_count(self):
        # expected edges recomputed from the adjacency rule directly
        g, h = path(2), path(3)
        prod = cartesian_product(g, h)
        expected = set()
        for (a1, b1), (a2, b2) in itertools.combinations(
            itertools.product(range(2), range(3)), 2
        ):
            if (a1 == a2 and h.has_edge(b1, b2)) or (b1 == b2 and g.has_edge(a1, a2)):
                expected.add((a1 * 3 + b1, a2 * 3 + b2))
        assert set(prod.edges()) == expected
        assert prod.m == 7

    def test_size_invariants(self):
        for seed in range(8):
            g = gnp(5, 0.5, seed)
            h = gnp(4, 0.5, seed + 100)
            prod = cartesian_product(g, h)
            assert prod.n == g.n * h.n
            assert prod.m == g.n * h.m + g.m * h.n


class TestStrongProduct:
    def test_k2_strong_square_is_k4(self):
        k2 = build_graph(2, [(0, 1)])
        prod = strong_product(k2, k2)
        assert prod.n == 4 and prod.m == 6

    def test_k1_identity(self):
        g = gnp(6, 0.5, 2)
        assert strong_product(Graph(1), g) == g

    def test_edge_count_no_isolated(self):
        for seed in range(8):
            g = gnp(5, 0.6, seed)
            h = gnp(4, 0.6, seed + 50)
            if any(g.degree(v) == 0 for v in range(g.n)):
                continue
            if any(h.degree(v) == 0 for v in range(h.n)):
                continue
            prod = strong_product(g, h)
            assert prod.m == g.m * h.n + g.n * h.m + 2 * g.m * h.m
            assert set(cartesian_product(g, h).edges()) <= set(prod.edges())

    def test_c4_strong_c4_contains_induced_c5(self):
        prod = strong_product(cycle(4), cycle(4))
        found = False
        for combo in itertools.combinations(range(prod.n), 5):
            sub, _ = induced_subgraph(prod, mask_from(combo))
            if sub.m == 5 and all(sub.degree(v) == 2 for v in range(5)):
                comps = connected_components(sub)
                if len(comps) == 1:
                    found = True
                    break
        assert found


class TestEdgeCliqueGraph:
    def test_triangle(self):
        k3 = build_graph(3, [(0, 1), (0, 2), (1, 2)])
        ke, edge_list = edge_clique_graph(k3)
        assert ke.n == 3 and ke.m == 3
        assert edge_list == [(0, 1), (0, 2), (1, 2)]

    def test_p3_no_triangle(self):
        ke, _ = edge_clique_graph(path(3))
        assert ke.n == 2 and ke.m == 0

    def test_octahedron_edge_domination_three(self):
        ke, _ = edge_clique_graph(complete_multipartite([2, 2, 2]))
        assert ke.n == 12
        assert gamma(ke)[0] == 3


_cographs = [random_cograph(9, seed) for seed in range(3)]
_dh = [random_dh(9, seed) for seed in range(3)]
_permutations = [random_permutation(9, seed) for seed in range(3)]
_graphs = ([gnp(8, 0.4, seed) for seed in range(5)] + [grid(3, 4), grid(2, 5)]
           + [made.graph for made in _cographs + _dh + _permutations])

# format -> (parser, serializer, generated objects of every family); two
# cotrees are compared through their graphs, as CotreeNode has no __eq__
FORMATS = {
    "edge-list": (lambda text: parse(text, "edge-list"), lambda g: serialize(g, "edge-list"),
                  _graphs),
    "dimacs": (lambda text: parse(text, "dimacs"), lambda g: serialize(g, "dimacs"), _graphs),
    "cotree": (parse_cotree, serialize_cotree, [made.artifact for made in _cographs]),
    "sequence": (parse_sequence, serialize_sequence, [made.artifact for made in _dh]),
    "diagram": (parse_diagram, serialize_diagram, [made.artifact for made in _permutations]),
    "decomposition": (parse_decomposition, serialize_decomposition,
                      [heuristic_decomposition(g) for g in _graphs]),
}


def _comparable(fmt, x):
    return cotree_to_graph(x) if fmt == "cotree" else x


class TestFormats:
    def test_dimacs_k2(self):
        g = parse("p 2 1\ne 0 1\n", "dimacs")
        assert g.n == 2 and g.m == 1

    def test_round_trip(self):
        for seed in range(5):
            g = gnp(8, 0.4, seed)
            for fmt in ("edge-list", "dimacs"):
                assert serialize(parse(serialize(g, fmt), fmt), fmt) == serialize(g, fmt)
        for fmt, (parser, serializer, objects) in FORMATS.items():
            for x in objects:
                assert _comparable(fmt, parser(serializer(x))) == _comparable(fmt, x), fmt

    @pytest.mark.parametrize("fmt", sorted(FORMATS))
    def test_one_line_rule_in_every_format(self, fmt):
        parser, serializer, objects = FORMATS[fmt]
        lines = serializer(objects[0]).splitlines()
        expected = _comparable(fmt, parser("\n".join(lines)))
        # a non-integer token is an error on its own line
        for k, line in enumerate(lines, start=1):
            tokens = line.split()
            for i, token in enumerate(tokens):
                if token.lstrip("-").isdigit():
                    bad = lines[:k - 1] + [" ".join(tokens[:i] + ["x"] + tokens[i + 1:])]
                    with pytest.raises(FormatError) as err:
                        parser("\n".join(bad + lines[k:]))
                    assert err.value.line == k, (line, i)
        # '#' starts a comment anywhere on a line
        commented = ["  # note"] + [f"{line}  # comment" for line in lines] + ["\t# end"]
        assert _comparable(fmt, parser("\n".join(commented))) == expected
        # DIMACS and PACE files also skip 'c' lines
        if fmt in ("dimacs", "decomposition"):
            with_c = [f"c {line}" for line in lines] + lines + ["c end"]
            assert _comparable(fmt, parser("\n".join(with_c))) == expected

    def test_bad_edge_reports_line(self):
        with pytest.raises(FormatError) as err:
            parse("p 2 1\ne 0 5\n", "dimacs")
        assert err.value.line == 2

    def test_dimacs_header_digit_that_int_rejects(self):
        # str.isdigit accepts "²", which int() does not
        with pytest.raises(FormatError) as err:
            parse("p \u00b2 3\n", "dimacs")
        assert err.value.line == 1

    def test_edge_list_comments(self):
        g = parse("# a comment\n3 1\n0 2\n", "edge-list")
        assert g.has_edge(0, 2)

    @pytest.mark.parametrize("fmt,header", [
        ("edge-list", "{n} 0"), ("dimacs", "p {n} 0"), ("dimacs", "p edge {n} 0"),
    ])
    @pytest.mark.parametrize("n", [-1, 4_000_001])
    def test_header_vertex_count_out_of_range(self, fmt, header, n):
        with pytest.raises(FormatError, match="vertex count") as err:
            parse(header.format(n=n) + "\n", fmt)
        assert err.value.line == 1

    @pytest.mark.parametrize("header", ["p 3 2 7", "p 3 x 2", "p edge col 3 2", "p edge 3"])
    def test_dimacs_header_is_n_m_after_an_optional_name(self, header):
        assert parse("p edge 3 1\ne 0 1\n", "dimacs") == parse("p 3 1\ne 0 1\n", "dimacs")
        with pytest.raises(FormatError) as err:
            parse(header + "\ne 0 1\ne 1 2\n", "dimacs")
        assert err.value.line == 1

    @pytest.mark.parametrize("text,fmt,line", [
        ("3 99\n0 1\n", "edge-list", 1),
        ("p 3 99\ne 0 1\n", "dimacs", 1),
        ("c x\np 3 0\ne 0 1\n", "dimacs", 2),
        ("p edge 3 2\ne 0 1\n", "dimacs", 1),
    ])
    def test_header_edge_count_must_match(self, text, fmt, line):
        with pytest.raises(FormatError, match="header declared") as err:
            parse(text, fmt)
        assert err.value.line == line


def _induced_edges(g, s):
    """Edges of g inside the mask s, renumbered in increasing order of s."""
    index = {v: i for i, v in enumerate(mask_to_list(s))}
    return [(index[u], index[v]) for u, v in g.edges() if s >> u & 1 and s >> v & 1]


def test_rows_agree_with_edge_lists():
    rng = random.Random(6)
    graphs = [gnp(n, rng.choice((0.1, 0.3, 0.6)), rng.randrange(1000)) for n in range(41)]
    graphs += [grid(r, c) for r in range(1, 7) for c in range(r, 7)]
    graphs += [random_cograph(n, n).graph for n in range(1, 41, 3)]
    graphs += [random_dh(n, n).graph for n in range(1, 41, 3)]
    for g in graphs:
        for fmt in ("edge-list", "dimacs"):
            assert parse(serialize(g, fmt), fmt) == g
        assert complement(complement(g)) == g
        edges = list(g.edges())
        assert edges == sorted({(min(u, v), max(u, v)) for u in range(g.n) for v in bits(g.row[u])})
        assert len(edges) == g.m and all(g.degree(v) == g.row[v].bit_count() for v in range(g.n))
        for _ in range(3):
            s = rng.getrandbits(g.n)
            sub, ids = induced_subgraph(g, s)
            assert ids == mask_to_list(s)
            assert sub == Graph(len(ids), _induced_edges(g, s))
    # graphs on both sides of parse's matrix rule (n * n at most the text's
    # length), with some edges written as "v u" and some twice
    sides = set()
    for n, p in [(60, 0.02), (60, 0.9), (120, 0.1), (150, 0.5), (200, 0.05), (200, 0.3),
                 (300, 0.02), (300, 0.6)]:
        g = gnp(n, p, rng.randrange(1000))
        lines = [f"{v} {u}" if rng.random() < 0.3 else f"{u} {v}" for u, v in g.edges()]
        lines += rng.sample(lines, len(lines) // 10)
        rng.shuffle(lines)
        for fmt, header, prefix in (("edge-list", "", ""), ("dimacs", "p ", "e ")):
            text = "\n".join([f"{header}{n} {len(lines)}"] + [prefix + x for x in lines])
            sides.add(n * n <= len(text))
            assert parse(text, fmt) == g
    assert sides == {False, True}


def test_a_header_cannot_size_the_matrix():
    # the text is 17 characters, so no n * n matrix is made for n = 3000,
    # whatever m the header declares
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="header declared 2000000 edges, found 1"):
            parse("3000 2000000\n0 1\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3000 * 3000 // 2


# edge lines with 3-digit ids all have one width, so each slice, which ends
# with the line holding its (EDGE_SLICE + 1)-th character, holds the same
# number of them; there are more than two slices of them
_N = 300
_MANY = list(itertools.combinations(range(100, _N), 2))


def _per_slice(fmt):
    """Edge lines per slice: "uuu vvv" and "e uuu vvv" lines are 8 and 10
    characters wide with their line break."""
    width = 10 if fmt == "dimacs" else 8
    return -(-(EDGE_SLICE + 1) // width)


def _many_edge_lines(fmt, lead=()):
    """Header (after the lead lines) and one line per edge of _MANY."""
    if fmt == "dimacs":
        return [*lead, f"p {_N} {len(_MANY)}"] + [f"e {u} {v}" for u, v in _MANY]
    return [*lead, f"{_N} {len(_MANY)}"] + [f"{u} {v}" for u, v in _MANY]


class TestSlices:
    # line number slices * _per_slice + offset: the first, a middle and the
    # last line of the second slice, and a line of the third, with the header
    # on line 1
    @pytest.mark.parametrize("slices,offset", [(1, 2), (1, 50), (2, 1), (2, 300)])
    @pytest.mark.parametrize("fmt,bad,message", [
        ("edge-list", "0 x", "expected integers, got '0 x'"),
        ("edge-list", "105 105", "bad edge (105, 105) for n=300"),
        ("edge-list", "100 300", "bad edge (100, 300) for n=300"),
        ("edge-list", "-1 2", "bad edge (-1, 2) for n=300"),
        ("edge-list", "0 1 2", "expected edge 'u v'"),
        ("edge-list", "7", "expected edge 'u v'"),
        ("dimacs", "e 0 x", "expected integers, got '0 x'"),
        ("dimacs", "e 105 105", "bad edge (105, 105) for n=300"),
        ("dimacs", "e 300 100", "bad edge (300, 100) for n=300"),
        ("dimacs", "e 0 1 2", "expected edge 'e u v'"),
        ("dimacs", "x 0 1", "unknown directive 'x'"),
        ("dimacs", "p 300 5", "duplicate 'p' header"),
        # as wide as the line they replace, so no padding makes them stand out
        ("dimacs", "e123 45 6", "unknown directive 'e123'"),
        ("dimacs", "1e1 200 3", "unknown directive '1e1'"),
        ("dimacs", "1e400 2 3", "unknown directive '1e400'"),
    ])
    def test_error_past_the_first_slice_names_its_line(self, fmt, bad, message, slices, offset):
        lineno = slices * _per_slice(fmt) + offset
        lines = _many_edge_lines(fmt)
        # padded to the width of the line it replaces, so no boundary moves;
        # the bad edges of plain syntax need no padding, so their slice is
        # read as plain lines until the bad edge is met
        lines[lineno - 1] = bad.ljust(len(lines[lineno - 1]))
        with pytest.raises(FormatError) as err:
            parse("\n".join(lines), fmt)
        assert str(err.value) == f"line {lineno}: {message}"
        assert err.value.line == lineno

    @pytest.mark.parametrize("fmt", ["edge-list", "dimacs"])
    def test_lines_around_slice_boundaries_parse(self, fmt):
        expected = Graph(_N, _MANY)
        skipped = ["", "   ", "# note", "\t# x"] + (["c note"] if fmt == "dimacs" else [])
        k = _per_slice(fmt)
        # comments before the header move every slice boundary
        lines = _many_edge_lines(fmt, lead=skipped)
        # other whitespace and a trailing comment on edge lines near a boundary
        for at in (k - 2, k + 4, 2 * k + 4):
            lines[at] = " " + lines[at].replace(" ", "\t ") + "  # edge"
        for at in (2 * k + 3, k + 1, k, k - 1):
            lines[at:at] = skipped
        for newline in ("\n", "\r\n"):
            assert parse(newline.join(lines) + newline, fmt) == expected

    @pytest.mark.parametrize("fmt", ["edge-list", "dimacs"])
    def test_round_trip_over_several_slices(self, fmt):
        g = gnp(250, 0.7, 3)
        text = serialize(g, fmt)
        assert len(text) > 2 * EDGE_SLICE
        assert parse(text, fmt) == g
