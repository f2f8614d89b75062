import pytest

from indom import (
    Graph,
    build_graph,
    mask_to_list,
    verify_certificate,
)
from indom.cograph import (
    ClassMismatchError,
    Cotree,
    CotreeNode,
    P4Witness,
    LEAF,
    UNION,
    JOIN,
    build_cotree,
    is_cograph,
    cotree_to_graph,
    gamma_cograph,
    gamma_i_cograph,
    parse_cotree,
    serialize_cotree,
    validate_cotree,
)
from indom.oracle import DominationCertificate, gamma
from indom.generators import cycle, gnp, path, random_cograph, random_cotree, random_dh
from indom.graph import FormatError, GraphError, connected_components
from indom.permutation import cotree_to_diagram, diagram_to_graph


def k4():
    return Graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])


class TestBuildCotree:
    def test_c4_shape(self):
        t = build_cotree(cycle(4))
        assert t.root.label == JOIN
        assert len(t.root.children) == 2
        parts = []
        for child in t.root.children:
            assert child.label == UNION
            assert len(child.children) == 2
            parts.append(sorted(leaf.vertex for leaf in child.children))
        assert sorted(parts) == [[0, 2], [1, 3]]

    def test_empty_graph_is_a_union_of_nothing(self):
        t = build_cotree(Graph(0))
        assert (t.n, t.root.label, t.root.children) == (0, UNION, [])
        assert cotree_to_graph(t) == Graph(0)
        assert gamma_cograph(t) == 0
        assert gamma_i_cograph(Graph(0), t)[0] == 0
        # recognized here, without a cotree
        assert gamma_i_cograph(Graph(0)) == (0, DominationCertificate(0, 0, 0))

    def test_deep_threshold_graph(self):
        # vertex i is adjacent to every earlier vertex when i is odd: unions
        # and joins alternate down a cotree about n levels deep
        n = 3000
        g = Graph(n, [(j, i) for i in range(1, n, 2) for j in range(i)])
        t = build_cotree(g)
        assert isinstance(t, Cotree)
        validate_cotree(t)
        assert parse_cotree(serialize_cotree(t)).n == n
        assert cotree_to_graph(t) == g
        assert gamma_cograph(t) == 1  # the last vertex is universal
        assert gamma_i_cograph(g, t)[0] == 1
        assert diagram_to_graph(cotree_to_diagram(t)) == g

    def test_p4_witness(self):
        result = build_cotree(path(4))
        assert isinstance(result, P4Witness)
        assert result.vertices == (0, 1, 2, 3)

    def test_random_cographs_reconstruct(self):
        for seed in range(30):
            n = 5 + seed * 6
            made = random_cograph(min(n, 200), seed)
            t = build_cotree(made.graph)
            assert isinstance(t, Cotree)
            validate_cotree(t)
            assert cotree_to_graph(t) == made.graph

    def test_witness_always_induces_p4(self):
        graphs = [gnp(9, 0.45, seed) for seed in range(60)]
        graphs += [gnp(10 + seed % 31, 0.05 + seed % 9 * 0.1, seed) for seed in range(150)]
        big = random_dh(300, 1).graph
        assert not is_cograph(big)
        found = 0
        for g in graphs + [big]:
            result = build_cotree(g)
            if isinstance(result, Cotree):
                continue
            found += 1
            a, b, c, d = result.vertices
            assert g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(c, d)
            assert not g.has_edge(a, c) and not g.has_edge(a, d) and not g.has_edge(b, d)
        assert found > 200


class TestGammaCograph:
    def test_k4(self):
        assert gamma_cograph(build_cotree(k4())) == 1

    def test_c4(self):
        assert gamma_cograph(build_cotree(cycle(4))) == 2

    def test_union_adds(self):
        g = build_graph(4, [(0, 1), (2, 3)])
        assert gamma_cograph(build_cotree(g)) == 2

    def test_matches_oracle(self):
        for seed in range(60):
            t = random_cotree(4 + seed % 11, seed)
            g = cotree_to_graph(t)
            assert gamma_cograph(build_cotree(g)) == gamma(g)[0]


class TestGammaICograph:
    def test_connected_is_one(self):
        assert gamma_i_cograph(k4())[0] == 1
        assert gamma_i_cograph(cycle(4))[0] == 1

    def test_component_count(self):
        g = build_graph(5, [(0, 1), (2, 3)])
        value, cert = gamma_i_cograph(g)
        assert value == 3
        assert verify_certificate(g, cert)

    def test_single_vertex(self):
        assert gamma_i_cograph(Graph(1))[0] == 1

    def test_rejects_non_cograph(self):
        with pytest.raises(ClassMismatchError) as err:
            gamma_i_cograph(path(4))
        assert isinstance(err.value.witness, P4Witness)

    def test_equals_component_count_always(self):
        for seed in range(40):
            made = random_cograph(4 + seed % 11, seed)
            value, cert = gamma_i_cograph(made.graph)
            assert value == len(connected_components(made.graph))
            assert verify_certificate(made.graph, cert)

    def test_certificates_deterministic(self):
        made = random_cograph(12, 5)
        first = gamma_i_cograph(made.graph)
        second = gamma_i_cograph(made.graph)
        assert first == second

    def test_certificate_takes_lex_least_maximal_set(self):
        from indom.graph import bits

        for seed in range(20):
            made = random_cograph(10, seed)
            g = made.graph
            _, cert = gamma_i_cograph(g)
            for comp in connected_components(g):
                greedy = 0
                for v in bits(comp):
                    if g.row[v] & greedy == 0:
                        greedy |= 1 << v
                assert cert.independent_set & comp == greedy


class TestCotreeFormat:
    def test_round_trip(self):
        for seed in range(10):
            t = random_cotree(9, seed)
            text = serialize_cotree(t)
            back = parse_cotree(text)
            assert cotree_to_graph(back) == cotree_to_graph(t)

    def test_empty_graph_round_trip(self):
        t = build_cotree(Graph(0))
        text = serialize_cotree(t)
        assert text == "node 0 - UNION\n"
        back = parse_cotree(text)
        assert (back.n, back.root.label, back.root.children) == (0, UNION, [])
        assert cotree_to_graph(back) == Graph(0)

    @pytest.mark.parametrize("text", [
        "node 0 - JOIN\n",
        "node 0 - UNION\nnode 1 0 JOIN\n",
        "node 0 - UNION\nnode 1 0 LEAF 0\n",
    ], ids=["join-root", "childless-join", "one-child-root"])
    def test_only_the_empty_union_root_may_lack_children(self, text):
        with pytest.raises(GraphError, match="fewer than 2 children"):
            parse_cotree(text)

    @pytest.mark.parametrize("text, message", [
        ("node 0 - UNION\nnode 1 0 UNION\nnode 2 1 LEAF 0\nnode 3 1 LEAF 1\n"
         "node 4 0 LEAF 2\n", "do not alternate"),
        ("node 0 - JOIN\nnode 1 0 LEAF 0\nnode 2 0 LEAF 2\n", "not a bijection"),
        ("node 0 - JOIN\nnode 1 0 LEAF 0\nnode 2 1 LEAF 1\nnode 3 0 LEAF 2\n",
         "line 3: parent 1 is a LEAF"),
    ], ids=["union-under-union", "leaves-0-and-2", "leaf-under-leaf"])
    def test_malformed_trees_are_refused(self, text, message):
        with pytest.raises(GraphError, match=message):
            parse_cotree(text)

    def test_a_leaf_built_with_children_is_refused(self):
        # the text of this tree is refused at its child's line; built in
        # memory, its leaf's children are not walked, so vertex 1 is missing
        leaf = CotreeNode(LEAF, [CotreeNode(LEAF, vertex=1)], vertex=0)
        t = Cotree(CotreeNode(JOIN, [leaf, CotreeNode(LEAF, vertex=2)]), 3)
        with pytest.raises(GraphError, match="not a bijection"):
            validate_cotree(t)

    def test_component_count_from_tree(self):
        for seed in range(20):
            t = random_cotree(10, seed)
            g = cotree_to_graph(t)
            count = len(t.root.children) if t.root.label == UNION else 1
            assert count == len(connected_components(g))

    @pytest.mark.parametrize("line", [
        "node x 0 LEAF 1", "node 2 y LEAF 1", "node 2 0 LEAF z",
    ], ids=["node-id", "parent-id", "vertex"])
    def test_non_integer_token_reports_its_line(self, line):
        text = "node 0 - UNION\nnode 1 0 LEAF 0\n" + line + "\n"
        with pytest.raises(FormatError) as err:
            parse_cotree(text)
        assert err.value.line == 3

    @pytest.mark.parametrize("text", [
        "node 0 - UNION\nnode 1 0 LEAF 0\nnode 2 0 LEAF 1\nnode 2 0 LEAF 2\n",
        # children of id 3 would attach to the second JOIN, not the first
        "node 0 - UNION\nnode 3 0 JOIN\nnode 1 3 LEAF 0\nnode 3 0 JOIN\n"
        "node 2 3 LEAF 1\nnode 4 3 LEAF 2\nnode 5 3 LEAF 3\n",
    ], ids=["leaf", "join"])
    def test_duplicate_node_id_reports_its_line(self, text):
        with pytest.raises(FormatError, match="duplicate node id") as err:
            parse_cotree(text)
        assert err.value.line == 4

    @pytest.mark.parametrize("line", [
        "node 2 0 UNION junk 7", "node 2 0 JOIN 3", "node 2 0 LEAF 1 2",
    ], ids=["union", "join", "leaf"])
    def test_extra_tokens_report_their_line(self, line):
        text = "node 0 - UNION\nnode 1 0 LEAF 0\n" + line + "\n"
        with pytest.raises(FormatError) as err:
            parse_cotree(text)
        assert err.value.line == 3
