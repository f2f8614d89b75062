import gc
import random
import sys
import time
from itertools import combinations

import pytest

from indom import (
    FormatError,
    Graph,
    GraphError,
    build_graph,
    bits,
    is_independent,
    mask_from,
    verify_certificate,
)
from indom import treewidth
from indom.treewidth import (
    CapacityError,
    DPStats,
    NiceDecomposition,
    TreeDecomposition,
    Violation,
    choose_decomposition,
    gamma_i_treewidth,
    heuristic_decomposition,
    make_nice,
    parse_decomposition,
    path_decomposition,
    planned_cost,
    serialize_decomposition,
    validate_decomposition,
    _Item,
    _dp_nodes,
)
from indom.dispatch import gamma_i
from indom.graph import connected_components
from indom.oracle import gamma_i_oracle, gamma_of_set
from indom.generators import cycle, gnp, grid, path, random_chordal, star
from indom.planar import ptas_gamma_i
from tests.conftest import cover_of, random_outerplanar, subsets_of


class TestValidate:
    def test_path_bags_ok(self):
        td = TreeDecomposition(4, [0b0011, 0b0110, 0b1100], [(0, 1), (1, 2)])
        assert validate_decomposition(path(4), td) is None
        assert td.width == 1

    def test_uncovered_edge(self):
        td = TreeDecomposition(4, [0b0011, 0b1100], [(0, 1)])
        bad = validate_decomposition(path(4), td)
        assert bad is not None and bad.kind == "edge-cover"
        assert "(1, 2)" in bad.detail

    def test_disconnected_occurrences(self):
        td = TreeDecomposition(4, [0b0011, 0b1100, 0b0110], [(0, 1), (1, 2)])
        bad = validate_decomposition(path(4), td)
        assert bad is not None and bad.kind == "connectivity"
        assert "vertex 1" in bad.detail

    def test_same_verdict_as_scans_on_mutated_decompositions(self):
        rng = random.Random(12)
        verdicts = set()
        for case in range(400):
            g = gnp(2 + case % 14, 0.1 + (case % 5) * 0.1, case)
            td = heuristic_decomposition(g)
            if case % 4:
                td = _mutated(td, rng)
            found = validate_decomposition(g, td)
            assert found == _validate_by_scans(g, td), case
            verdicts.add(found.kind if found else None)
        assert verdicts == {None, "vertex-range", "vertex-cover", "edge-cover", "tree",
                            "connectivity"}

    def test_vertex_beyond_graph(self):
        td = TreeDecomposition(4, [0b0011, 0b0110, 0b11100], [(0, 1), (1, 2)])
        bad = validate_decomposition(path(4), td)
        assert bad is not None and bad.kind == "vertex-range"
        assert "vertex 4" in bad.detail


def _validate_by_scans(g, td):
    """validate_decomposition as it was first written: every bag scanned for
    every edge, one walk over the bag tree for every vertex."""
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


def _mutated(td, rng):
    """A copy of td with one to three random edits of its bags or tree edges."""
    bags, edges = list(td.bags), list(td.edges)
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(6)
        if kind == 0 and bags:  # drop a vertex from a bag
            i = rng.randrange(len(bags))
            if bags[i]:
                bags[i] &= ~(1 << rng.choice(list(bits(bags[i]))))
        elif kind == 1 and bags:  # add a vertex, perhaps one beyond the graph
            bags[rng.randrange(len(bags))] |= 1 << rng.randrange(td.n + 2)
        elif kind == 2 and edges:  # drop a tree edge
            edges.pop(rng.randrange(len(edges)))
        elif kind == 3 and bags:  # add an edge, perhaps a loop or out of range
            edges.append((rng.randrange(len(bags)), rng.randrange(-1, len(bags) + 1)))
        elif kind == 4 and edges:  # move one end of a tree edge
            i = rng.randrange(len(edges))
            edges[i] = (edges[i][0], rng.randrange(len(bags)))
        elif kind == 5:  # add a bag
            bags.append(rng.getrandbits(td.n) if td.n else 0)
            if rng.random() < 0.7:
                edges.append((len(bags) - 1, rng.randrange(len(bags))))
    return TreeDecomposition(td.n, bags, edges)


def _full_scan_decomposition(g, order):
    """Elimination decomposition that scores every live vertex at each step."""
    rows = list(g.row)
    alive = g.full_mask
    bags, elim_pos, elim_order = [], {}, []
    for step in range(g.n):
        scores = []
        for v in bits(alive):
            nb = rows[v] & alive & ~(1 << v)
            if order == "degree":
                scores.append((nb.bit_count(), v))
            else:
                fill = sum((nb & ~rows[u] & ~(1 << u)).bit_count() for u in bits(nb))
                scores.append((fill // 2, v))
        v = min(scores, key=lambda sv: sv[0])[1]
        nb = rows[v] & alive & ~(1 << v)
        bags.append(nb | (1 << v))
        elim_pos[v] = step
        elim_order.append(v)
        for u in bits(nb):
            rows[u] |= nb & ~(1 << u)
        alive &= ~(1 << v)
    edges, roots = [], []
    for step, v in enumerate(elim_order):
        rest = bags[step] & ~(1 << v)
        if rest:
            edges.append((step, elim_pos[min(bits(rest), key=lambda u: elim_pos[u])]))
        else:
            roots.append(step)
    edges.extend(zip(roots, roots[1:]))
    return bags, edges


def _with_c5(g, x):
    """g with an induced 5-cycle through vertex x."""
    a, b, c, d = range(g.n, g.n + 4)
    return Graph(g.n + 4, list(g.edges()) + [(x, a), (a, b), (b, c), (c, d), (d, x)])


def _treewidth_pool():
    """Graphs like the treewidth benchmark's: 3xk and 4xk grids, and random
    chordal graphs with an induced C5 through one vertex."""
    graphs = [grid(3, c) for c in range(8, 16)] + [grid(4, c) for c in range(5, 9)]
    graphs += [_with_c5(random_chordal(n, n), n // 2) for n in range(30, 66, 2)]
    return graphs


class TestHeuristic:
    def test_tree_gets_width_one(self):
        g = build_graph(7, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (5, 6)])
        td = heuristic_decomposition(g)
        assert validate_decomposition(g, td) is None
        assert td.width == 1

    def test_cycle_gets_width_two(self):
        for n in (4, 7, 10):
            td = heuristic_decomposition(cycle(n))
            assert validate_decomposition(cycle(n), td) is None
            assert td.width == 2

    def test_grid_valid_and_narrow(self):
        for r, c in [(3, 3), (3, 5), (4, 4)]:
            g = grid(r, c)
            td = heuristic_decomposition(g)
            assert validate_decomposition(g, td) is None
            assert td.width <= min(r, c) + 1

    def test_random_graphs_valid(self):
        for seed in range(20):
            g = gnp(10, 0.3, seed)
            for order in ("fill", "degree"):
                td = heuristic_decomposition(g, order)
                assert validate_decomposition(g, td) is None

    def test_same_decomposition_as_full_scan(self):
        graphs = [gnp(3 + seed % 58, 0.03 + (seed % 7) * 0.05, seed) for seed in range(200)]
        graphs += [grid(r, c) for r, c in [(1, 6), (2, 5), (3, 7), (4, 4), (5, 6)]]
        graphs += [random_chordal(5 + seed * 3, seed) for seed in range(20)]
        graphs += _treewidth_pool()
        for g in graphs:
            for order in ("fill", "degree"):
                td = heuristic_decomposition(g, order)
                assert (td.bags, td.edges) == _full_scan_decomposition(g, order)


def nice_to_decomposition(nd):
    """The nice decomposition as a plain one: its bags, child edges kept."""
    edges = [(i, c) for i, node in enumerate(nd.nodes) for c in node.children]
    return TreeDecomposition(nd.n, [node.bag for node in nd.nodes], edges)


class TestNiceForm:
    def test_structure(self):
        for seed in range(10):
            g = gnp(9, 0.3, seed)
            td = heuristic_decomposition(g)
            nd = make_nice(td)
            assert nd.nodes[nd.root].bag == 0
            for node in nd.nodes:
                if node.kind == "introduce":
                    child = nd.nodes[node.children[0]]
                    added = node.bag & ~child.bag
                    assert added.bit_count() == 1 and added == 1 << node.vertex
                elif node.kind == "forget":
                    child = nd.nodes[node.children[0]]
                    removed = child.bag & ~node.bag
                    assert removed.bit_count() == 1 and removed == 1 << node.vertex
                elif node.kind == "join":
                    left, right = (nd.nodes[c] for c in node.children)
                    assert left.bag == node.bag == right.bag
                else:
                    assert node.bag == 0 and not node.children
            assert nd.width == td.width
            back = nice_to_decomposition(nd)
            assert validate_decomposition(g, back) is None

    def test_deep_path_leaves_the_recursion_limit_alone(self, monkeypatch):
        def refuse(limit):
            raise AssertionError(f"recursion limit set to {limit}")

        monkeypatch.setattr(sys, "setrecursionlimit", refuse)
        n = 20_001
        td = TreeDecomposition(n, [0b11 << i for i in range(n - 1)],
                               [(i, i + 1) for i in range(n - 2)])
        assert len(td.bags) == 20_000 and validate_decomposition(path(n), td) is None
        nd = make_nice(td)
        # the far leaf's chain of 3, a forget and an introduce per bag edge,
        # and 2 forgets at the root
        assert len(nd.nodes) == 3 + 2 * (n - 2) + 2
        assert planned_cost(td) == _nice_form_cost(td)

    def test_bags_that_bag_zero_does_not_reach_are_refused(self):
        bags = [0b011, 0b110, 0b100]
        for edges in ([(0, 1)], [(0, 1), (1, 0)], [(0, 1), (1, 1)]):
            with pytest.raises(GraphError, match="bag 0 reaches 2 of 3 bags"):
                make_nice(TreeDecomposition(3, bags, edges))

    @pytest.mark.parametrize("call", [
        make_nice, planned_cost, lambda td: gamma_i_treewidth(path(4), td),
    ], ids=["make_nice", "planned_cost", "gamma_i_treewidth"])
    def test_a_bag_edge_out_of_range_is_a_graph_error(self, call):
        td = TreeDecomposition(4, [0b0011, 0b0110, 0b1100], [(0, 1), (0, 99)])
        with pytest.raises(GraphError, match=r"bag edge \(0, 99\) out of range"):
            call(td)

    def test_an_edge_listed_twice_is_walked_once(self):
        td = TreeDecomposition(4, [0b0011, 0b0110, 0b1100], [(0, 1), (1, 2)])
        twice = TreeDecomposition(4, td.bags, td.edges + [(2, 1)])
        assert make_nice(twice) == make_nice(td)
        assert planned_cost(twice) == planned_cost(td)


A_WHITE = "in-A-white"
A_GRAY = "in-A-gray"
A_SELF = "in-A-and-D"
D_ONLY = "in-D"
OUTSIDE = "outside"


def bag_status(alpha, dmask, wmask, v):
    """Status of bag vertex v in a configuration (A-pattern, D-pattern, white set)."""
    vb = 1 << v
    if alpha & vb:
        if dmask & vb:
            return A_SELF
        return A_WHITE if wmask & vb else A_GRAY
    return D_ONLY if dmask & vb else OUTSIDE


class TestBagStatus:
    def test_five_way_view(self):
        alpha, dmask, wmask = 0b0111, 0b1010, 0b0001
        assert bag_status(alpha, dmask, wmask, 0) == A_WHITE
        assert bag_status(alpha, dmask, wmask, 1) == A_SELF
        assert bag_status(alpha, dmask, wmask, 2) == A_GRAY
        assert bag_status(alpha, dmask, wmask, 3) == D_ONLY
        assert bag_status(0, 0, 0, 1) == OUTSIDE


class TestGammaITreewidth:
    def test_star(self):
        value, cert = gamma_i_treewidth(star(10))
        assert value == 1
        assert verify_certificate(star(10), cert)

    def test_p4(self):
        assert gamma_i_treewidth(path(4))[0] == 2

    def test_edgeless_self_domination(self):
        assert gamma_i_treewidth(Graph(5))[0] == 5

    def test_oracle_equivalence(self):
        for seed in range(120):
            g = gnp(4 + seed % 11, 0.25 + (seed % 4) * 0.08, seed)
            value, cert = gamma_i_treewidth(g)
            assert value == gamma_i_oracle(g)[0]
            assert verify_certificate(g, cert)

    def test_decomposition_independence(self):
        for seed in range(40):
            g = gnp(4 + seed % 10, 0.3, seed)
            a = gamma_i_treewidth(g, heuristic_decomposition(g, "fill"))[0]
            b = gamma_i_treewidth(g, heuristic_decomposition(g, "degree"))[0]
            assert a == b

    def test_width_ceiling(self):
        kn = Graph(8, [(i, j) for i in range(8) for j in range(i + 1, 8)])
        with pytest.raises(CapacityError):
            gamma_i_treewidth(kn, width_ceiling=3)

    def test_flat_count_table_counterexample(self):
        g = build_graph(8, [(4, 0), (4, 3), (5, 1), (6, 2), (7, 0), (7, 1), (7, 2), (7, 3)])
        assert gamma_i_treewidth(g)[0] == 3 == gamma_i_oracle(g)[0]


def _union(*graphs):
    """Disjoint union, the vertices of each graph numbered after the last's."""
    edges, n = [], 0
    for h in graphs:
        edges += [(u + n, v + n) for u, v in h.edges()]
        n += h.n
    return Graph(n, edges)


def _small_corpus():
    """Chordal, outerplanar and gnp graphs on at most 16 vertices, sparse
    enough that many are disconnected or have isolated vertices."""
    graphs = []
    for seed in range(40):
        n = 1 + seed % 16
        graphs.append(random_chordal(n, seed, clique_bias=0.3 + (seed % 3) * 0.25))
        graphs.append(random_outerplanar(max(n, 3), seed))
        graphs.append(gnp(n, 0.08 + (seed % 5) * 0.07, seed))
    for seed in range(15):
        graphs.append(_union(random_outerplanar(3 + seed % 5, seed), gnp(1 + seed % 5, 0.3, seed),
                             random_chordal(1 + seed % 4, seed)))
    return graphs


def _nice_form_cost(td):
    """planned_cost counted on the nice form itself."""
    return sum(6 ** node.bag.bit_count() + (8 ** node.bag.bit_count() if node.kind == "join" else 0)
               for node in make_nice(td).nodes)


class TestChosenDecomposition:
    def test_both_candidates_match_the_oracle(self):
        graphs = _small_corpus()
        disconnected = isolated = path_chosen = 0
        for g in graphs:
            expected = gamma_i_oracle(g)[0]
            fill, path_td = heuristic_decomposition(g), path_decomposition(g)
            assert validate_decomposition(g, path_td) is None
            assert path_td.edges == [(i, i + 1) for i in range(len(path_td.bags) - 1)]
            for td in (fill, path_td):
                assert gamma_i_treewidth(g, td)[0] == expected
            value, cert = gamma_i_treewidth(g)
            assert value == expected and verify_certificate(g, cert) and cert.value == value
            chosen = choose_decomposition(g)
            assert chosen in (fill, path_td)
            path_chosen += chosen == path_td != fill
            disconnected += len(connected_components(g)) > 1
            isolated += 0 in g.row
        # the corpus reaches what it is meant to cover
        assert min(disconnected, isolated, path_chosen) >= 10

    def test_planned_cost_counts_the_nice_form(self):
        graphs = _small_corpus() + [grid(4, 6), Graph(0), star(7)]
        for g in graphs:
            for td in (heuristic_decomposition(g), heuristic_decomposition(g, "degree"),
                       path_decomposition(g)):
                assert planned_cost(td) == _nice_form_cost(td)
        # joins, a bag inside its neighbor, and an empty list of bags
        td = TreeDecomposition(5, [0b00011, 0b00111, 0b01001, 0b10001, 0b00001],
                               [(0, 1), (0, 2), (0, 3), (3, 4)])
        assert planned_cost(td) == _nice_form_cost(td)
        td = TreeDecomposition(0, [], [])
        assert planned_cost(td) == _nice_form_cost(td) == 1

    def test_path_decomposition_stops_above_max_width(self):
        g = grid(4, 6)
        assert path_decomposition(g).width == 4
        assert path_decomposition(g, 4) == path_decomposition(g)
        assert path_decomposition(g, 3) is None
        assert path_decomposition(Graph(0)).bags == []
        assert heuristic_decomposition(Graph(0)) == path_decomposition(Graph(0))

    def test_cheaper_candidate_is_chosen(self):
        g = grid(4, 6)
        fill, path_td = heuristic_decomposition(g), path_decomposition(g)
        assert planned_cost(path_td) < planned_cost(fill)
        assert choose_decomposition(g) == path_td
        g = random_chordal(30, 2)
        fill, path_td = heuristic_decomposition(g), path_decomposition(g)
        assert planned_cost(fill) < planned_cost(path_td)
        assert choose_decomposition(g) == fill

    def test_ties_keep_min_fill(self, monkeypatch):
        monkeypatch.setattr(treewidth, "planned_cost", lambda td: 0)
        g = grid(4, 6)
        assert choose_decomposition(g) == heuristic_decomposition(g)

    def test_a_candidate_within_the_ceiling_wins(self, monkeypatch):
        g = grid(6, 10)  # min-fill width 7, path decomposition width 6
        fill, path_td = heuristic_decomposition(g), path_decomposition(g)
        assert (fill.width, path_td.width) == (7, 6)
        # even when the wider candidate is planned cheaper
        monkeypatch.setattr(treewidth, "planned_cost", lambda td: -td.width)
        assert choose_decomposition(g, width_ceiling=6) == path_td
        assert choose_decomposition(g, width_ceiling=7) == fill
        # with none within it, min-fill is refused as before
        assert choose_decomposition(g, width_ceiling=5) == fill
        with pytest.raises(CapacityError, match="width 7 exceeds ceiling 5"):
            gamma_i_treewidth(g, width_ceiling=5)

    def test_a_bad_dp_value_fails_the_witness_search(self, monkeypatch):
        original = treewidth._dp_nodes

        def shifted(by):
            def nodes(g, nd, stats=None):
                for idx, items in original(g, nd, stats):
                    if idx == nd.root:
                        items = [_Item(it.alpha, [c + by for c in it.table], it.members)
                                 for it in items]
                    yield idx, items
            return nodes

        g = star(6)  # value 1: the center dominates every leaf
        monkeypatch.setattr(treewidth, "_dp_nodes", shifted(1))
        with pytest.raises(GraphError, match="DP value 2, .* dominating set of 1 vertices"):
            gamma_i_treewidth(g)
        monkeypatch.setattr(treewidth, "_dp_nodes", shifted(-1))
        with pytest.raises(GraphError, match="DP value 0, .* dominating set of 1 vertices"):
            gamma_i_treewidth(g)


class TestNewlyAnswered:
    """Grids with wide bags, answered within the table budget."""

    def test_six_row_grids(self):
        for rows, cols, expected in [(6, 10, 13), (6, 14, 18)]:
            g = grid(rows, cols)
            assert heuristic_decomposition(g).width == 7
            algorithm, value, cert, extra = gamma_i(g)
            assert (algorithm, value, extra["width"]) == ("treewidth", expected, 6)
            assert verify_certificate(g, cert)
            # the PTAS's guarantee at k = 3 brackets the exact value
            approx = ptas_gamma_i(g, 1 / 3)
            assert approx.k == 3 and (1 - 1 / 3) * value <= approx.value <= value
        # min-fill's width-7 decomposition is affordable too
        g = grid(6, 10)
        fill_stats = DPStats()
        assert gamma_i_treewidth(g, heuristic_decomposition(g), stats=fill_stats)[0] == 13
        assert fill_stats.max_entries == 218_624

    def test_five_by_twenty_needs_smaller_tables(self):
        g = grid(5, 20)
        fill_stats = DPStats()
        assert gamma_i_treewidth(g, heuristic_decomposition(g), stats=fill_stats)[0] == 21
        assert fill_stats.max_entries == 10_496
        algorithm, value, cert, extra = gamma_i(g)
        assert (algorithm, value) == ("treewidth", 21)
        assert extra["stats"]["max_entries"] < 10_496

    def test_seven_by_ten_at_width_seven(self):
        g = grid(7, 10)
        start = time.process_time()
        algorithm, value, cert, extra = gamma_i(g)
        elapsed = time.process_time() - start
        assert (algorithm, value, extra["width"]) == ("treewidth", 15, 7)
        assert extra["stats"]["max_entries"] == 166_656
        assert verify_certificate(g, cert)
        assert elapsed < 2.0, f"grid(7, 10) took {elapsed:.2f} s"


def _subtree_vertices(nd):
    verts = [0] * len(nd.nodes)
    for idx, node in enumerate(nd.nodes):
        v = node.bag
        for c in node.children:
            v |= verts[c]
        verts[idx] = v
    return verts


def _true_functions(g, gi, bag, alpha):
    """For each independent A in G_i with A∩bag == alpha, the query function
    (D-in-bag, required-white-set) -> min |D| over D in G_i that hold no
    member of A with a neighbor in G; D-in-bag is then outside alpha."""
    lone = sum(1 << v for v in range(g.n) if not g.row[v])
    functions = []
    for amask in subsets_of(gi):
        if amask & bag != alpha or not is_independent(g, amask):
            continue
        best = {}
        for dmask in subsets_of(gi):
            cover = cover_of(g, dmask)
            if dmask & amask & ~lone or (amask & ~bag) & ~cover:
                continue
            key = (dmask & bag & ~alpha, cover & alpha)
            c = dmask.bit_count()
            if key not in best or best[key] > c:
                best[key] = c
        fn = {}
        for ds in {k[0] for k in best}:
            for w in subsets_of(alpha):
                q = min(
                    (c for (d2, w2), c in best.items() if d2 == ds and w2 & w == w),
                    default=None,
                )
                if q is not None:
                    fn[(ds, w)] = q
        functions.append(fn)
    return functions


def _fn_at_least(b, a):
    """b >= a pointwise, reading missing entries as infinite."""
    if not set(b) <= set(a):
        return False
    return all(b[k] >= a[k] for k in b)


def _random_independent_set(g, rng):
    """Each vertex in a random order joins when it has no neighbor inside yet
    and a coin says so."""
    a = 0
    for v in rng.sample(range(g.n), g.n):
        if not g.row[v] & a and rng.random() < 0.7:
            a |= 1 << v
    return a


class TestSwapLemma:
    def test_some_minimum_d_holds_no_member_of_a_with_a_neighbor(self):
        """The bag DP keeps members of A with a neighbor out of D: a member
        in D can be swapped for a neighbor, which still dominates it, and it
        dominates no other member of the independent set A."""
        rng = random.Random(28)
        for case in range(300):
            h = gnp(1 + case % 10, 0.1 + (case % 6) * 0.1, case)
            g = Graph(h.n + case % 3, list(h.edges()))  # up to two more isolated vertices
            a = _random_independent_set(g, rng)
            allowed = [v for v in range(g.n) if not a >> v & 1 or not g.row[v]]
            least = next(k for k in range(g.n + 1)
                         if any(not a & ~cover_of(g, mask_from(d))
                                for d in combinations(allowed, k)))
            assert gamma_of_set(g, a)[0] == least, case


class TestPerNodeTableOracle:
    def test_items_match_brute_force(self):
        for seed in range(8):
            g = gnp(5 + seed % 4, 0.35, seed)
            nd = make_nice(heuristic_decomposition(g))
            done = dict(_dp_nodes(g, nd))
            verts = _subtree_vertices(nd)
            for idx, node in enumerate(nd.nodes):
                by_alpha = {}
                for it in done[idx]:
                    fn = {}
                    table = it.as_dict(node.bag)
                    for ds in {k[0] for k in table}:
                        for w in subsets_of(it.alpha):
                            q = table.get((ds, w))
                            if q is not None:
                                fn[(ds, w)] = q
                    by_alpha.setdefault(it.alpha, []).append(fn)
                seen_alphas = set(by_alpha)
                for alpha in seen_alphas | {
                    a for a in subsets_of(node.bag) if is_independent(g, a)
                }:
                    truths = _true_functions(g, verts[idx], node.bag, alpha)
                    got = by_alpha.get(alpha, [])
                    # soundness: every DP function is realized by some A
                    for fn in got:
                        assert fn in truths
                    # completeness: every Pareto-maximal truth is kept
                    for fn in truths:
                        maximal = not any(
                            other != fn and _fn_at_least(other, fn) for other in truths
                        )
                        if maximal:
                            assert fn in got


class TestClosedTables:
    def test_every_table_closed_and_no_item_dominated(self):
        for seed in range(30):
            g = gnp(5 + seed % 6, 0.3, seed)
            nd = make_nice(heuristic_decomposition(g))
            for idx, items in _dp_nodes(g, nd):
                tables = [it.as_dict(nd.nodes[idx].bag) for it in items]
                for table in tables:
                    for (dm, w), c in table.items():
                        for v in bits(w):
                            sub = table.get((dm, w & ~(1 << v)))
                            assert sub is not None and sub <= c
                for a, ta in zip(items, tables):
                    for b, tb in zip(items, tables):
                        if a is not b and a.alpha == b.alpha:
                            assert not _fn_at_least(ta, tb)


def _reference_dp_nodes(g, nd):
    """The bag DP with dict tables {(D-in-bag mask, white mask): cost}, D in
    the bag outside alpha: yield (node index, [(alpha, members, table)]) for
    every nice node."""
    done = {}
    for idx, node in enumerate(nd.nodes):
        kids = [done.pop(c) for c in node.children]
        v = node.vertex
        vb = 0 if v is None else 1 << v
        items = []
        if node.kind == "leaf":
            items = [(0, 0, {(0, 0): 0})]
        elif node.kind == "introduce":
            row = g.row[v]
            for alpha, members, child in kids[0]:
                seen = row & alpha
                whitened = [0]
                for u in bits(seen):
                    whitened += [b | 1 << u for b in whitened]
                table = dict(child)
                for (dm, wm), c in child.items():
                    if not wm & seen:
                        for b in whitened:
                            table[dm | vb, wm | b] = c + 1
                items.append((alpha, members, table))
                if not seen:  # v joins A outside D; without neighbors it pays one
                    table = {}
                    for (dm, wm), c in child.items():
                        table[dm, wm] = c
                        if dm & row or not row:
                            table[dm, wm | vb] = c + (not row)
                    items.append((alpha | vb, members | vb, table))
        elif node.kind == "forget":
            for alpha, members, child in kids[0]:
                table = {}
                for (dm, wm), c in child.items():
                    if alpha & vb and not wm & vb:
                        continue
                    key = (dm & ~vb, wm & ~vb)
                    table[key] = min(c, table.get(key, c))
                if table:
                    items.append((alpha & ~vb, members, table))
        else:
            for alpha, members1, t1 in kids[0]:
                for alpha2, members2, t2 in kids[1]:
                    if alpha2 != alpha:
                        continue
                    by_d = {}
                    for (dm, w2), c2 in t2.items():
                        by_d.setdefault(dm, []).append((w2, c2))
                    table = {}
                    for (dm, w1), c1 in t1.items():
                        for w2, c2 in by_d.get(dm, ()):
                            if not w1 & w2:
                                c = c1 + c2 - dm.bit_count()
                                table[dm, w1 | w2] = min(c, table.get((dm, w1 | w2), c))
                    if table:
                        items.append((alpha, members1 | members2, table))
        grouped = {}  # per A-pattern, the items no other item bounds from above
        for it in items:
            grouped.setdefault(it[0], []).append(it)
        done[idx] = []
        for group in grouped.values():
            kept = []
            for it in group:
                if not any(_fn_at_least(b[2], it[2]) for b in kept):
                    kept = [b for b in kept if not _fn_at_least(it[2], b[2])]
                    kept.append(it)
            done[idx] += kept
        yield idx, done[idx]


class TestDenseTables:
    def test_items_equal_dict_reference(self):
        graphs = [gnp(4 + seed % 10, 0.15 + (seed % 5) * 0.07, seed) for seed in range(60)]
        graphs += [grid(2, 5), grid(3, 4), grid(4, 4)]
        graphs += [random_chordal(6 + seed, seed) for seed in range(12)]
        for g in graphs:
            nd = make_nice(heuristic_decomposition(g))
            expected = dict(_reference_dp_nodes(g, nd))
            for idx, items in _dp_nodes(g, nd):
                got = sorted((it.alpha, it.members, sorted(it.as_dict(nd.nodes[idx].bag).items()))
                             for it in items)
                assert got == sorted((a, m, sorted(t.items())) for a, m, t in expected[idx])

    def test_index_map_cache_stays_bounded(self, monkeypatch):
        g = grid(4, 6)
        expected = gamma_i_treewidth(g)
        cache = treewidth._MapCache(200)
        monkeypatch.setattr(treewidth, "_maps", cache)
        assert gamma_i_treewidth(g) == expected
        assert 0 < cache.size == sum(map(len, cache.maps.values())) <= 200

    def test_planned_entries_are_the_entries_each_node_allocates(self, monkeypatch):
        built = []

        def counted(step):
            def run(*args):
                items = step(*args)
                built.append(sum(len(it.table) for it in items))
                return items
            return run

        for name in ("_introduce", "_forget", "_join"):
            monkeypatch.setattr(treewidth, name, counted(getattr(treewidth, name)))
        planned = []
        plan = treewidth._planned_entries
        monkeypatch.setattr(treewidth, "_planned_entries",
                            lambda *args: planned.append(plan(*args)) or planned[-1])
        graphs = [gnp(4 + seed % 12, 0.1 + (seed % 5) * 0.08, seed) for seed in range(40)]
        graphs += [grid(3, 5), grid(4, 5), grid(5, 5)]
        graphs += [random_chordal(8 + seed, seed) for seed in range(12)]
        for g in graphs:
            nd = make_nice(choose_decomposition(g))
            built.clear()
            planned.clear()
            for idx, items in _dp_nodes(g, nd):
                node = nd.nodes[idx]
                if node.kind == "leaf":
                    built.append(1)
                assert all(len(it.table) == 1 << node.bag.bit_count() for it in items)
            assert planned == built

    def test_budget_refused_before_allocation(self, monkeypatch):
        g = grid(4, 6)
        td = heuristic_decomposition(g)
        stats = DPStats()
        for _ in _dp_nodes(g, make_nice(td), stats):
            pass
        monkeypatch.setattr(treewidth, "TABLE_BUDGET", stats.max_entries - 1)
        with pytest.raises(CapacityError, match="budget"):
            gamma_i_treewidth(g, td)


def _items_reachable(obj):
    """Items reachable from obj through its fields and plain containers."""
    found, seen, stack = [], set(), gc.get_referents(obj)
    while stack:
        ref = stack.pop()
        if id(ref) in seen:
            continue
        seen.add(id(ref))
        if isinstance(ref, _Item):
            found.append(ref)
        elif isinstance(ref, (tuple, list, dict)):
            stack.extend(gc.get_referents(ref))
    return found


class TestDroppedTables:
    def test_no_item_refers_to_another(self):
        leaf = _Item(0, [0], 0)  # an item held through a tuple is found
        assert _items_reachable(_Item(0, [], ("intro", leaf, 0, False))) == [leaf]
        for seed in range(10):
            g = gnp(6 + seed % 5, 0.3, seed)
            for items in dict(_dp_nodes(g, make_nice(heuristic_decomposition(g)))).values():
                for it in items:
                    assert _items_reachable(it) == []

    def test_peak_live_entries_below_total(self):
        g = grid(4, 8)
        nd = make_nice(heuristic_decomposition(g))
        stats = DPStats()
        sizes = [sum(len(it.table) for it in items) for _, items in _dp_nodes(g, nd, stats)]
        assert stats.nice_nodes == len(nd.nodes) == len(sizes)
        assert stats.max_entries == max(sizes)
        assert stats.max_entries <= stats.peak_live_entries < sum(sizes)


class TestDecompositionFormat:
    def test_round_trip(self):
        g = gnp(9, 0.35, 3)
        td = heuristic_decomposition(g)
        back = parse_decomposition(serialize_decomposition(td))
        assert back.bags == td.bags and sorted(back.edges) == sorted(td.edges)
        assert validate_decomposition(g, back) is None

    def test_pace_style_one_based(self):
        text = "c comment\ns td 2 2 3\nb 1 1 2\nb 2 2 3\n1 2\n"
        td = parse_decomposition(text)
        assert td.n == 3
        assert td.bags == [mask_from([0, 1]), mask_from([1, 2])]
        assert td.edges == [(0, 1)]
        assert validate_decomposition(path(3), td) is None

    def test_usable_as_external_input(self):
        g = path(5)
        text = "s 4 2 5\nb 0 0 1\nb 1 1 2\nb 2 2 3\nb 3 3 4\n0 1\n1 2\n2 3\n"
        td = parse_decomposition(text)
        assert gamma_i_treewidth(g, td)[0] == gamma_i_oracle(g)[0]

    def test_non_integer_token(self):
        with pytest.raises(FormatError, match="line 2"):
            parse_decomposition("s 2 2 3\nb 0 0 x\nb 1 1 2\n0 1\n")

    def test_pace_style_rejects_vertex_zero(self):
        with pytest.raises(FormatError, match="line 2"):
            parse_decomposition("s td 2 2 3\nb 1 0 1\nb 2 2 3\n1 2\n")

    def test_vertex_beyond_header(self):
        with pytest.raises(FormatError, match="line 2"):
            parse_decomposition("s 2 2 3\nb 0 0 3\nb 1 1 2\n0 1\n")

    @pytest.mark.parametrize("text", [
        "s 1 1 3\nb 0 0 1 2\n", "s 2 4 3\nb 0 0 1\nb 1 1 2\n0 1\n",
        "s td 1 2 3\nb 1 1\n", "s 0 1 0\n",
    ], ids=["below", "above", "one-based", "no-bags"])
    def test_header_must_give_largest_bag_size(self, text):
        with pytest.raises(FormatError, match="largest bag") as err:
            parse_decomposition(text)
        assert err.value.line == 1

    def test_header_of_no_bags_gives_zero(self):
        td = parse_decomposition("s 0 0 0\n")
        assert td.bags == [] and td.width == -1
        assert validate_decomposition(Graph(0), td) is None

    def test_vertex_count_beyond_graph_limit(self):
        # a bag vertex id becomes a bit of a mask, so it must stay small
        with pytest.raises(FormatError, match="line 1"):
            parse_decomposition("s 1 1 1000000000000000\nb 0 999999999999999\n")
