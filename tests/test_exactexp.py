import math
import random

import pytest

from indom import Graph, GraphError, build_graph, mask_from, verify_certificate, dominates
from indom.exactexp import (
    DEFAULT_BETA,
    BranchStats,
    brute_force_matching,
    gamma_i_exact,
    gamma_of_independent_set_fast,
    maximum_matching_general,
    _gamma_by_subsets,
    _maximal_independent_sets,
)
from indom.graph import bits
from indom.oracle import (
    DominationCertificate,
    enumerate_maximal_independent_sets,
    gamma_i_oracle,
    gamma_of_set,
)
from indom.generators import cycle, gnp, path, star
from indom.treewidth import gamma_i_treewidth, heuristic_decomposition


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, outer + spokes + inner)


def triangles(t):
    edges = []
    for i in range(t):
        b = 3 * i
        edges += [(b, b + 1), (b, b + 2), (b + 1, b + 2)]
    return Graph(3 * t, edges)


class TestMatching:
    def test_p3(self):
        assert len(maximum_matching_general(path(3))) == 1

    def test_c9(self):
        assert len(maximum_matching_general(cycle(9))) == 4

    def test_petersen_perfect(self):
        assert len(maximum_matching_general(petersen())) == 5

    def test_matches_are_valid(self):
        for seed in range(30):
            g = gnp(11, 0.35, seed)
            matching = maximum_matching_general(g)
            used = set()
            for u, v in matching:
                assert g.has_edge(u, v)
                assert u not in used and v not in used
                used.update((u, v))

    def test_agrees_with_brute_force(self):
        for seed in range(40):
            g = gnp(4 + seed % 9, 0.4, seed)
            assert len(maximum_matching_general(g)) == brute_force_matching(g)


class TestFastGammaOfSet:
    def test_star_leaves(self):
        g = star(6)
        value, witness, stats = gamma_of_independent_set_fast(g, mask_from(range(1, 6)))
        assert value == 1 and witness == 1
        assert stats.nodes >= 1

    def test_c6_alternating(self):
        value, witness, _ = gamma_of_independent_set_fast(cycle(6), {0, 2, 4})
        assert value == 2

    def test_isolated_member_self_dominates(self):
        g = build_graph(4, [(0, 1)])
        value, witness, _ = gamma_of_independent_set_fast(g, {1, 2, 3})
        assert value == 3
        assert witness & 0b1100 == 0b1100  # isolated vertices dominate themselves

    @pytest.mark.parametrize("m", [{5}, 1 << 3, -4])
    def test_vertex_outside_the_graph_is_refused(self, m):
        with pytest.raises(GraphError, match=r"outside 0\.\.2"):
            gamma_of_independent_set_fast(Graph(3, [(0, 1)]), m)

    def test_matches_slow_oracle(self):
        for seed in range(120):
            g = gnp(4 + seed % 13, 0.3, seed)
            sets = list(enumerate_maximal_independent_sets(g))
            m = sets[seed % len(sets)]
            value, witness, _ = gamma_of_independent_set_fast(g, m)
            assert value == gamma_of_set(g, m)[0]
            assert dominates(g, witness, m)
            assert witness.bit_count() == value


def random_independent_set(g, rng):
    """An independent set grown in random order, then randomly thinned."""
    m = 0
    for v in rng.sample(range(g.n), g.n):
        if g.closed[v] & m == 0:
            m |= 1 << v
    return mask_from(v for v in range(g.n) if m >> v & 1 and rng.random() < 0.8)


class TestCutoff:
    def test_contract_against_oracle(self):
        # gamma(m) <= c: any dominating set of m with at most c vertices;
        # gamma(m) > c: the exact minimum with its witness
        rng = random.Random(7)
        outcomes = {"greedy": 0, "search stopped": 0, "exact": 0}
        for trial in range(2000):
            g = gnp(rng.randint(4, 16), rng.choice((0.1, 0.2, 0.3, 0.45)), trial)
            m = random_independent_set(g, rng)
            exact = gamma_of_set(g, m)[0]
            # mostly at the minimum itself, where a greedy cover often misses
            cutoff = max(-1, exact + rng.choice((-2, -1, 0, 0, 0, 0, 1, 2)))
            value, witness, stats = gamma_of_independent_set_fast(g, m, cutoff=cutoff)
            assert dominates(g, witness, m)
            assert witness.bit_count() == value
            if exact <= cutoff:
                assert exact <= value <= cutoff
                outcomes["greedy" if stats.sets_cut else "search stopped"] += 1
            else:
                assert value == exact
                assert stats.sets_cut == 0
                outcomes["exact"] += 1
        assert min(outcomes.values()) >= 10, outcomes

    def test_search_stops_where_greedy_misses(self):
        # greedy takes the decoy 6 (four m-neighbors) and needs three
        # dominators; 7 and 8 cover m with two
        g = build_graph(9, [(6, 1), (6, 2), (6, 3), (6, 4), (7, 0), (7, 1), (7, 2),
                            (8, 3), (8, 4), (8, 5)])
        m = mask_from(range(6))
        value, witness, stats = gamma_of_independent_set_fast(g, m, cutoff=2)
        assert (value, witness, stats.sets_cut) == (2, 1 << 7 | 1 << 8, 0)
        assert gamma_of_independent_set_fast(g, m, cutoff=3)[:2] == (3, 1 << 6 | 1 << 7 | 1 << 8)

    @pytest.mark.parametrize("beta", [0, 1])
    def test_each_route_matches_oracle(self, beta):
        # beta = 0 sends every set to subset enumeration, beta = 1 to branching
        for seed in range(200):
            g = gnp(4 + seed % 13, 0.15 + (seed % 6) * 0.1, 500 + seed)
            value, cert, stats = gamma_i_exact(g, beta=beta)
            assert value == gamma_i_oracle(g)[0]
            assert verify_certificate(g, cert)
            assert stats.sets_cut <= stats.sets_enumerated
            solved = stats.sets_enumerated - stats.sets_cut
            if beta == 0:
                assert stats.subset_calls == solved
            else:
                assert stats.subset_calls == 0


def oracle_loop_gamma_i_exact(g, beta):
    """Reference for gamma_i_exact's loop: the oracle's enumerator, the
    public per-set kernel with all its checks, and the isolated members of
    each set found by a scan of the set."""
    stats = BranchStats()
    best_value = 0
    best_cert = DominationCertificate(0, 0, 0)
    for m in enumerate_maximal_independent_sets(g):
        stats.sets_enumerated += 1
        if m.bit_count() <= best_value:
            stats.sets_cut += 1
            continue
        if m.bit_count() <= beta * g.n:
            value, witness, _ = gamma_of_independent_set_fast(g, m, stats, best_value)
        else:
            mandatory = mask_from(v for v in bits(m) if g.row[v] == 0)
            value, witness = _gamma_by_subsets(g, m, mandatory, stats)
        if value > best_value:
            best_value = value
            best_cert = DominationCertificate(m, witness, value)
    return best_value, best_cert, stats


class TestOwnEnumerator:
    def test_same_sequence_as_the_oracle(self):
        rng = random.Random(16)
        graphs = [Graph(0), Graph(1), Graph(7), build_graph(6, [(u, v) for u in range(6)
                                                                for v in range(u + 1, 6)])]
        graphs += [triangles(t) for t in range(1, 7)]
        graphs += [gnp(rng.randint(1, 24), rng.uniform(0.05, 0.6), seed) for seed in range(300)]
        for g in graphs:
            assert list(_maximal_independent_sets(g)) == list(enumerate_maximal_independent_sets(g))
        assert sum(1 for _ in _maximal_independent_sets(triangles(6))) == 3**6

    def test_same_answer_and_stats_as_the_oracle_loop(self):
        # beta = 0 sends every set to subset enumeration, which is
        # exponential in the outside vertices, so it runs on n <= 20 only
        rng = random.Random(17)
        cases = [(rng.randint(8, 32), rng.uniform(0.08, 0.32), rng.randrange(10**6))
                 for _ in range(300)]
        routes = {0: 0, DEFAULT_BETA: 0, 1: 0}
        for n, p, seed in cases:
            g = gnp(n, p, seed)
            for beta in routes:
                if beta == 0 and n > 20:
                    continue
                value, cert, stats = gamma_i_exact(g, beta=beta)
                assert (value, cert, stats) == oracle_loop_gamma_i_exact(g, beta)
                routes[beta] += 1
        assert routes[0] >= 100 and routes[1] == 300, routes


class TestGammaIExact:
    def test_oracle_equivalence(self):
        for seed in range(80):
            g = gnp(4 + seed % 13, 0.2 + (seed % 5) * 0.1, seed)
            value, cert, stats = gamma_i_exact(g)
            assert value == gamma_i_oracle(g)[0]
            assert verify_certificate(g, cert)
            assert stats.sets_enumerated >= 1

    def test_triangle_unions(self):
        for t in range(1, 6):
            g = triangles(t)
            value, cert, stats = gamma_i_exact(g)
            assert value == t
            assert stats.sets_enumerated == 3**t
            assert stats.sets_cut <= stats.sets_enumerated

    def test_edgeless_subset_route(self):
        g = Graph(6)
        value, cert, stats = gamma_i_exact(g)
        assert value == 6
        assert stats.subset_calls == 1  # the single maximal set is all of V

    def test_agrees_with_the_bag_dp_above_the_oracle_range(self):
        # the two routes share no solver code; the bag DP is exact at any n
        # once the min-fill width is small
        agreed = 0
        for seed in range(16):
            g = gnp(30 + seed % 11, (0.06, 0.08)[seed % 2], seed)
            if heuristic_decomposition(g).width > 6:
                continue
            assert gamma_i_exact(g)[0] == gamma_i_treewidth(g)[0]
            agreed += 1
        assert agreed >= 14

    def test_beta_default(self):
        assert math.isclose(DEFAULT_BETA, 0.6827)

    def test_refusals_raise_graph_errors(self):
        with pytest.raises(GraphError, match="above the exact-solver ceiling 3"):
            gamma_i_exact(cycle(5), ceiling=3)
        with pytest.raises(GraphError, match="beta"):
            gamma_i_exact(cycle(5), beta=2)

    def test_branch_growth_sanity(self):
        # crude log fit: nodes should grow no faster than an exponential with
        # a modest base; this is a smoke check, not a proof
        rng = random.Random(1)
        sizes = [12, 16, 20, 24]
        nodes = []
        for n in sizes:
            g = gnp(n, 0.25, rng.randrange(10**6))
            _, _, stats = gamma_i_exact(g)
            nodes.append(max(stats.nodes, 1))
        slope = (math.log(nodes[-1]) - math.log(nodes[0])) / (sizes[-1] - sizes[0])
        assert slope < math.log(1.8)
