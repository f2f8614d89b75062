import itertools
import random

import pytest

from indom import (
    Graph,
    GraphError,
    bits,
    dominates,
    is_independent,
    mask_from,
    verify_certificate,
)
from indom.permutation import (
    PermutationDiagram,
    cotree_to_diagram,
    diagram_to_graph,
    gamma_i_permutation,
    gamma_sets,
    parse_diagram,
    serialize_diagram,
)
from indom.oracle import DominationCertificate, gamma_i_oracle, gamma_of_set
from indom.generators import random_cotree, random_diagram
from indom.cograph import cotree_to_graph
from indom.graph import connected_components


def identity_diagram(n):
    return PermutationDiagram(n, tuple(range(n)), tuple(range(n)))


def reversal_diagram(n):
    return PermutationDiagram(n, tuple(range(n)), tuple(reversed(range(n))))


class TestDiagramToGraph:
    def test_identity_is_edgeless(self):
        assert diagram_to_graph(identity_diagram(5)).m == 0

    def test_reversal_is_complete(self):
        g = diagram_to_graph(reversal_diagram(5))
        assert g.m == 10

    def test_single_crossing(self):
        d = PermutationDiagram(3, (0, 1, 2), (1, 0, 2))
        g = diagram_to_graph(d)
        assert g.m == 1 and g.has_edge(0, 1) and g.degree(2) == 0

    def test_rejects_non_permutation(self):
        with pytest.raises(GraphError):
            PermutationDiagram(3, (0, 1, 1), (0, 1, 2))


class TestGammaIPermutation:
    def test_edgeless(self):
        for n in (6, 0):
            every = (1 << n) - 1
            assert gamma_i_permutation(identity_diagram(n)) == (
                n, DominationCertificate(every, every, n))

    def test_oracle_equivalence(self):
        for seed in range(120):
            d = random_diagram(4 + seed % 11, seed)
            g = diagram_to_graph(d)
            value, cert = gamma_i_permutation(d)
            assert value == gamma_i_oracle(g)[0]
            assert verify_certificate(g, cert)

    def test_cograph_diagram_gives_component_count(self):
        for seed in range(25):
            t = random_cotree(4 + seed % 9, seed)
            d = cotree_to_diagram(t)
            g = cotree_to_graph(t)
            assert diagram_to_graph(d) == g
            assert gamma_i_permutation(d)[0] == len(connected_components(g))

    def test_certificate_chain_is_parallel(self):
        for seed in range(25):
            d = random_diagram(10, seed)
            _, cert = gamma_i_permutation(d)
            members = sorted(bits(cert.independent_set), key=lambda v: d.top[v])
            for a, b in zip(members, members[1:]):
                assert d.left_of(a, b)

    def test_mirror_invariance(self):
        for seed in range(25):
            d = random_diagram(9, seed)
            n = d.n
            mirror = PermutationDiagram(n, tuple(n - 1 - t for t in d.top),
                                        tuple(n - 1 - b for b in d.bot))
            assert gamma_i_permutation(d)[0] == gamma_i_permutation(mirror)[0]


def brute_force_gamma_sets(d):
    """Raw definition: every minimum dominating set of every independent set
    ending in x contributes k at the rightmost covering neighbor of x."""
    g = diagram_to_graph(d)
    n = d.n

    def rightmost(v):
        return (max(d.top[v], d.bot[v]), d.top[v], v)

    table = {}
    for msk in range(1, 1 << n):
        if not is_independent(g, msk):
            continue
        members = sorted(bits(msk), key=lambda v: d.top[v])
        x = members[-1]
        k, _ = gamma_of_set(g, msk)
        for combo in itertools.combinations(range(n), k):
            gm = mask_from(combo)
            if dominates(g, gm, msk):
                z = max(bits(gm & g.closed[x]), key=rightmost)
                table[(x, z)] = table.get((x, z), 0) | (1 << k)
    return table


class TestGammaSets:
    def test_exact_table_matches_raw_definition(self):
        for seed in range(30):
            n = 4 + seed % 6
            d = random_diagram(n, seed)
            exact = {k: v for k, v in gamma_sets(d, "exact").table.items() if v}
            assert exact == brute_force_gamma_sets(d)

    def test_base_case_every_neighbor_carries_one(self):
        d = random_diagram(8, 2)
        g = diagram_to_graph(d)
        gs = gamma_sets(d, "exact")
        for x in range(8):
            for z in bits(g.closed[x]):
                assert 1 in gs.values(x, z)

    def test_max_matches_value(self):
        for seed in range(40):
            d = random_diagram(4 + seed % 9, seed)
            gs = gamma_sets(d, "exact")
            assert gs.max_k() == gamma_i_permutation(d)[0]


class TestDiagramFormat:
    def test_round_trip(self):
        d = random_diagram(9, 4)
        assert parse_diagram(serialize_diagram(d)) == d

    def test_interval_cover_helper(self):
        def gamma_of_ordered_set(d, g, m_mask):
            """gamma(M) for an independent M via the greedy run cover."""
            members = sorted(bits(m_mask), key=lambda v: d.top[v])
            count = 0
            i = 0
            while i < len(members):
                count += 1
                best_reach = i
                for w in bits(g.closed[members[i]]):
                    reach = i
                    while reach + 1 < len(members) and g.closed[w] >> members[reach + 1] & 1:
                        reach += 1
                    if g.closed[w] >> members[i] & 1 and reach > best_reach:
                        best_reach = reach
                i = best_reach + 1
            return count

        d = random_diagram(10, 1)
        g = diagram_to_graph(d)
        for msk in range(1, 1 << 10, 37):
            if is_independent(g, msk):
                assert gamma_of_ordered_set(d, g, msk) == gamma_of_set(g, msk)[0]


def pairwise_crossing_graph(d):
    """Reference: i and j are adjacent when their segments cross."""
    return Graph(d.n, [(i, j) for i, j in itertools.combinations(range(d.n), 2)
                       if (d.top[i] - d.top[j]) * (d.bot[i] - d.bot[j]) < 0])


def quadratic_chain_dp(d):
    """Reference: the chain DP over the crossing graph's closed rows, u
    before v in top order, first u of the longest chain on ties."""
    g = pairwise_crossing_graph(d)
    if d.n == 0:
        return 0, DominationCertificate(0, 0, 0)
    order = sorted(range(d.n), key=lambda v: d.top[v])
    length, back = {}, {}
    for v in order:
        best, prev = 1, None
        for u in order:
            if d.top[u] >= d.top[v]:
                break
            if d.left_of(u, v) and g.closed[u] & g.closed[v] == 0 and length[u] + 1 > best:
                best, prev = length[u] + 1, u
        length[v], back[v] = best, prev
    v = max(order, key=lambda v: length[v])
    value, chain = length[v], 0
    while v is not None:
        chain |= 1 << v
        v = back[v]
    return value, DominationCertificate(chain, chain, value)


def shuffled_diagrams(count, largest, seed):
    """Random diagrams with a shuffled top line; in every third one the
    bottom line is the top line with a few swaps, so that chains are long."""
    rng = random.Random(seed)
    for i in range(count):
        n = rng.randrange(largest + 1)
        top = list(range(n))
        rng.shuffle(top)
        bot = list(top)
        if i % 3:
            rng.shuffle(bot)
        else:
            for _ in range(n // 6):
                a, b = rng.randrange(n), rng.randrange(n)
                bot[a], bot[b] = bot[b], bot[a]
        yield PermutationDiagram(n, tuple(top), tuple(bot))


class TestAgainstPairwiseDefinitions:
    def test_graph_is_the_pairwise_crossing_graph(self):
        for d in shuffled_diagrams(120, 60, 1):
            assert diagram_to_graph(d) == pairwise_crossing_graph(d)

    def test_value_and_certificate_match_the_quadratic_dp(self):
        for d in shuffled_diagrams(90, 150, 2):
            assert gamma_i_permutation(d) == quadratic_chain_dp(d), d
