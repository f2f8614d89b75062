import itertools

import pytest

from indom import (
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
    gamma_of_ordered_set,
    gamma_sets,
    parse_diagram,
    serialize_diagram,
)
from indom.oracle import gamma_i_oracle, gamma_of_set
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
        value, cert = gamma_i_permutation(identity_diagram(6))
        assert value == 6

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
            assert gamma_i_permutation(d)[0] == gamma_i_permutation(d.mirror())[0]


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
        d = random_diagram(10, 1)
        g = diagram_to_graph(d)
        for msk in range(1, 1 << 10, 37):
            if is_independent(g, msk):
                assert gamma_of_ordered_set(d, g, msk) == gamma_of_set(g, msk)[0]
