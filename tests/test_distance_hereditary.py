import gc
import itertools
import random
from collections import namedtuple
from operator import attrgetter

import pytest

from indom import (
    Graph,
    GraphError,
    build_graph,
    bits,
    is_independent,
    verify_certificate,
)
from indom import distance_hereditary
from indom.graph import undominated
from indom.distance_hereditary import (
    INF,
    JOIN,
    UNION,
    DHFailure,
    DHStats,
    PruneOp,
    PruningSequence,
    build_dh_decomposition,
    edge_tables,
    gamma_i_dh,
    parse_sequence,
    recognize_dh,
    replay_sequence,
    serialize_sequence,
)
from indom.oracle import DominationCertificate, gamma_i_oracle
from indom.cograph import ClassMismatchError
from indom.generators import cycle, gnp, path, random_cograph, random_dh
from tests.conftest import assert_rank_one, cover_of, subsets_of, twinset_of, valid_ops


class TestRecognition:
    def test_cographs_are_distance_hereditary(self):
        for seed in range(20):
            made = random_cograph(5 + seed % 10, seed)
            seq = recognize_dh(made.graph)
            assert isinstance(seq, PruningSequence)
            assert replay_sequence(seq) == made.graph

    def test_empty_graph(self):
        stats = DHStats()
        seq = recognize_dh(Graph(0), stats)
        assert seq == PruningSequence((), 0) and replay_sequence(seq) == Graph(0)
        assert stats == DHStats()
        decomp = build_dh_decomposition(Graph(0), seq)
        assert decomp.nodes == () and decomp.n == 0
        assert gamma_i_dh(Graph(0), decomp, stats)[0] == 0

    def test_c5_rejected(self):
        result = recognize_dh(cycle(5))
        assert isinstance(result, DHFailure)

    def test_generated_instances_replay(self):
        for seed in range(20):
            n = [12, 60, 200, 500][seed % 4]
            made = random_dh(n, seed)
            seq = recognize_dh(made.graph)
            assert isinstance(seq, PruningSequence)
            assert replay_sequence(seq) == made.graph


def _balls(g, x, within):
    """Balls of radius 0, 1, ... around x in the subgraph induced by within,
    up to x's whole component there."""
    reach = frontier = 1 << x
    balls = [reach]
    while frontier:
        grown = 0
        for y in bits(frontier):
            grown |= g.row[y]
        frontier = grown & within & ~reach
        reach |= frontier
        balls.append(reach)
    return balls


def is_dh_by_definition(g):
    """Every connected induced subgraph keeps all distances of g: from each
    of its vertices, its balls are g's balls cut down to it."""
    whole = [_balls(g, x, g.full_mask) for x in range(g.n)]
    for s in range(1, 1 << g.n):
        for x in bits(s):
            balls = _balls(g, x, s)
            if balls[-1] != s:
                break  # not connected: its components are other subsets
            outer = whole[x]
            for k, ball in enumerate(balls):
                if ball != outer[min(k, len(outer) - 1)] & s:
                    return False
    return True


def shuffled(g, seed):
    """g with its vertex ids permuted at random."""
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


class TestRecognitionOracle:
    def test_accepts_exactly_the_distance_hereditary_graphs(self):
        accepted = 0
        for seed in range(3000):
            n = 2 + seed % 8
            g = gnp(n, 0.05 + 0.9 * (seed * 37 % 100) / 99, seed)
            result = recognize_dh(g)
            assert isinstance(result, PruningSequence) == is_dh_by_definition(g), seed
            if isinstance(result, PruningSequence):
                accepted += 1
                build_dh_decomposition(g, result)
                assert replay_sequence(result) == g
            else:
                assert result.alive >> result.stuck_vertex & 1
        # both answers are well represented
        assert 300 < accepted < 2700

    def test_recognition_route_matches_oracle(self):
        for seed in range(300):
            g = shuffled(random_dh(4 + seed % 11, seed).graph, seed)
            value, cert = gamma_i_dh(g)
            assert value == gamma_i_oracle(g)[0]
            assert verify_certificate(g, cert)

    def test_stats_count_the_eliminations(self):
        g = shuffled(random_dh(40, 3).graph, 3)
        stats = DHStats()
        seq = recognize_dh(g, stats)
        kinds = [op.kind for op in seq.ops]
        assert stats.pendants == kinds.count("pendant")
        assert stats.true_twins == kinds.count("ttwin")
        assert stats.false_twins == kinds.count("ftwin")
        assert stats.pendants + stats.true_twins + stats.false_twins == g.n - 1
        assert stats.max_items == 0
        solved = DHStats()
        assert gamma_i_dh(g, stats=solved) == gamma_i_dh(g)
        assert (solved.pendants, solved.true_twins, solved.false_twins) == \
            (stats.pendants, stats.true_twins, stats.false_twins)
        assert solved.max_items > 0


class TestDecomposition:
    def test_k2(self):
        g = build_graph(2, [(0, 1)])
        seq = recognize_dh(g)
        d = build_dh_decomposition(g, seq)
        root = d.root
        assert root.label == JOIN
        assert root.left.q == 1 << root.left.vertex
        assert root.right.q == 1 << root.right.vertex

    def test_two_isolated(self):
        g = Graph(2)
        d = build_dh_decomposition(g, recognize_dh(g))
        assert d.root.label == UNION
        assert d.root.q == 0

    def test_twinset_definition_holds(self):
        for seed in range(15):
            made = random_dh(12, seed)
            g = made.graph
            d = build_dh_decomposition(g, made.artifact)
            for node in d.postorder():
                assert node.q == twinset_of(g, node.w)

    def test_cross_adjacency_is_twinset_product(self):
        for seed in range(15):
            made = random_dh(12, seed)
            g = made.graph
            assert_rank_one(g, build_dh_decomposition(g, made.artifact))

    def test_rejects_inconsistent_sequence(self):
        g = path(4)
        bad = PruningSequence(
            (PruneOp("pendant", 3, 0), PruneOp("pendant", 2, 1), PruneOp("pendant", 1, 0)),
            4,
        )
        with pytest.raises(GraphError, match="operation 0"):
            build_dh_decomposition(g, bad)

    @pytest.mark.parametrize("op", [PruneOp("pendant", -1, 0), PruneOp("pendant", 1, -1)])
    def test_rejects_negative_vertex(self, op):
        g = build_graph(2, [(0, 1)])
        with pytest.raises(GraphError, match=r"operation 0 \(pendant -?1 -?[01]\): vertex not"):
            build_dh_decomposition(g, PruningSequence((op,), 2))


class _RefNode:
    def __init__(self, vertex=None):
        self.left = self.right = self.parent = None
        self.vertex = vertex
        self.w = self.q = 0
        self.label = self.tag = None


def reference_tree(g, seq):
    """Root of the tree built by a second route: each operation's node
    spliced in, in reverse order, where u's leaf hangs; then every node
    derived from g member by member: its twinset, its label from the cross
    edges (rejecting a cut that is not rank one) and the tag of which child
    twinsets make up its own."""
    leaves = [_RefNode(v) for v in range(g.n)]
    root = leaves[seq.final_vertex if seq.ops else 0]
    for op in reversed(seq.ops):
        u_leaf = leaves[op.u]
        p = _RefNode()
        p.left, p.right, p.parent = u_leaf, leaves[op.v], u_leaf.parent
        if p.parent is None:
            root = p
        elif p.parent.left is u_leaf:
            p.parent.left = p
        else:
            p.parent.right = p
        u_leaf.parent = leaves[op.v].parent = p
    order, stack = [], [root]
    while stack:
        node = stack.pop()
        order.append(node)
        if node.vertex is None:
            stack += [node.left, node.right]
    for node in reversed(order):
        if node.vertex is not None:
            node.w = 1 << node.vertex
            node.q = node.w if g.row[node.vertex] else 0
            continue
        node.w = node.left.w | node.right.w
        node.q = twinset_of(g, node.w) & (node.left.q | node.right.q)
        m1, m2, q1, q2 = node.left.w, node.right.w, node.left.q, node.right.q
        if m2.bit_count() < m1.bit_count():
            m1, m2, q1, q2 = m2, m1, q2, q1
        crossing = any(g.row[v] & m2 for v in bits(m1))
        node.label = JOIN if crossing else UNION
        for v in bits(m1):
            if g.row[v] & m2 != (q2 if crossing and q1 >> v & 1 else 0):
                raise GraphError(f"cut at vertex {v} is not rank one")
        q, q1, q2 = node.q, node.left.q, node.right.q
        if q == 0:
            node.tag = "empty"
        elif q1 and q2 and q == q1 | q2:
            node.tag = "both"
        elif q == q1:
            node.tag = "left"
        elif q == q2:
            node.tag = "right"
        elif q == q1 | q2:
            node.tag = "both"
        else:
            raise GraphError("twinset is not composed of child twinsets")
    return root


TAGS = {(False, False): "empty", (True, False): "left", (False, True): "right",
        (True, True): "both"}


def assert_matches_reference(g, seq):
    """The one-pass tree equals the reference node by node, and its node
    list puts every node after its children and the root last."""
    d = build_dh_decomposition(g, seq)
    pairs = [(d.root, reference_tree(g, seq))]
    matched = 0
    while pairs:
        node, ref = pairs.pop()
        tag = None if node.is_leaf else TAGS[node.l_in, node.r_in]
        assert (node.vertex, node.w, node.q, node.label, tag) == \
            (ref.vertex, ref.w, ref.q, ref.label, ref.tag)
        matched += 1
        if not node.is_leaf:
            pairs += [(node.left, ref.left), (node.right, ref.right)]
    made = set()
    for node in d.postorder():
        assert node.is_leaf or {id(node.left), id(node.right)} <= made
        made.add(id(node))
    assert matched == len(made) == len(d.postorder()) == 2 * g.n - 1
    assert d.postorder()[-1] is d.root


def random_elimination_order(g, rng):
    """A pruning sequence taking a uniformly random valid operation at each
    step, or None when the graph is not distance-hereditary."""
    alive = g.full_mask
    ops = []
    while alive & (alive - 1):
        choices = valid_ops(g, alive)
        if not choices:
            return None
        op = rng.choice(choices)
        ops.append(op)
        alive &= ~(1 << op.v)
    return PruningSequence(tuple(ops), g.n)


class TestOnePassTree:
    def test_matches_reference_on_generated_sequences(self):
        for seed in range(1500):
            made = random_dh(1 + seed % 40, seed)
            assert_matches_reference(made.graph, made.artifact)
            g = shuffled(made.graph, seed)
            assert_matches_reference(g, recognize_dh(g))

    def test_matches_reference_on_random_elimination_orders(self):
        rng = random.Random(11)
        orders = 0
        while orders < 10_000:
            n = rng.randint(2, 9)
            g = gnp(n, rng.uniform(0.1, 0.9), rng.randrange(10**9))
            seq = random_elimination_order(g, rng)
            if seq is not None:
                assert_matches_reference(g, seq)
                orders += 1

    def test_sequence_must_end_at_one_vertex(self):
        g = path(3)
        short = PruningSequence((PruneOp("pendant", 0, 1),), 3)
        with pytest.raises(GraphError, match="single vertex"):
            build_dh_decomposition(g, short)
        with pytest.raises(GraphError, match="single vertex"):
            build_dh_decomposition(Graph(2), PruningSequence((), 2))


class TestGammaIDH:
    def test_path7(self):
        g = path(7)
        value, cert = gamma_i_dh(g)
        assert value == 3 == gamma_i_oracle(g)[0]
        assert verify_certificate(g, cert)

    def test_agrees_with_cograph_solver(self):
        from indom.cograph import gamma_i_cograph

        for seed in range(60):
            made = random_cograph(4 + seed % 11, seed)
            assert gamma_i_dh(made.graph)[0] == gamma_i_cograph(made.graph)[0]

    def test_oracle_equivalence(self):
        for seed in range(120):
            made = random_dh(4 + seed % 11, seed)
            d = build_dh_decomposition(made.graph, made.artifact)
            value, cert = gamma_i_dh(made.graph, d)
            assert value == gamma_i_oracle(made.graph)[0]
            assert verify_certificate(made.graph, cert)

    def test_deterministic_certificates(self):
        made = random_dh(14, 9)
        d = build_dh_decomposition(made.graph, made.artifact)
        assert gamma_i_dh(made.graph, d) == gamma_i_dh(made.graph, d)

    def test_rejects_non_dh(self):
        with pytest.raises(ClassMismatchError):
            gamma_i_dh(cycle(5))

    def test_mirrored_decompositions_agree(self):
        # construction anchors the kept vertex on the left, so flipped trees
        # exercise right-hand twinsets staying in their parents'
        for seed in range(60):
            made = random_dh(4 + seed % 10, seed)
            d = build_dh_decomposition(made.graph, made.artifact)
            rng = random.Random(seed)
            flipped = 0
            for node in d.postorder():
                if not node.is_leaf and rng.random() < 0.7:
                    node.left, node.right = node.right, node.left
                    node.l_in, node.r_in = node.r_in, node.l_in
                    flipped += 1
            assert flipped > 0
            value, cert = gamma_i_dh(made.graph, d)
            assert value == gamma_i_oracle(made.graph)[0]
            assert verify_certificate(made.graph, cert)

    def test_decomposition_of_another_vertex_count_is_refused(self):
        # unchecked, path(5)'s tree answers 2 on path(3), whose value is 1,
        # naming vertex 3, and path(3)'s tree answers 1 on path(5)
        for g, other in ((path(3), path(5)), (path(5), path(3)), (Graph(0), path(2))):
            d = build_dh_decomposition(other, recognize_dh(other))
            with pytest.raises(GraphError, match=f"decomposition for n={other.n} does not "
                                                 f"match graph n={g.n}"):
                gamma_i_dh(g, d)

    def test_flat_count_table_counterexample(self):
        # gamma-i is 3 here, but every maximum-size independent set is
        # dominated by one vertex, so a table keyed only on sizes reads 1
        g = build_graph(8, [(4, 0), (4, 3), (5, 1), (6, 2), (7, 0), (7, 1), (7, 2), (7, 3)])
        value, cert = gamma_i_dh(g)
        assert value == 3 == gamma_i_oracle(g)[0]
        assert verify_certificate(g, cert)


def brute_force_edge_table(g, node):
    """Exhaustive (A, D) enumeration over an edge's subtree part."""
    stride = g.n + 1
    members = list(bits(node.w))
    flags = {}
    for amask in subsets_of(node.w):
        if not is_independent(g, amask):
            continue
        for dmask in subsets_of(node.w):
            cover = cover_of(g, dmask)
            if (amask & ~node.q) & ~cover:
                continue
            dq_cover = cover_of(g, dmask & node.q)
            key = (
                int(amask & node.q != 0),
                int(amask & node.q & ~cover != 0),
                int(dmask & node.q != 0),
                int(amask & ~node.q & dq_cover != 0),
            )
            bit = 1 << (amask.bit_count() * stride + dmask.bit_count())
            flags[key] = flags.get(key, 0) | bit
    return flags


def brute_force_value_items(g, node):
    """Pareto-maximal cost vectors over all A-configurations of an edge."""
    per_i = {}
    for amask in subsets_of(node.w):
        if not is_independent(g, amask):
            continue
        best = [INF] * 4
        for dmask in subsets_of(node.w):
            cover = cover_of(g, dmask)
            if (amask & ~node.q) & ~cover:
                continue
            size = dmask.bit_count()
            fully = amask & ~cover == 0
            in_q = dmask & node.q != 0
            for u in (0, 1):
                if u == 0 and not fully:
                    continue
                for d in (0, 1):
                    if d and not in_q:
                        continue
                    slot = u * 2 + d
                    if size < best[slot]:
                        best[slot] = size
        per_i.setdefault(bool(amask & node.q), set()).add(tuple(best))
    out = {}
    for i_flag, cvecs in per_i.items():
        out[i_flag] = {
            c
            for c in cvecs
            if not any(o != c and all(a >= b for a, b in zip(o, c)) for o in cvecs)
        }
    return out


# an item spelled out: the twinset flag, the cost vector, A and the D per slot
Item = namedtuple("Item", "i c a d")


def expand(items):
    """The Items of a node's (offset, state, masks)."""
    offset, state, masks = items
    return [Item(i, tuple(x + offset if x < INF else INF for x in c), a, d)
            for (i, c), (a, d) in zip(state, masks)]


def combine(node, items1, items2):
    """A node's (offset, state, masks) from its children's, by one combine of
    their states and its recipe carried onto their masks."""
    (o1, s1, m1), (o2, s2, m2) = items1, items2
    state, shift, recipe = distance_hereditary._combine_states(node, s1, s2)
    return o1 + o2 + shift, state, distance_hereditary._carry(recipe, m1, m2)


def _combine_by_search(node, items1, items2):
    """The node combine as a search over all 16 child assignments per slot,
    the first strict minimum kept with the union of its child slots' D."""
    join = node.label == JOIN
    l_in, r_in = node.l_in, node.r_in
    out = []
    for it1 in items1:
        for it2 in items2:
            if join and it1.i and it2.i:
                continue
            c = [INF] * 4
            dom = [0] * 4
            for u in (0, 1):
                for d in (0, 1):
                    for u1, d1, u2, d2 in itertools.product((0, 1), repeat=4):
                        if u1 and not ((join and d2) or (l_in and u)):
                            continue
                        if u2 and not ((join and d1) or (r_in and u)):
                            continue
                        if d and not ((d1 and l_in) or (d2 and r_in)):
                            continue
                        k1, k2 = u1 * 2 + d1, u2 * 2 + d2
                        cost = it1.c[k1] + it2.c[k2]
                        if cost < c[u * 2 + d]:
                            c[u * 2 + d] = cost
                            dom[u * 2 + d] = it1.d[k1] | it2.d[k2]
            i = (it1.i and l_in) or (it2.i and r_in)
            out.append(Item(i, tuple(c), it1.a | it2.a, tuple(dom)))
    return undominated(out, attrgetter("i"), attrgetter("c"))


def search_dp(decomp):
    """(value, certificate, max_items) by a DP of spelled-out items on
    _combine_by_search, with no states and no memo."""
    table = {}
    max_items = 0
    for node in decomp.postorder():
        if node.is_leaf:
            items = expand(distance_hereditary._leaf_items(node))
        else:
            items = _combine_by_search(node, table.pop(id(node.left)), table.pop(id(node.right)))
        table[id(node)] = items
        max_items = max(max_items, len(items))
    best = max(table[id(decomp.root)], key=lambda it: it.c[0])
    return best.c[0], DominationCertificate(best.a, best.d[0], best.c[0]), max_items


def edge_value_items(g, decomp):
    """Per-edge value items (twinset-hit flag, |A|, cost vector): the
    Pareto-maximal cost vectors over each edge's A-configurations."""
    table = {}
    out = {}
    for node in decomp.postorder():
        if node.is_leaf:
            table[id(node)] = distance_hereditary._leaf_items(node)
        else:
            table[id(node)] = combine(node, table[id(node.left)], table[id(node.right)])
        out[id(node)] = [(it.i, it.a, it.c) for it in expand(table[id(node)])]
    return out


class TestCombineTable:
    def test_items_and_choices_match_the_search(self):
        for seed in range(40):
            made = random_dh(6 + seed, seed)
            g = made.graph
            d = build_dh_decomposition(g, made.artifact)
            items = {}
            for node in d.postorder():
                if node.is_leaf:
                    got = distance_hereditary._leaf_items(node)
                else:
                    kids = items[id(node.left)], items[id(node.right)]
                    got = combine(node, *kids)
                    assert expand(got) == _combine_by_search(node, *map(expand, kids))
                # a state is its items' costs less their least one
                assert min(min(c) for _, c in got[1]) == 0
                items[id(node)] = got

    def test_certificates_match_the_search(self):
        for seed in range(40):
            made = random_dh(6 + seed, seed)
            d = build_dh_decomposition(made.graph, made.artifact)
            stats = DHStats()
            value, cert = gamma_i_dh(made.graph, d, stats)
            assert (value, cert, stats.max_items) == search_dp(d)

    @pytest.mark.parametrize("join, l_in, r_in", itertools.product((False, True), repeat=3))
    def test_legal_pairs_keep_the_three_clause_rule(self, join, l_in, r_in):
        # the cut rule as three clauses: a child defers its own domination
        # only to the other child's d across a join or to the parent's
        # deferral, and the parent's d needs a child d inside the twinset
        want = tuple(
            tuple(
                (u1 * 2 + d1, u2 * 2 + d2)
                for u1, d1, u2, d2 in itertools.product((0, 1), repeat=4)
                if (not u1 or (join and d2) or (l_in and u))
                and (not u2 or (join and d1) or (r_in and u))
                and (not d or (d1 and l_in) or (d2 and r_in))
            )
            for u in (0, 1) for d in (0, 1)
        )
        assert distance_hereditary._LEGAL[join, l_in, r_in] == want


class _ProvItem:
    """An item of the design that walks its certificate back down the tree:
    |A| and a link to the two child items and each slot's child slots."""

    __slots__ = ("i", "a", "c", "prov")

    def __init__(self, i, a, c, prov):
        self.i = i
        self.a = a
        self.c = c
        self.prov = prov


def _provenance_leaf_items(node):
    v = node.vertex
    if node.q:
        items = [_ProvItem(False, 0, (0, 1, 0, 1), ("leaf", v, False)),
                 _ProvItem(True, 1, (1, 1, 0, 1), ("leaf", v, False))]
    else:
        items = [_ProvItem(False, 0, (0, INF, 0, INF), ("leaf", v, True)),
                 _ProvItem(False, 1, (1, INF, 1, INF), ("leaf", v, True))]
    return undominated(items, attrgetter("i"), attrgetter("c"))


def _provenance_combine(node, items1, items2):
    join = node.label == JOIN
    l_in, r_in = node.l_in, node.r_in
    legal = distance_hereditary._LEGAL[join, l_in, r_in]
    out = []
    for it1 in items1:
        for it2 in items2:
            if join and it1.i and it2.i:
                continue
            c, picks = [], []
            for slot in legal:
                best, pick = INF, None
                for k1, k2 in slot:
                    if it1.c[k1] + it2.c[k2] < best:
                        best, pick = it1.c[k1] + it2.c[k2], (k1, k2)
                c.append(best)
                picks.append(pick)
            i = (it1.i and l_in) or (it2.i and r_in)
            out.append(_ProvItem(i, it1.a + it2.a, tuple(c), ("comb", it1, it2, picks)))
    return undominated(out, attrgetter("i"), attrgetter("c"))


def _provenance_root_item(decomp):
    table = {}
    for node in decomp.postorder():
        if node.is_leaf:
            table[id(node)] = _provenance_leaf_items(node)
        else:
            table[id(node)] = _provenance_combine(
                node, table.pop(id(node.left)), table.pop(id(node.right)))
    return max(table[id(decomp.root)], key=lambda it: it.c[0])


def _walk_certificate(root_item):
    """(A, D) of root_item's slot 0, collected at the leaves its links reach."""
    a_mask = d_mask = 0
    stack = [(root_item, 0)]
    while stack:
        item, slot = stack.pop()
        u, d = slot >> 1, slot & 1
        if item.prov[0] == "leaf":
            _, v, isolated = item.prov
            if item.a:
                a_mask |= 1 << v
            if d == 1 or (item.a and (u == 0 or isolated)):
                d_mask |= 1 << v
        else:
            _, it1, it2, picks = item.prov
            k1, k2 = picks[slot]
            stack.append((it1, k1))
            stack.append((it2, k2))
    return a_mask, d_mask


def _items_reachable(obj, kind):
    """Items of class kind reachable from obj through its fields and plain
    containers."""
    found, seen, stack = [], set(), gc.get_referents(obj)
    while stack:
        ref = stack.pop()
        if id(ref) in seen:
            continue
        seen.add(id(ref))
        if isinstance(ref, kind):
            found.append(ref)
        elif isinstance(ref, (tuple, list, dict)):
            stack.extend(gc.get_referents(ref))
    return found


def _carried_flat(entry):
    """Whether a carried item is (A, (D0, D1, D2, D3)) of plain ints."""
    a, dom = entry
    return type(a) is int and type(dom) is tuple and len(dom) == 4 and \
        all(type(x) is int for x in dom)


class TestCarriedCertificates:
    def test_same_certificates_as_the_walk_back_down_the_tree(self):
        # the criterion-4 corpus and cographs (whose isolated vertices keep
        # one leaf item), each through its generator's sequence and through
        # recognition
        compared = 0
        for seed in range(300):
            for made in (random_dh(4 + seed % 11, seed), random_cograph(1 + seed % 14, seed)):
                for seq in (made.artifact, recognize_dh(made.graph)):
                    if not isinstance(seq, PruningSequence):
                        continue  # a cotree
                    d = build_dh_decomposition(made.graph, seq)
                    if d.root.is_leaf:
                        continue
                    best = _provenance_root_item(d)
                    a_mask, d_mask = _walk_certificate(best)
                    want = best.c[0], DominationCertificate(a_mask, d_mask, best.c[0])
                    assert gamma_i_dh(made.graph, d) == want
                    compared += 1
        assert compared > 850

    def test_no_item_refers_to_another(self):
        # a carried item is its A and its four D, all ints, so it can hold no
        # other item; a recipe names child items and slots by index
        leaf = (0, (0, 1, 0, 1))
        assert _carried_flat(leaf) and not _carried_flat((0, (leaf,) * 4))
        for seed in range(10):
            made = random_dh(6 + seed, seed)
            d = build_dh_decomposition(made.graph, made.artifact)
            items = {}
            for node in d.postorder():
                if node.is_leaf:
                    items[id(node)] = distance_hereditary._leaf_items(node)
                else:
                    kids = items[id(node.left)], items[id(node.right)]
                    _, _, recipe = distance_hereditary._combine_states(
                        node, kids[0][1], kids[1][1])
                    for j1, j2, picks in recipe:
                        indices = [j1, j2, *itertools.chain(*filter(None, picks))]
                        assert all(type(j) is int for j in indices)
                    items[id(node)] = combine(node, *kids)
                assert all(map(_carried_flat, items[id(node)][2]))
            # an item of the walked design refers to its children
            assert _items_reachable(_provenance_root_item(d), _ProvItem) != []


    def test_leaves_made_at_their_parent_keep_value_certificate_and_stats(self,
                                                                         monkeypatch):
        def every_leaf_first(decomp, stats):
            # a memo keyed by the states themselves, not by interned ids
            states, memo, table = set(), {}, {}
            for node in decomp.postorder():
                if node.is_leaf:
                    items = distance_hereditary._leaf_items(node)
                else:
                    (o1, s1, m1), (o2, s2, m2) = table.pop(id(node.left)), table.pop(id(node.right))
                    key = node.label, node.l_in, node.r_in, s1, s2
                    if key not in memo:
                        memo[key] = distance_hereditary._combine_states(node, s1, s2)
                    state, shift, recipe = memo[key]
                    items = o1 + o2 + shift, state, distance_hereditary._carry(recipe, m1, m2)
                states.add(items[1])
                table[id(node)] = items
                stats.max_items = max(stats.max_items, len(items[2]))
            stats.states += len(states)
            stats.combines += len(memo)
            return table[id(decomp.root)]

        def solve_all():
            out = []
            for n in range(1, 61):
                for made in (random_dh(n, n), random_cograph(n, n)):
                    stats = DHStats()
                    out.append((gamma_i_dh(made.graph, None, stats), stats))
            return out

        # three of these graphs keep one item at every inner node and two at
        # a leaf, so max_items must count the leaves
        got = solve_all()
        monkeypatch.setattr(distance_hereditary, "_value_items", every_leaf_first)
        assert got == solve_all()


class TestCallOrder:
    def test_solves_keep_nothing_between_calls(self):
        # a batch solved forwards and backwards in one process gives each
        # graph what its own solve gave, stats included, and the DP of
        # spelled-out items agrees beyond the oracle's reach
        batch = [made.graph for n in (30, 80, 150, 220, 300) for seed in (0, 1)
                 for made in (random_dh(n, seed), random_cograph(n, seed))]

        def solve(g):
            stats = DHStats()
            return gamma_i_dh(g, None, stats), stats

        alone = []
        for g in batch:
            (value, cert), stats = got = solve(g)
            d = build_dh_decomposition(g, recognize_dh(g))
            assert (value, cert, stats.max_items) == search_dp(d)
            assert verify_certificate(g, cert)
            assert 0 < stats.combines < g.n and 0 < stats.states <= stats.combines + 2
            alone.append(got)
        forwards = [solve(g) for g in batch]
        backwards = [solve(g) for g in reversed(batch)][::-1]
        assert forwards == alone and backwards == alone


class TestEdgeTables:
    def test_feasibility_tables_match_brute_force(self):
        for seed in range(20):
            made = random_dh(4 + seed % 5, seed)
            g = made.graph
            d = build_dh_decomposition(g, made.artifact)
            tables = edge_tables(g, d)
            for node in d.postorder():
                got = {k: v for k, v in tables[id(node)].flags.items() if v}
                assert got == brute_force_edge_table(g, node)

    def test_value_items_match_brute_force(self):
        for seed in range(20):
            made = random_dh(4 + seed % 5, seed)
            g = made.graph
            d = build_dh_decomposition(g, made.artifact)
            per_edge = edge_value_items(g, d)
            for node in d.postorder():
                got = {}
                for i, _a, c in per_edge[id(node)]:
                    got.setdefault(bool(i), set()).add(c)
                assert got == brute_force_value_items(g, node)

    def test_profile_view(self):
        made = random_dh(8, 3)
        g = made.graph
        d = build_dh_decomposition(g, made.artifact)
        tables = edge_tables(g, d)
        root = tables[id(d.root)]
        # at the root the twinset is empty: nothing undominated, no D in Q
        for (i, u, dd, x), mask in root.flags.items():
            if mask:
                assert (i, u, dd, x) == (0, 0, 0, 0)
        assert root.feasible(0, 0, (0, 0, 0))


class TestSequenceFormat:
    def test_round_trip(self):
        for seed in range(10):
            made = random_dh(9, seed)
            text = serialize_sequence(made.artifact)
            back = parse_sequence(text)
            assert replay_sequence(back) == made.graph

    def test_rejects_bad_ids(self):
        with pytest.raises(GraphError):
            parse_sequence("pendant 2 5\n")
