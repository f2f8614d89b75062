import itertools
from dataclasses import replace

import pytest

from indom import CapacityError, Graph, GraphError, bits, verify_certificate
from indom.planar import Layering, bfs_layering, ptas_gamma_i, shifted_subgraph
from indom.exactexp import gamma_of_independent_set_fast
from indom.oracle import gamma_i_oracle
from indom.generators import cycle, grid, path, star
from tests.conftest import random_outerplanar


class TestLayering:
    def test_path_from_end(self):
        lay = bfs_layering(path(5), {0})
        assert lay.level == (0, 1, 2, 3, 4)
        assert lay.level_count == 5

    def test_grid_from_corner(self):
        lay = bfs_layering(grid(5, 5), {0})
        assert lay.level_count == 9
        for r in range(5):
            for c in range(5):
                assert lay.level[r * 5 + c] == r + c

    def test_star_two_levels(self):
        lay = bfs_layering(star(7), {0})
        assert lay.level_count == 2

    def test_edges_span_one_level(self):
        g = random_outerplanar(12, 3)
        lay = bfs_layering(g, {0})
        for u, v in g.edges():
            assert abs(lay.level[u] - lay.level[v]) <= 1

    def test_empty_roots_rejected(self):
        with pytest.raises(GraphError):
            bfs_layering(path(3), 0)

    def test_unreachable_rejected(self):
        g = Graph(3, [(0, 1)])
        with pytest.raises(GraphError):
            bfs_layering(g, {0})


class TestShiftedSubgraph:
    def test_large_k_keeps_everything(self):
        g = path(5)
        lay = bfs_layering(g, {0})
        piece, ids = shifted_subgraph(g, lay, 7, 7)
        assert piece == g and ids == list(range(5))

    def test_p5_alternating(self):
        g = path(5)
        lay = bfs_layering(g, {0})
        piece, ids = shifted_subgraph(g, lay, 2, 1)
        assert piece.n == 2 and piece.m == 0
        assert ids == [1, 3]

    def test_pieces_span_under_k_levels(self):
        g = grid(5, 5)
        lay = bfs_layering(g, {0})
        for ell in (1, 2, 3):
            piece, ids = shifted_subgraph(g, lay, 3, ell)
            from indom.graph import connected_components

            for comp in connected_components(piece):
                levels = {lay.level[ids[v]] for v in bits(comp)}
                assert max(levels) - min(levels) <= 1  # at most 2 consecutive bands


def _cutoff_corpus():
    out = [path(n) for n in (6, 10, 14, 20, 25)]
    out += [cycle(n) for n in (5, 9, 13, 20)]
    out += [grid(r, c) for r, c in ((3, 3), (4, 4), (4, 6), (5, 5), (6, 6))]
    out += [random_outerplanar(8 + s * 4, s) for s in range(4)]
    return out


def _solve_every_combination(g, options):
    """planar._best_combination without the cover test: every combination is
    re-dominated, with the running best as the cutoff."""
    from indom.planar import _COMBINATION_CAP

    if not options:
        return 0, 0, 0, 0, 0
    combos = 1
    for choice in options:
        combos *= len(choice)
    if combos > _COMBINATION_CAP:
        budget = _COMBINATION_CAP
        trimmed = []
        for choice in sorted(options, key=len, reverse=True):
            if budget // len(choice) >= 1 and budget > 1:
                trimmed.append(choice)
                budget //= len(choice)
            else:
                trimmed.append(choice[:1])
        options = trimmed
    best = None
    solved = 0
    for combo in itertools.product(*options):
        a_mask = 0
        for m in combo:
            a_mask |= m
        cutoff = -1 if best is None else best[0]
        value, witness, _ = gamma_of_independent_set_fast(g, a_mask, cutoff=cutoff)
        solved += 1
        if best is None or value > best[0]:
            best = (value, a_mask, witness)
    return (*best, solved, 0)


def _head_optimal_sets(part, value):
    """planar._optimal_sets without the cover test: every set is solved."""
    from indom.oracle import enumerate_maximal_independent_sets, gamma_of_set
    from indom.planar import _OPTIONS_PER_PIECE

    found = []
    for m in enumerate_maximal_independent_sets(part):
        if gamma_of_set(part, m)[0] == value:
            found.append(m)
            if len(found) >= _OPTIONS_PER_PIECE:
                break
    return found


def _solve_every_piece(g, epsilon):
    """planar.ptas_gamma_i's piece loop with no reuse: every occurrence of a
    piece is decomposed, solved and searched on its own."""
    import math

    from indom.graph import connected_components, induced_subgraph
    from indom.oracle import DominationCertificate
    from indom.planar import PtasResult, _best_combination
    from indom.treewidth import gamma_i_treewidth, heuristic_decomposition

    k = math.ceil(1 / epsilon)
    result = PtasResult(0, DominationCertificate(0, 0, 0), k)
    a_total = d_total = total = 0
    for comp in connected_components(g):
        comp_root = next(bits(comp))
        sub, ids = induced_subgraph(g, comp)
        layering = bfs_layering(sub, 1 << ids.index(comp_root))
        best = None
        for ell in range(1, min(k, layering.level_count + 1) + 1):
            piece_value = 0
            piece, piece_ids = shifted_subgraph(sub, layering, k, ell)
            options = []
            for piece_comp in connected_components(piece):
                part, part_ids = induced_subgraph(piece, piece_comp)
                value, cert = gamma_i_treewidth(part, heuristic_decomposition(part))
                piece_value += value
                lifted = []
                for m in _head_optimal_sets(part, value) or [cert.independent_set]:
                    mask = 0
                    for v in bits(m):
                        mask |= 1 << ids[piece_ids[part_ids[v]]]
                    lifted.append(mask)
                options.append(lifted)
                result.pieces_solved += 1
            certified, a_mask, witness, solved, settled = _best_combination(g, options)
            result.combinations_solved += solved
            result.combinations_settled += settled
            result.piece_values[(comp_root, ell)] = piece_value
            result.certified_values[(comp_root, ell)] = certified
            if best is None or certified > best[0]:
                best = (certified, ell, a_mask, witness)
        certified, ell, a_mask, witness = best
        total += certified
        a_total |= a_mask
        d_total |= witness
        result.shifts.append((comp_root, ell))
    result.value = total
    result.certificate = DominationCertificate(a_total, d_total, total)
    return result


def _three_copies(h):
    return Graph(3 * h.n, [(u + i * h.n, v + i * h.n) for i in range(3) for u, v in h.edges()])


class TestPtas:
    def corpus(self):
        out = [("path8", path(8)), ("path12", path(12)), ("cycle9", cycle(9))]
        out += [("grid3x3", grid(3, 3)), ("grid4x4", grid(4, 4))]
        out += [(f"outer{s}", random_outerplanar(11 + s, s)) for s in range(3)]
        # an oracle cross-check of the combination search on random inputs
        out += [(f"outer{s}", random_outerplanar(5 + s % 10, s)) for s in range(100, 140)]
        return out

    def test_refused_piece_names_its_root_and_shift(self):
        with pytest.raises(CapacityError) as info:
            ptas_gamma_i(grid(4, 4), 0.34, width_ceiling=0)
        assert str(info.value) == "piece (root 0, shift 1): decomposition width 1 exceeds ceiling 0"

    def test_empty_graph(self):
        res = ptas_gamma_i(Graph(0), 0.5)
        assert (res.value, res.k, res.shifts, res.piece_values) == (0, 2, [], {})
        assert verify_certificate(Graph(0), res.certificate)

    def test_guarantee_and_upper_bound(self):
        for name, g in self.corpus():
            oracle = gamma_i_oracle(g)[0]
            for k in (2, 3, 4):
                res = ptas_gamma_i(g, 1.0 / k)
                assert res.value >= (1 - 1 / k) * oracle - 1e-9, (name, k)
                assert res.value <= oracle, (name, k)
                assert verify_certificate(g, res.certificate)

    def test_exact_when_k_covers_all_levels(self):
        for g in (grid(2, 2), path(6), star(7), cycle(5)):
            oracle = gamma_i_oracle(g)[0]
            res = ptas_gamma_i(g, 0.01)
            assert res.value == oracle

    def test_each_distinct_shift_is_tried_once(self):
        # levels 0..2: shifts 1..3 delete one level each, and every later
        # shift deletes none, as shift 4 does; k = 10^9 must not loop 10^9 times
        g = path(3)
        res = ptas_gamma_i(g, 1e-9)
        assert res.value == gamma_i_oracle(g)[0]
        assert sorted(ell for _, ell in res.certified_values) == [1, 2, 3, 4]

    def test_piece_overshoot_is_logged_not_reported(self):
        # deleting the middle of a path strands endpoints; raw piece values
        # may exceed the true answer while the reported value never does
        g = path(8)
        oracle = gamma_i_oracle(g)[0]
        res = ptas_gamma_i(g, 1 / 4)
        raw = max(res.piece_values.values())
        assert res.value <= oracle
        assert raw >= res.value

    def test_value_is_max_over_shifts(self):
        g = grid(4, 5)
        res = ptas_gamma_i(g, 1 / 3)
        assert res.value == max(res.certified_values.values())

    def test_cutoff_keeps_every_shift_exact(self, monkeypatch):
        # each shift's certified value is the exact re-domination of the best
        # combination it tried, and the reported value that of the
        # certificate's independent set (what perfbench's check_output asserts)
        from indom import planar

        tried = []
        cut = []
        solve = planar.gamma_of_independent_set_fast

        def recording(g, a_mask, stats=None, cutoff=-1):
            tried[-1].append(a_mask)
            cut.append(cutoff >= 0)
            return solve(g, a_mask, stats, cutoff)

        combine = planar._best_combination

        def per_shift(g, options):
            tried.append([])
            return combine(g, options)

        monkeypatch.setattr(planar, "gamma_of_independent_set_fast", recording)
        monkeypatch.setattr(planar, "_best_combination", per_shift)
        corpus = _cutoff_corpus()
        shifts = 0
        for g in corpus:
            for k in (2, 3, 4):
                tried.clear()
                res = ptas_gamma_i(g, 1.0 / k)
                assert len(tried) == len(res.certified_values)
                for masks, certified in zip(tried, res.certified_values.values()):
                    exact = [gamma_of_independent_set_fast(g, a)[0] for a in masks]
                    assert certified == max(exact)
                    shifts += 1
                a_mask = res.certificate.independent_set
                assert res.value == gamma_of_independent_set_fast(g, a_mask)[0]
        assert shifts == sum((2, 3, 4)) * len(corpus)
        assert any(cut)

    def test_cover_test_keeps_the_result_of_solving_every_combination(self, monkeypatch):
        # the pool shapes of the ptas benchmark workload, and the cutoff corpus
        from indom import planar

        corpus = _cutoff_corpus()
        corpus += [grid(r, c) for r, c in ((6, 7), (6, 8), (6, 9), (7, 7), (7, 8))]
        corpus += [random_outerplanar(n, n) for n in range(20, 60, 4)]
        counts = {"combinations_solved": 0, "combinations_settled": 0}
        settled = 0
        for g in corpus:
            for k in (2, 3, 4):
                res = ptas_gamma_i(g, 1.0 / k)
                with monkeypatch.context() as patch:
                    patch.setattr(planar, "_best_combination", _solve_every_combination)
                    ref = ptas_gamma_i(g, 1.0 / k)
                assert replace(res, **counts) == replace(ref, **counts), (g.n, k)
                total = res.combinations_solved + res.combinations_settled
                assert total == ref.combinations_solved, (g.n, k)
                settled += res.combinations_settled
        assert settled > 0

    def test_piece_reuse_and_set_cover_test_keep_every_field(self):
        # larger grids are left out for time only: at k = 2 their single
        # combination is one exact solve of many seconds, the same on both sides
        corpus = [grid(r, c) for r in range(2, 11) for c in range(r, 11) if r * c <= 64]
        corpus += [random_outerplanar(n, n) for n in range(5, 60)]
        unions = [_three_copies(random_outerplanar(n, n)) for n in range(4, 28)]
        counts = {"pieces_solved": 0, "pieces_reused": 0, "sets_settled": 0}
        reused_in_unions = settled = 0
        for g in corpus + unions:
            for eps in (0.5, 0.34, 0.25):
                res = ptas_gamma_i(g, eps)
                ref = _solve_every_piece(g, eps)
                assert replace(res, **counts) == replace(ref, **counts), (g.n, eps)
                assert res.pieces_solved + res.pieces_reused == ref.pieces_solved
                if g in unions:
                    reused_in_unions += res.pieces_reused > 0
                settled += res.sets_settled
        assert reused_in_unions == 3 * len(unions)
        assert settled > 0

    def test_grid_16_keeps_its_result_with_few_oracle_calls(self, monkeypatch):
        from indom import planar

        calls = []
        solve = planar.gamma_of_set

        def counting(g, b):
            calls.append(b)
            return solve(g, b)

        monkeypatch.setattr(planar, "gamma_of_set", counting)
        res = ptas_gamma_i(grid(16, 16), 1 / 3)
        assert res.value == 36
        assert res.certificate.independent_set == int(
            "924949240000924949220004925149020024929148020124949140020924a491", 16)
        assert res.certificate.dominating_set == int(
            "924900000000924900020020920100020120900100020920800100024922", 16)
        assert (res.combinations_solved, res.combinations_settled) == (86, 362)
        # the plain N[D] cover test solved 146 of the same 448 combinations
        assert res.combinations_solved + res.combinations_settled == 448
        assert res.combinations_solved < 146
        assert res.piece_values == {(0, 1): 60, (0, 2): 61, (0, 3): 61}
        assert res.certified_values == {(0, 1): 35, (0, 2): 35, (0, 3): 36}
        assert 0 < len(calls) <= 700
        assert res.pieces_reused > 0 and res.sets_settled > 0

    def test_grid_18_keeps_its_result_with_few_oracle_calls(self, monkeypatch):
        from indom import planar

        calls = []
        solve = planar.gamma_of_set

        def counting(g, b):
            calls.append(b)
            return solve(g, b)

        monkeypatch.setattr(planar, "gamma_of_set", counting)
        res = ptas_gamma_i(grid(18, 18), 1 / 3)
        assert res.value == 47
        assert res.certificate.independent_set == int(
            "4924a49242492524929249124910000a49244924400029249124910000a4924492440002924912491",
            16)
        assert res.certificate.dominating_set == int(
            "124921249000014924800000000400029248000010000a49200000400029248000010000a4922", 16)
        assert res.piece_values == {(0, 1): 78, (0, 2): 78, (0, 3): 72}
        assert res.certified_values == {(0, 1): 42, (0, 2): 43, (0, 3): 47}
        assert 0 < len(calls) <= 1000

    def test_set_counting_test_keeps_every_optimal_set_in_order(self):
        # every distinct piece the ptas meets on small grids and outerplanar
        # graphs: the skipped sets never include an optimal one
        from indom.graph import connected_components, induced_subgraph
        from indom.planar import _optimal_sets
        from indom.treewidth import gamma_i_treewidth, heuristic_decomposition

        corpus = [grid(r, c) for r in range(2, 9) for c in range(r, 9)]
        corpus += [random_outerplanar(n, n) for n in range(5, 60)]
        parts = {}
        for g in corpus:
            layering = bfs_layering(g, 1)
            for k in (2, 3, 4):
                for ell in range(1, min(k, layering.level_count + 1) + 1):
                    piece, _ = shifted_subgraph(g, layering, k, ell)
                    for comp in connected_components(piece):
                        parts[induced_subgraph(piece, comp)[0]] = None
        settled = 0
        for part in parts:
            value = gamma_i_treewidth(part, heuristic_decomposition(part))[0]
            sets, skipped = _optimal_sets(part, value)
            assert sets
            assert sets == _head_optimal_sets(part, value), (part.n, value)
            settled += skipped
        assert settled > 0

    def test_shift_that_deletes_a_whole_component(self):
        # at k = 2 shift 1 deletes level 0, which is all of the isolated
        # vertex 2, so that shift has no piece and no combination
        g = Graph(3, [(0, 1)])
        result = ptas_gamma_i(g, 0.5)
        assert result.value == 2 == gamma_i_oracle(g)[0]
        assert verify_certificate(g, result.certificate)
        assert result.certified_values[(2, 1)] == 0

    def test_epsilon_with_infinite_inverse_rejected(self):
        with pytest.raises(GraphError, match="epsilon"):
            ptas_gamma_i(path(3), 1e-320)

    def test_disconnected_input(self):
        g = Graph(7, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 6)])
        res = ptas_gamma_i(g, 1 / 3)
        oracle = gamma_i_oracle(g)[0]
        assert res.value <= oracle
        assert res.value >= (2 / 3) * oracle - 1e-9
        assert len(res.shifts) == 2

    def test_grid_piece_widths_within_band_bound(self):
        from indom.graph import connected_components, induced_subgraph
        from indom.treewidth import heuristic_decomposition

        g = grid(6, 6)
        lay = bfs_layering(g, {0})
        for k in (2, 3, 4):
            for ell in range(1, k + 1):
                piece, _ = shifted_subgraph(g, lay, k, ell)
                for comp in connected_components(piece):
                    part, _ = induced_subgraph(piece, comp)
                    td = heuristic_decomposition(part)
                    assert td.width <= 3 * k - 1
