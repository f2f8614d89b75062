"""The gamma-i ladder as a library call: every refusal reason, the side
artifacts' checks, the empty graph and an oracle cross-check per class."""

import pytest

from indom import Graph, GraphError, dispatch, treewidth, verify_certificate
from indom.cograph import ClassMismatchError, P4Witness, build_cotree
from indom.dispatch import ALGORITHMS, gamma_i
from indom.distance_hereditary import DHFailure
from indom.exactexp import gamma_i_exact
from indom.generators import (cycle, gnp, grid, path, random_chordal, random_cograph, random_dh,
                              random_permutation)
from indom.oracle import gamma_i_oracle
from indom.permutation import PermutationDiagram
from indom.treewidth import (CapacityError, TreeDecomposition, choose_decomposition,
                             heuristic_decomposition)


class TestRefusals:
    def test_p4_witness(self):
        with pytest.raises(ClassMismatchError, match="induced path") as info:
            gamma_i(path(4), "cograph")
        assert info.value.witness == P4Witness((0, 1, 2, 3))

    def test_dh_stuck_vertex(self):
        with pytest.raises(ClassMismatchError, match="stuck at vertex 0") as info:
            gamma_i(cycle(5), "dh")
        assert isinstance(info.value.witness, DHFailure)
        assert info.value.witness.stuck_vertex == 0

    def test_permutation_without_diagram(self):
        with pytest.raises(GraphError, match="needs --diagram"):
            gamma_i(path(3), "permutation")

    def test_width_ceiling(self):
        with pytest.raises(CapacityError, match="width 3 exceeds ceiling 1"):
            gamma_i(grid(3, 3), "treewidth", width_ceiling=1)
        algorithm, value, _, _ = gamma_i(grid(3, 3), width_ceiling=1)
        assert (algorithm, value) == ("exact", gamma_i_oracle(grid(3, 3))[0])

    def test_table_budget(self, monkeypatch):
        monkeypatch.setattr(treewidth, "TABLE_BUDGET", 8)
        with pytest.raises(CapacityError, match="budget of 8"):
            gamma_i(grid(3, 3), "treewidth")
        with pytest.raises(CapacityError, match="ceiling 4; treewidth solver: .*budget of 8"):
            gamma_i(grid(3, 3), exact_ceiling=4)
        assert gamma_i(grid(3, 3))[0] == "exact"

    def test_exact_ceiling_chained_with_the_treewidth_refusal(self):
        message = ("n=7 above the exact-solver ceiling 3; "
                   "treewidth solver: decomposition width 2 exceeds ceiling 1")
        with pytest.raises(CapacityError) as info:
            gamma_i(cycle(7), width_ceiling=1, exact_ceiling=3)
        assert str(info.value) == message
        # forced, the exact solver gives its own reason alone
        with pytest.raises(CapacityError) as info:
            gamma_i(cycle(7), "exact", width_ceiling=1, exact_ceiling=3)
        assert str(info.value) == "n=7 above the exact-solver ceiling 3"

    @pytest.mark.parametrize("g, kwargs, message", [
        (cycle(4), {"beta": 2}, "beta must be a number in [0, 1], got 2"),
        (cycle(7), {"beta": float("nan")}, "beta must be a number in [0, 1], got nan"),
        (cycle(7), {"width_ceiling": -5}, "width ceiling must be at least 0, got -5"),
        (cycle(4), {"exact_ceiling": -1}, "exact ceiling must be at least 0, got -1"),
        (gnp(30, 0.4, 1), {"beta": 2, "width_ceiling": 3},
         "beta must be a number in [0, 1], got 2"),
    ], ids=["beta-2", "beta-nan", "width-ceiling", "exact-ceiling", "beta-2-both-rungs"])
    def test_bad_arguments_fail_before_any_rung(self, g, kwargs, message):
        # cycle(4) is a cograph and cycle(7) has width 2, so each would be
        # answered; the gnp graph would reach the exact rung. Either way the
        # bad argument is the only error, not reworded as a refusal.
        with pytest.raises(GraphError) as info:
            gamma_i(g, **kwargs)
        assert str(info.value) == message
        assert not isinstance(info.value, CapacityError)

    @pytest.mark.parametrize("call, message", [
        (lambda: treewidth.gamma_i_treewidth(cycle(5), width_ceiling=-1),
         "width ceiling must be at least 0, got -1"),
        (lambda: treewidth.gamma_i_treewidth(Graph(0), width_ceiling=-1),
         "width ceiling must be at least 0, got -1"),
        (lambda: gamma_i_exact(Graph(0), ceiling=-1), "exact ceiling must be at least 0, got -1"),
        (lambda: gamma_i_exact(cycle(5), ceiling=float("nan")),
         "exact ceiling must be at least 0, got nan"),
    ], ids=["treewidth-c5", "treewidth-empty", "exact-empty", "exact-nan"])
    def test_a_negative_ceiling_is_bad_input_to_each_solver(self, call, message):
        # the same check as gamma_i's: not a refusal, and not skipped where
        # the graph is small enough for any ceiling
        with pytest.raises(GraphError) as info:
            call()
        assert str(info.value) == message
        assert not isinstance(info.value, CapacityError)

    def test_mismatched_cotree(self):
        other = random_cograph(6, 1).artifact
        with pytest.raises(GraphError, match="cotree does not match"):
            gamma_i(random_cograph(6, 2).graph, cotree=other)

    def test_mismatched_diagram(self):
        made = random_permutation(6, 1)
        with pytest.raises(GraphError, match="diagram does not match"):
            gamma_i(random_permutation(6, 2).graph, diagram=made.artifact)
        # checked even when another class answers first
        with pytest.raises(GraphError, match="diagram does not match"):
            gamma_i(Graph(6), "cograph", diagram=made.artifact)

    def test_invalid_td_when_another_class_answers(self):
        g = random_cograph(8, 3).graph
        assert gamma_i(g)[0] == "cograph"
        bad = TreeDecomposition(g.n, [g.full_mask >> 1], [])
        for algo in ("auto", "cograph", "exact"):
            with pytest.raises(GraphError, match="invalid tree decomposition"):
                gamma_i(g, algo, td=bad)

    def test_unknown_algorithm(self):
        with pytest.raises(GraphError, match="unknown algorithm 'planar'"):
            gamma_i(path(3), "planar")


class TestAnswers:
    def test_artifacts_stand_in_for_recognition(self):
        made = random_cograph(9, 4)
        algorithm, value, cert, extra = gamma_i(made.graph, cotree=made.artifact)
        assert algorithm == "cograph" and set(extra) == {"gamma"}
        made = random_permutation(9, 4)
        g = made.graph
        assert gamma_i(g, "permutation", diagram=made.artifact)[1] == gamma_i_oracle(g)[0]
        td = heuristic_decomposition(g, "degree")
        algorithm, value, cert, extra = gamma_i(g, "treewidth", td=td)
        assert extra["width"] == td.width and value == gamma_i_oracle(g)[0]

    def test_where_a_decomposition_is_validated(self, monkeypatch):
        g = grid(3, 4)
        given, chosen = heuristic_decomposition(g, "degree"), choose_decomposition(g)
        calls = []
        original = treewidth.validate_decomposition

        def counted(graph, td):
            calls.append(td)
            return original(graph, td)

        monkeypatch.setattr(dispatch, "validate_decomposition", counted)
        monkeypatch.setattr(treewidth, "validate_decomposition", counted)
        expected = gamma_i_oracle(g)[0]
        # a given one among the side files, whichever class answers, and
        # again in the solver
        assert gamma_i(g, "treewidth", td=given)[1] == expected
        assert calls == [given, given]
        # without one, the solver checks the chosen candidate
        calls.clear()
        assert gamma_i(g, "treewidth")[1] == expected
        assert calls == [chosen]

    def test_empty_graph_follows_the_ladder(self):
        g = Graph(0)
        answers = {algo: gamma_i(g, algo) for algo in ALGORITHMS if algo != "permutation"}
        assert {algo: answer[0] for algo, answer in answers.items()} == {
            "auto": "cograph", "cograph": "cograph", "dh": "dh", "treewidth": "treewidth",
            "exact": "exact"}
        assert set(answers["dh"][3]) == {"stats"}
        assert answers["treewidth"][3]["width"] == -1
        # the DP itself answers, on make_nice's one empty leaf
        assert answers["treewidth"][3]["stats"]["nice_nodes"] == 1
        assert answers["exact"][3]["stats"]["sets_enumerated"] == 1
        for _, value, cert, _ in answers.values():
            assert value == 0 and verify_certificate(g, cert)
        with pytest.raises(GraphError, match="needs --diagram"):
            gamma_i(g, "permutation")
        assert gamma_i(g, "permutation", diagram=PermutationDiagram(0, (), ()))[:2] == \
            ("permutation", 0)

    @pytest.mark.parametrize("family", ["cograph", "dh", "permutation", "chordal", "gnp"])
    def test_agrees_with_the_oracle(self, family):
        for seed in range(30):
            n = 1 + seed % 12
            diagram = None
            if family == "cograph":
                g = random_cograph(n, seed).graph
            elif family == "dh":
                g = random_dh(n, seed).graph
            elif family == "permutation":
                made = random_permutation(n, seed)
                g, diagram = made.graph, made.artifact
            elif family == "chordal":
                g = random_chordal(n, seed)
            else:
                g = gnp(n, 0.3, seed)
            algorithm, value, cert, _ = gamma_i(g, diagram=diagram)
            assert value == gamma_i_oracle(g)[0], (family, seed, algorithm)
            assert verify_certificate(g, cert) and cert.value == value
            if family in ("cograph", "dh"):
                assert algorithm == ("cograph" if not isinstance(build_cotree(g), P4Witness)
                                     else "dh")
