import ast
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import indom
from indom import cli, cograph, dispatch
from indom.cli import main
from indom.generators import cycle, gnp, grid, path, random_cograph
from indom.graph import Graph, cartesian_product, mask_to_list, parse, serialize
from indom.oracle import DominationCertificate


def write_graph(tmp_path, g, name="g.txt"):
    target = tmp_path / name
    target.write_text(serialize(g))
    return str(target)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out.strip().splitlines()
    return code, [json.loads(line) for line in out if line]


class TestGammaI:
    def test_c4_dispatches_to_cograph(self, tmp_path, capsys):
        target = write_graph(tmp_path, cycle(4))
        code, reports = run(capsys, ["gamma-i", target, "--certify"])
        assert code == 0
        assert reports[0]["algorithm"] == "cograph"
        assert reports[0]["value"] == 1
        assert reports[0]["verified"] is True

    def test_c5_falls_through(self, tmp_path, capsys):
        target = write_graph(tmp_path, cycle(5))
        code, reports = run(capsys, ["gamma-i", target])
        assert code == 0
        assert reports[0]["algorithm"] == "treewidth"
        assert reports[0]["value"] == 1
        # with the width path closed it lands on the exact solver
        code, reports = run(capsys, ["gamma-i", target, "--width-ceiling", "1"])
        assert code == 0
        assert reports[0]["algorithm"] == "exact"
        assert reports[0]["value"] == 1
        stats = reports[0]["stats"]
        assert 0 <= stats["sets_cut"] <= stats["sets_enumerated"]

    @pytest.mark.parametrize("algo, reported, stats", [
        ("auto", "cograph", None), ("cograph", "cograph", None), ("dh", "dh", "pendants"),
        ("treewidth", "treewidth", "nice_nodes"), ("exact", "exact", "sets_enumerated")])
    def test_empty_graph_names_the_solver_that_ran(self, tmp_path, capsys, algo, reported,
                                                   stats):
        target = write_graph(tmp_path, Graph(0))
        code, reports = run(capsys, ["gamma-i", target, "--algo", algo, "--certify"])
        assert code == 0
        assert reports[0]["algorithm"] == reported and reports[0]["value"] == 0
        assert reports[0]["verified"] is True
        assert (stats in reports[0]["stats"]) if stats else "stats" not in reports[0]

    def test_empty_graph_needs_a_diagram_for_the_permutation_solver(self, tmp_path, capsys):
        target = write_graph(tmp_path, Graph(0))
        code, reports = run(capsys, ["gamma-i", target, "--algo", "permutation"])
        assert code == 2
        assert reports == [{"error": "permutation solver needs --diagram "
                                     "(recognition is out of scope)"}]

    def test_treewidth_reports_dp_stats(self, tmp_path, capsys):
        target = write_graph(tmp_path, grid(3, 4))
        code, reports = run(capsys, ["gamma-i", target])
        assert code == 0
        assert reports[0]["algorithm"] == "treewidth"
        stats = reports[0]["stats"]
        assert set(stats) == {"nice_nodes", "max_items", "max_entries", "peak_live_entries"}
        assert 0 < stats["max_items"] <= stats["max_entries"] <= stats["peak_live_entries"]

    def test_dh_reports_stats(self, tmp_path, capsys):
        target = write_graph(tmp_path, path(7))
        code, reports = run(capsys, ["gamma-i", target, "--certify"])
        assert code == 0
        assert reports[0]["algorithm"] == "dh"
        stats = reports[0]["stats"]
        assert set(stats) == {"pendants", "true_twins", "false_twins", "max_items", "states",
                              "combines"}
        assert stats["pendants"] + stats["true_twins"] + stats["false_twins"] == 6
        assert stats["max_items"] > 0
        # path(7)'s tree has six inner nodes, each one combine at most
        assert 0 < stats["combines"] <= 6 and stats["states"] > 0

    @pytest.mark.parametrize("g", [cycle(5), grid(3, 3)], ids=["c5", "grid3x3"])
    def test_forced_dh_mismatch(self, tmp_path, capsys, g):
        target = write_graph(tmp_path, g)
        code, reports = run(capsys, ["gamma-i", target, "--algo", "dh"])
        assert code == 2
        assert len(reports) == 1
        witness = reports[0]["witness"]
        assert set(witness) == {"kind", "vertex"}
        assert witness["kind"] == "dh-stuck"
        assert witness["vertex"] in range(g.n)

    def test_forced_class_mismatch(self, tmp_path, capsys):
        target = write_graph(tmp_path, path(4))
        code, reports = run(capsys, ["gamma-i", target, "--algo", "cograph"])
        assert code == 2
        assert reports[0]["witness"]["kind"] == "p4"
        assert reports[0]["witness"]["vertices"] == [0, 1, 2, 3]

    def test_diagram_input(self, tmp_path, capsys):
        code, _ = run(capsys, ["gen", "random_permutation(8)", "--seed", "5",
                               "-o", str(tmp_path / "g.txt"),
                               "--artifact-out", str(tmp_path / "d.txt")])
        assert code == 0
        code, reports = run(capsys, ["gamma-i", str(tmp_path / "g.txt"),
                                     "--algo", "permutation",
                                     "--diagram", str(tmp_path / "d.txt"), "--certify"])
        assert code == 0
        assert reports[0]["algorithm"] == "permutation"
        assert reports[0]["verified"] is True

    def test_td_input(self, tmp_path, capsys):
        target = write_graph(tmp_path, path(5))
        td = tmp_path / "td.txt"
        td.write_text("s 4 2 5\nb 0 0 1\nb 1 1 2\nb 2 2 3\nb 3 3 4\n0 1\n1 2\n2 3\n")
        code, reports = run(capsys, ["gamma-i", target, "--algo", "treewidth",
                                     "--td", str(td), "--certify"])
        assert code == 0
        assert reports[0]["algorithm"] == "treewidth"
        assert reports[0]["verified"] is True

    def test_td_of_another_vertex_count_is_rejected(self, tmp_path, capsys):
        target = write_graph(tmp_path, path(3))
        td = tmp_path / "n5.td"
        td.write_text("s 2 2 5\nb 0 0 1\nb 1 1 2\n0 1\n")
        code, reports = run(capsys, ["gamma-i", target, "--td", str(td), "--certify"])
        assert code == 2
        assert reports == [{"error": "invalid tree decomposition (vertex-count: "
                                     "decomposition has 5 vertices, the graph 3)"}]

    def test_wide_td_rejected(self, tmp_path, capsys):
        target = write_graph(tmp_path, path(5))
        td = tmp_path / "td.txt"
        td.write_text("s 1 5 5\nb 0 0 1 2 3 4\n")
        code, reports = run(capsys, ["gamma-i", target, "--algo", "treewidth",
                                     "--td", str(td), "--width-ceiling", "2"])
        assert code == 2
        assert "ceiling" in reports[0]["error"]

    @pytest.mark.parametrize("text", [
        "s 5 3 6\nb 0 0 1\nb 1 1 2\nb 2 2 3\nb 3 3 4\nb 4 4 5\n0 1\n1 2\n2 3\n3 4\n",
        "s 4 2 5\nb 0 0 x\nb 1 1 2\nb 2 2 3\nb 3 3 4\n0 1\n1 2\n2 3\n",
        "s td 4 2 5\nb 1 0 1\nb 2 2 3\nb 3 3 4\nb 4 4 5\n1 2\n2 3\n3 4\n",
    ], ids=["vertex-beyond-graph", "non-integer", "pace-vertex-zero"])
    def test_malformed_td_is_a_json_error(self, tmp_path, capsys, text):
        target = write_graph(tmp_path, path(5))
        td = tmp_path / "td.txt"
        td.write_text(text)
        code, reports = run(capsys, ["gamma-i", target, "--algo", "treewidth",
                                     "--td", str(td)])
        assert code == 2
        assert len(reports) == 1 and "error" in reports[0]

    @pytest.mark.parametrize("text", [
        "s 4 2 5\nb 0 0 x\nb 1 1 2\nb 2 2 3\nb 3 3 4\n0 1\n1 2\n2 3\n",
        "s 3 2 5\nb 0 0 1\nb 1 1 2\nb 2 2 3\n0 1\n1 2\n",
    ], ids=["non-integer", "vertex-uncovered"])
    def test_bad_td_is_an_error_when_dh_answers(self, tmp_path, capsys, text):
        target = write_graph(tmp_path, path(5))
        td = tmp_path / "td.txt"
        td.write_text(text)
        code, reports = run(capsys, ["gamma-i", target, "--td", str(td)])
        assert code == 2
        assert len(reports) == 1 and "error" in reports[0]

    @pytest.mark.parametrize("text", ["4\n0 1 x 3\n0 1 2 3\n", "4\n0 1 2 3\n0 1 2 3\n"],
                             ids=["malformed", "other-graph"])
    def test_bad_diagram_is_an_error_when_cograph_answers(self, tmp_path, capsys, text):
        target = write_graph(tmp_path, cycle(4))
        diagram = tmp_path / "d.txt"
        diagram.write_text(text)
        code, reports = run(capsys, ["gamma-i", target, "--diagram", str(diagram)])
        assert code == 2
        assert len(reports) == 1 and "error" in reports[0]

    def test_both_refusals_in_one_error(self, tmp_path, capsys):
        target = write_graph(tmp_path, cycle(5))
        code, reports = run(capsys, ["gamma-i", target, "--width-ceiling", "1",
                                     "--exact-ceiling", "3"])
        assert code == 2
        assert reports == [{"error": "n=5 above the exact-solver ceiling 3; treewidth "
                                     "solver: decomposition width 2 exceeds ceiling 1"}]

    def test_forced_treewidth_refusal_exits_2(self, tmp_path, capsys):
        target = write_graph(tmp_path, grid(3, 3))
        code, reports = run(capsys, ["gamma-i", target, "--algo", "treewidth",
                                     "--width-ceiling", "1"])
        assert code == 2
        assert "ceiling" in reports[0]["error"]

    def test_failed_replay_reports_verified_false_and_exits_1(self, tmp_path, capsys,
                                                              monkeypatch):
        # D = {0} does not dominate vertex 2 of A = {0, 2} in C5
        bad = DominationCertificate(0b101, 0b1, 1)
        monkeypatch.setattr("indom.cli.gamma_i", lambda g, *args, **kw: ("exact", 1, bad, {}))
        target = write_graph(tmp_path, cycle(5))
        code, reports = run(capsys, ["gamma-i", target, "--certify"])
        assert code == 1
        assert len(reports) == 1
        assert reports[0]["verified"] is False
        assert reports[0]["certificate"] == bad.as_dict()

    def test_cograph_is_recognised_once(self, tmp_path, capsys, monkeypatch):
        run(capsys, ["gen", "random_cograph(9)", "--seed", "4",
                     "-o", str(tmp_path / "g.txt"), "--artifact-out", str(tmp_path / "t.txt")])
        calls = []
        original = cograph.build_cotree

        def counted(g):
            calls.append(g.n)
            return original(g)

        monkeypatch.setattr(dispatch, "build_cotree", counted)
        monkeypatch.setattr(cograph, "build_cotree", counted)
        code, reports = run(capsys, ["gamma-i", str(tmp_path / "g.txt")])
        assert code == 0 and reports[0]["algorithm"] == "cograph"
        assert len(calls) == 1
        code, reports = run(capsys, ["gamma-i", str(tmp_path / "g.txt"),
                                     "--cotree", str(tmp_path / "t.txt")])
        assert code == 0 and reports[0]["algorithm"] == "cograph"
        assert len(calls) == 1


class TestSideArtifacts:
    def test_cotree_flag(self, tmp_path, capsys):
        code, _ = run(capsys, ["gen", "random_cograph(9)", "--seed", "4",
                               "-o", str(tmp_path / "g.txt"),
                               "--artifact-out", str(tmp_path / "t.txt")])
        assert code == 0
        code, reports = run(capsys, ["gamma-i", str(tmp_path / "g.txt"),
                                     "--cotree", str(tmp_path / "t.txt"), "--certify"])
        assert code == 0
        assert reports[0]["algorithm"] == "cograph"
        assert "gamma" in reports[0]
        assert reports[0]["verified"] is True

    def test_mismatched_cotree_rejected(self, tmp_path, capsys):
        code, _ = run(capsys, ["gen", "random_cograph(9)", "--seed", "4",
                               "-o", str(tmp_path / "g.txt"),
                               "--artifact-out", str(tmp_path / "t.txt")])
        target = write_graph(tmp_path, path(4), "other.txt")
        code, reports = run(capsys, ["gamma-i", target, "--cotree", str(tmp_path / "t.txt")])
        assert code == 2

    def test_empty_graph_with_its_cotree(self, tmp_path, capsys):
        (tmp_path / "g.txt").write_text("0 0\n")
        (tmp_path / "t.txt").write_text("node 0 - UNION\n")
        code, reports = run(capsys, ["gamma-i", str(tmp_path / "g.txt"),
                                     "--cotree", str(tmp_path / "t.txt")])
        assert code == 0
        assert (reports[0]["algorithm"], reports[0]["value"], reports[0]["gamma"]) == (
            "cograph", 0, 0)


class TestEnvCeilings:
    def test_width_ceiling_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("INDOM_WIDTH_CEILING", "1")
        target = write_graph(tmp_path, cycle(5))
        code, reports = run(capsys, ["gamma-i", target])
        assert code == 0
        assert reports[0]["algorithm"] == "exact"

    @pytest.mark.parametrize("name", ["INDOM_WIDTH_CEILING", "INDOM_EXACT_CEILING"])
    def test_non_integer_env_is_a_json_error(self, tmp_path, capsys, monkeypatch, name):
        monkeypatch.setenv(name, "twelve")
        target = write_graph(tmp_path, cycle(5))
        code, reports = run(capsys, ["gamma-i", target])
        assert code == 2
        assert name in reports[0]["error"]

    @pytest.mark.parametrize("name, command", [
        ("INDOM_EXACT_CEILING", "gamma-i"), ("INDOM_EXACT_CEILING", "exact"),
        ("INDOM_WIDTH_CEILING", "gamma-i"), ("INDOM_WIDTH_CEILING", "ptas"),
    ])
    def test_negative_env_is_a_json_error(self, tmp_path, capsys, monkeypatch, name, command):
        # C4 is a cograph, so gamma-i never reaches a ceiling
        monkeypatch.setenv(name, "-3")
        target = write_graph(tmp_path, cycle(4))
        extra = ["--epsilon", "0.5"] if command == "ptas" else []
        code, reports = run(capsys, [command, target, *extra])
        assert code == 2
        assert len(reports) == 1 and name in reports[0]["error"]

    def test_flag_wins_over_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("INDOM_WIDTH_CEILING", "1")
        target = write_graph(tmp_path, cycle(5))
        code, reports = run(capsys, ["gamma-i", target, "--width-ceiling", "2"])
        assert code == 0
        assert reports[0]["algorithm"] == "treewidth"


class TestBadFlags:
    def test_argparse_type_error_is_a_json_error(self, tmp_path, capsys):
        target = write_graph(tmp_path, cycle(5))
        code, reports = run(capsys, ["gamma-i", target, "--width-ceiling", "x"])
        assert code == 2
        assert len(reports) == 1 and "--width-ceiling" in reports[0]["error"]

    def test_ptas_root_outside_graph(self, tmp_path, capsys):
        target = write_graph(tmp_path, grid(3, 3))
        code, reports = run(capsys, ["ptas", target, "--epsilon", "0.34", "--root", "9"])
        assert code == 2
        assert "root" in reports[0]["error"]

    def test_ptas_epsilon_with_infinite_inverse(self, tmp_path, capsys):
        target = write_graph(tmp_path, grid(3, 3))
        code, reports = run(capsys, ["ptas", target, "--epsilon", "1e-320"])
        assert code == 2
        assert len(reports) == 1 and "epsilon" in reports[0]["error"]

    @pytest.mark.parametrize("epsilon", ["0", "1"])
    def test_ptas_epsilon_outside_the_open_unit_interval(self, tmp_path, capsys, epsilon):
        target = write_graph(tmp_path, grid(3, 3))
        code, reports = run(capsys, ["ptas", target, "--epsilon", epsilon])
        assert code == 2
        assert reports == [{"error": "epsilon must be in (0, 1)"}]

    @pytest.mark.parametrize("argv, flag", [
        (["ptas", "{}", "--eps", "0.2"], "--epsilon"),
        (["ptas", "{}", "--epsilon", "0.2", "--width", "3"], "--width"),
        (["gamma-i", "{}", "--al", "exact"], "--al"),
    ])
    def test_abbreviated_flags_are_json_errors(self, tmp_path, capsys, argv, flag):
        target = write_graph(tmp_path, path(5))
        code, reports = run(capsys, [a.format(target) for a in argv])
        assert code == 2
        assert len(reports) == 1 and flag in reports[0]["error"]

    @pytest.mark.parametrize("beta", ["nan", "-5"])
    def test_beta_outside_unit_interval(self, tmp_path, capsys, beta):
        target = write_graph(tmp_path, cycle(5))
        code, reports = run(capsys, ["exact", target, "--beta", beta])
        assert code == 2
        assert "beta" in reports[0]["error"]

    @pytest.mark.parametrize("command", ["gamma-i", "exact"])
    @pytest.mark.parametrize("flag, value", [("--beta", "nan"), ("--beta", "1.5"),
                                             ("--exact-ceiling", "-3")])
    def test_exact_flags_checked_when_cograph_answers(self, tmp_path, capsys,
                                                      command, flag, value):
        # C4 is a cograph, so gamma-i never reaches the exact solver
        target = write_graph(tmp_path, cycle(4))
        code, reports = run(capsys, [command, target, flag, value])
        assert code == 2
        assert len(reports) == 1 and flag in reports[0]["error"]


class TestOracle:
    def test_gamma(self, tmp_path, capsys):
        target = write_graph(tmp_path, cycle(6))
        code, reports = run(capsys, ["oracle", "gamma", target, "--certify"])
        assert code == 0
        assert reports[0]["value"] == 2
        assert reports[0]["verified"] is True

    def test_gamma_without_certify_has_no_verified_key(self, tmp_path, capsys):
        target = write_graph(tmp_path, cycle(6))
        code, reports = run(capsys, ["oracle", "gamma", target])
        assert code == 0
        assert reports == [{"input": target, "value": 2, "witness": [0, 3]}]

    def test_gamma_set_without_set_is_empty(self, tmp_path, capsys):
        target = write_graph(tmp_path, cycle(6))
        code, reports = run(capsys, ["oracle", "gamma-set", target, "--certify"])
        assert code == 0
        assert reports == [{"input": target, "set": [], "value": 0, "witness": [],
                            "verified": True}]

    def test_gamma_set(self, tmp_path, capsys):
        target = write_graph(tmp_path, path(4))
        code, reports = run(capsys, ["oracle", "gamma-set", target, "--set", "0,3",
                                     "--certify"])
        assert code == 0
        assert reports[0]["value"] == 2
        assert reports[0]["verified"] is True

    def test_gamma_i(self, tmp_path, capsys):
        target = write_graph(tmp_path, cycle(6))
        code, reports = run(capsys, ["oracle", "gamma-i", target])
        assert code == 0
        assert reports[0]["value"] == 2

    @pytest.mark.parametrize("what", ["gamma", "gamma-i"])
    def test_set_outside_gamma_set_is_refused(self, tmp_path, capsys, what):
        target = write_graph(tmp_path, path(5))
        code, reports = run(capsys, ["oracle", what, target, "--set", "1"])
        assert code == 2
        assert reports == [{"error": f"--set applies to gamma-set only, not to {what}"}]

    @pytest.mark.parametrize("ids", ["0,99", "a", "0,-1"])
    def test_gamma_set_rejects_bad_ids(self, tmp_path, capsys, ids):
        target = write_graph(tmp_path, cycle(9))
        code, reports = run(capsys, ["oracle", "gamma-set", target, "--set", ids])
        assert code == 2
        assert len(reports) == 1 and "--set" in reports[0]["error"]


class TestExactCommand:
    def test_stats_report_cut_sets(self, tmp_path, capsys):
        target = write_graph(tmp_path, cycle(7))
        code, reports = run(capsys, ["exact", target, "--certify"])
        assert code == 0 and reports[0]["verified"] is True
        stats = reports[0]["stats"]
        assert stats["sets_enumerated"] == 7  # the maximal independent sets of C7
        assert 0 < stats["sets_cut"] <= stats["sets_enumerated"]

    def test_above_the_ceiling_exits_2(self, tmp_path, capsys):
        target = write_graph(tmp_path, cycle(5))
        code, reports = run(capsys, ["exact", target, "--exact-ceiling", "3"])
        assert code == 2
        assert reports == [{"error": "n=5 above the exact-solver ceiling 3"}]


class TestPtasCommand:
    def test_grid(self, tmp_path, capsys):
        from indom.generators import grid

        target = write_graph(tmp_path, grid(3, 3))
        code, reports = run(capsys, ["ptas", target, "--epsilon", "0.34", "--certify"])
        assert code == 0
        assert reports[0]["k"] == 3
        assert reports[0]["verified"] is True


class TestVerifyCommand:
    @pytest.mark.parametrize("suite", ["cograph", "dh", "permutation", "treewidth",
                                       "chordal", "exact"])
    def test_suites_pass(self, suite, capsys):
        code, reports = run(capsys, ["verify", "--suite", suite, "--count", "6",
                                     "--size", "10", "--seed", "1"])
        assert code == 0
        assert reports[-1]["failures"] == 0

    def test_wrong_value_is_reported_with_its_instance(self, capsys, monkeypatch):
        solve = dispatch.gamma_i_cograph

        def off_by_one(g, *rest):
            value, cert = solve(g, *rest)
            return value + 1, cert

        monkeypatch.setattr(dispatch, "gamma_i_cograph", off_by_one)
        code, reports = run(capsys, ["verify", "--suite", "cograph", "--count", "3",
                                     "--size", "8", "--seed", "5"])
        assert code == 1
        assert reports[-1] == {"suite": "cograph", "count": 3, "failures": 3}
        for report in reports[:-1]:
            assert report["ok"] is False
            made = random_cograph(report["n"], report["seed"])
            assert report["value"] == solve(made.graph)[0] + 1
            assert parse(report["instance"]) == made.graph

    def test_gamma_i_and_verify_reach_the_solver_through_dispatch(self, tmp_path, capsys,
                                                                   monkeypatch):
        solve = dispatch.gamma_i_dh

        def off_by_one(g, *rest):
            value, cert = solve(g, *rest)
            return value + 1, cert

        monkeypatch.setattr(dispatch, "gamma_i_dh", off_by_one)
        target = write_graph(tmp_path, path(6))
        code, reports = run(capsys, ["gamma-i", target, "--algo", "dh"])
        assert code == 0 and reports[0]["value"] == solve(path(6))[0] + 1
        code, reports = run(capsys, ["verify", "--suite", "dh", "--count", "2",
                                     "--size", "8"])
        assert code == 1 and reports[-1]["failures"] == 2


class TestGen:
    def test_round_trip(self, tmp_path, capsys):
        from indom.generators import grid
        from indom.oracle import gamma_i_oracle

        out = tmp_path / "g.txt"
        code, _ = run(capsys, ["gen", "grid(3,3)", "-o", str(out)])
        assert code == 0
        code, reports = run(capsys, ["oracle", "gamma-i", str(out)])
        assert code == 0
        assert reports[0]["value"] == gamma_i_oracle(grid(3, 3))[0]

    @pytest.mark.parametrize("argv", [
        ["gen", "gnp(x,0.3)"], ["gen", "grid(3)"], ["gen", "gnp(5)"], ["gen", "path(3,4)"],
        ["gen", "complete_multipartite(2,)"], ["verify", "--suite", "cograph", "--count", "-4"],
        ["gen", "gnp(3,1.5)"], ["gen", "gnp(3,-0.1)"], ["gen", "gnp(3,nan)"],
    ])
    def test_bad_arguments_are_json_errors(self, capsys, argv):
        code, reports = run(capsys, argv)
        assert code == 2
        assert len(reports) == 1 and "error" in reports[0]

    @pytest.mark.parametrize("descriptor", [
        "gnp(4000001,0)", "grid(2001,2000)", "grid(-3,2)", "random_permutation(-1)",
        "complete_multipartite(2000001,2000000)", "random_cograph(4000001)",
        "random_dh(4000001)", "random_chordal(4000001)", "path(4000001)",
    ])
    def test_oversized_generator_refused_before_building(self, descriptor):
        # a separate process with 1 GB of address space, so that building the
        # edges first fails fast, by timeout or MemoryError
        resource = pytest.importorskip("resource")
        cap = 1 << 30
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        if hard != resource.RLIM_INFINITY:
            cap = min(cap, hard)

        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

        env = dict(os.environ, PYTHONPATH=str(Path(indom.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-m", "indom.cli", "gen", descriptor],
                              capture_output=True, text=True, env=env, timeout=60,
                              preexec_fn=limit_memory)
        assert done.returncode == 2
        lines = done.stdout.splitlines()
        assert len(lines) == 1 and "error" in json.loads(lines[0])

    def test_artifact_written(self, tmp_path, capsys):
        code, _ = run(capsys, ["gen", "random_dh(7)", "--seed", "2",
                               "-o", str(tmp_path / "g.txt"),
                               "--artifact-out", str(tmp_path / "seq.txt")])
        assert code == 0
        from indom.distance_hereditary import parse_sequence, replay_sequence
        from indom.graph import parse

        seq = parse_sequence((tmp_path / "seq.txt").read_text())
        g = parse((tmp_path / "g.txt").read_text())
        assert replay_sequence(seq) == g

    def test_artifact_out_without_artifact_is_an_error(self, tmp_path, capsys):
        code, reports = run(capsys, ["gen", "gnp(5,0.5)", "-o", str(tmp_path / "g.txt"),
                                     "--artifact-out", str(tmp_path / "a.txt")])
        assert code == 2
        assert len(reports) == 1 and "gnp" in reports[0]["error"]
        assert list(tmp_path.iterdir()) == []


def test_wide_instance_ends_as_one_json_line(tmp_path):
    # width 9: a table DP without a budget exhausts 3 GB before it answers
    resource = pytest.importorskip("resource")
    target = write_graph(tmp_path, gnp(60, 0.05, 5))
    cap = 3 << 30
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    if hard != resource.RLIM_INFINITY:
        cap = min(cap, hard)

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    env = dict(os.environ, PYTHONPATH=str(Path(indom.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-m", "indom.cli", "gamma-i", target],
                          capture_output=True, text=True, env=env, timeout=300,
                          preexec_fn=limit_memory)
    lines = done.stdout.splitlines()
    assert len(lines) == 1
    report = json.loads(lines[0])
    if done.returncode == 0:
        assert report["value"] == 19
    else:
        assert done.returncode == 2 and "budget" in report["error"]


def test_product_check_command(capsys):
    code, reports = run(capsys, ["product-check"])
    assert code == 0
    assert reports[-1]["failures"] == 0


def test_product_check_reports_a_broken_pair(capsys, monkeypatch):
    g, h = path(3), cycle(4)
    broken = cartesian_product(g, h)
    original = cli.gamma_i_oracle

    def lowered(graph):
        value, cert = original(graph)
        return (0 if graph == broken else value), cert

    monkeypatch.setattr(cli, "PRODUCT_CORPUS", [("P3", g), ("C4", h)])
    monkeypatch.setattr(cli, "gamma_i_oracle", lowered)
    code, reports = run(capsys, ["product-check"])
    assert code == 1
    assert reports[-1] == {"pairs": 4, "failures": 1}
    bad = [r for r in reports[:-1] if not r["ok"]]
    assert [r["pair"] for r in bad] == [["P3", "C4"]]
    assert bad[0]["checks"] == {"gamma_product_vs_gi_gamma": True, "gi_product_vs_gi_gi": False,
                                "suen_tarr": True}
    cert = original(broken)[1]
    assert bad[0]["witness_pairs"] == {
        "independent_set": [list(divmod(v, h.n)) for v in mask_to_list(cert.independent_set)],
        "dominating_set": [list(divmod(v, h.n)) for v in mask_to_list(cert.dominating_set)],
    }
    assert all("checks" not in r for r in reports[:-1] if r["ok"])


def test_error_reports_json(tmp_path, capsys):
    code, reports = run(capsys, ["gamma-i", str(tmp_path / "missing.txt")])
    assert code == 2
    assert "error" in reports[0]


@pytest.mark.parametrize("flag", [None, "--cotree", "--diagram", "--td"])
def test_non_utf8_file_is_a_json_error(tmp_path, capsys, flag):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"3 1\n0 1\xff\n")
    argv = ["gamma-i", str(bad)] if flag is None else \
        ["gamma-i", write_graph(tmp_path, path(3)), flag, str(bad)]
    code, reports = run(capsys, argv)
    assert code == 2
    assert reports == [{"error": f"line 2: {bad}: byte 0xff is not UTF-8 text"}]


@pytest.mark.parametrize("flag,message", [
    (None, "line 3: {}: expected integers, got '1 x'"),
    ("--cotree", "line 1: {}: expected 'node <id> <parent> <LABEL> [vertex]'"),
    ("--diagram", "line 1: {}: line holds 2 integers, expected 1"),
    ("--td", "line 1: {}: expected bag-edge line '<id> <id>'"),
])
def test_format_error_names_its_file(tmp_path, capsys, flag, message):
    # an edge list with a bad edge line, or a good one given as a side file
    bad = tmp_path / "bad.txt"
    bad.write_text("3 2\n0 1\n1 x\n" if flag is None else serialize(path(3)))
    argv = ["gamma-i", str(bad)] if flag is None else \
        ["gamma-i", write_graph(tmp_path, path(3)), flag, str(bad)]
    code, reports = run(capsys, argv)
    assert code == 2
    assert reports == [{"error": message.format(bad)}]


def test_format_error_without_a_line_names_its_file(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing\n")
    code, reports = run(capsys, ["exact", str(empty)])
    assert code == 2
    assert reports == [{"error": f"{empty}: empty input: missing 'n m' header"}]


@pytest.mark.parametrize("flag", ["--cotree", "--diagram", "--td"])
def test_stdin_feeds_one_file_only(capsys, flag):
    # refused before anything is read: in-process, a read of stdin would fail
    code, reports = run(capsys, ["gamma-i", "-", flag, "-"])
    assert code == 2
    assert reports == [{"error": f"'-' (stdin) can feed one file only, not input and {flag}"}]


def test_non_utf8_stdin_is_a_json_error():
    env = dict(os.environ, PYTHONPATH=str(Path(indom.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-m", "indom.cli", "gamma-i", "-"],
                          input=b"\xfe3 1\n0 1\n", capture_output=True, env=env, timeout=60)
    assert done.returncode == 2, done.stderr
    assert json.loads(done.stdout) == {"error": "line 1: stdin: byte 0xfe is not UTF-8 text"}


def test_sources_compile_with_warnings_as_errors():
    # an invalid escape in a docstring is a warning at import, and an error
    # under -W error
    root = Path(__file__).resolve().parent.parent
    sources = sorted((root / "src" / "indom").rglob("*.py")) + sorted((root / "tests").rglob("*.py"))
    assert len(sources) > 20
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for source in sources:
            compile(source.read_text(encoding="utf-8"), str(source), "exec")


def test_no_function_imports():
    # every module imports at load time, so a traced or patched module
    # attribute is the one each call reads
    root = Path(__file__).resolve().parent.parent / "src" / "indom"
    found = []
    for source in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                found += [(source.name, inner.lineno) for inner in ast.walk(node)
                          if isinstance(inner, (ast.Import, ast.ImportFrom))]
    assert found == []


# modules and functions allowed to call themselves, each with its reason
RECURSION_ALLOWED = {
    "oracle": "ground truth, left untouched",
    "exactexp.brute_force_matching": "test reference for n <= 12",
    "generators.random_cotree": "random split depth; its draw order is the generator's contract",
}


def _calls_itself(fn):
    for call in ast.walk(fn):
        f = getattr(call, "func", None)
        if isinstance(f, ast.Name) and f.id == fn.name:
            return True
        if (isinstance(f, ast.Attribute) and f.attr == fn.name
                and isinstance(f.value, ast.Name) and f.value.id == "self"):
            return True
    return False


def test_no_recursion():
    # deep input must not reach the interpreter's recursion limit, so walks
    # and searches keep an explicit stack; an allowlist entry that covers no
    # function calling itself any more is stale and fails too
    root = Path(__file__).resolve().parent.parent / "src" / "indom"
    found = []
    used = set()
    for source in sorted(root.rglob("*.py")):
        todo = [(ast.parse(source.read_text(encoding="utf-8")), source.stem)]
        while todo:
            node, name = todo.pop()
            for child in ast.iter_child_nodes(node):
                if not isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                    todo.append((child, name))
                    continue
                inner = f"{name}.{child.name}"
                todo.append((child, inner))
                if isinstance(child, ast.ClassDef) or not _calls_itself(child):
                    continue
                allowed = [a for a in RECURSION_ALLOWED if f"{inner}.".startswith(f"{a}.")]
                used.update(allowed)
                if not allowed:
                    found.append(inner)
    assert found == []
    assert sorted(RECURSION_ALLOWED.keys() - used) == []
