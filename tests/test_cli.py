"""End-to-end tests for the command-line interface."""

import argparse
import json
import os
import subprocess
import sys
import tracemalloc

import pytest

from symbreak import graph6, graphs, kernels, limits, perms


class TestAnalyze:
    def test_builtin_graph_report(self, run_cli):
        code, out, err = run_cli("analyze", "builtin:petersen")
        assert code == 0 and err == ""
        doc = json.loads(out)
        g = doc["graphs"][0]
        assert g["name"] == "petersen"
        assert (g["n"], g["m"]) == (10, 15)
        assert (g["autOrder"], g["d"], g["theta"]) == (120, 3, 8)
        assert doc["summary"]["graphs"] == 1

    @pytest.mark.parametrize("argv,expected", [
        (("builtin:complete:8", "--phi-max", "8", "--steady"),
         (40320, 8, 8)),
        (("builtin:kneser:7:2",), (5040, 2, 17)),
    ], ids=["K8", "kneser_7_2"])
    def test_analyze_builds_no_group_elements(self, run_cli, monkeypatch,
                                              argv, expected):
        def refuse(group):
            raise AssertionError("group elements built")

        monkeypatch.setattr(perms.AutGroup, "elements", property(refuse))
        code, out, err = run_cli("analyze", *argv)
        assert (code, err) == (0, "")
        g = json.loads(out)["graphs"][0]
        assert (g["autOrder"], g["d"], g["theta"]) == expected

    @pytest.mark.parametrize("spec,theta,passed", [
        ("builtin:kneser:7:2", 17, 23), ("builtin:petersen", 8, 11),
    ], ids=["kneser_7_2", "petersen"])
    def test_analyze_streams_the_group_once(self, run_cli, monkeypatch,
                                            spec, theta, passed):
        # theta reads the chain's levels on both routes, whether or not a
        # table's minimal-cycle scan streams the group, and they pass the
        # same few products (a stream of Kneser(7,2)'s group reads 5,040)
        calls = []
        scan = perms._max_cycles

        def spy(n, elements, best, stop):
            calls.append(len(elements))
            return scan(n, elements, best, stop)

        monkeypatch.setattr(perms, "_max_cycles", spy)
        for phi_max in ((), ("--phi-max", "3")):
            calls.clear()
            perms._cached_group.cache_clear()
            perms.colored_group.cache_clear()
            code, out, err = run_cli("analyze", spec, *phi_max)
            assert (code, err) == (0, "")
            assert json.loads(out)["graphs"][0]["theta"] == theta
            assert sum(calls) == passed

    def test_g6_token_input(self, run_cli):
        code, out, _ = run_cli("analyze", "g6:Cl")
        assert code == 0
        g = json.loads(out)["graphs"][0]
        assert (g["n"], g["m"], g["d"]) == (4, 4, 3)

    def test_analyze_takes_one_graph_token(self, run_cli):
        code, _, err = run_cli("analyze", "builtin:path:3", "builtin:cycle:5")
        assert code == 2
        assert "usage" in err

    def test_steady_flag_lists_steady_vertices(self, run_cli):
        code, out, _ = run_cli("analyze", "builtin:path:3", "--steady")
        assert code == 0
        assert json.loads(out)["graphs"][0]["steady"] == [1]

    def test_file_input_names_graphs_by_stem(self, run_cli, tmp_path):
        path = tmp_path / "pair.g6"
        path.write_text("Cl\nBw\n")
        code, out, _ = run_cli("analyze", str(path))
        assert code == 0
        names = [g["name"] for g in json.loads(out)["graphs"]]
        assert names == ["pair:1", "pair:2"]

    def test_edgelist_file_input(self, run_cli, tmp_path):
        path = tmp_path / "square.el"
        path.write_text("4 4\n0 1\n1 2\n2 3\n3 0\n")
        code, out, _ = run_cli("analyze", str(path))
        assert code == 0
        g = json.loads(out)["graphs"][0]
        assert g["name"] == "square"
        assert g["graph6"] == "Cl"

    @pytest.mark.parametrize("name", ["p3.el", "p3"])
    @pytest.mark.parametrize("text", [
        "٣ ٢\n0 1\n1 ٢\n", "3 2\n0 1\n1 ٢\n", "11 1\n0 1_0\n",
    ], ids=["header", "endpoint", "underscore"])
    def test_edgelist_integers_are_ascii_digits(self, run_cli, tmp_path,
                                                name, text):
        # int() would read each of these as a graph; a file without a
        # suffix whose header is not ASCII is sniffed as graph6, and fails
        # there
        path = tmp_path / name
        path.write_text(text)
        code, out, err = run_cli("analyze", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("symbreak: line ")

    @pytest.mark.parametrize("text", [
        "# path\n3 2\n0 1\n1 2\n", "3 2 # hdr\n0 1\n1 2\n",
        "# a path\n\n3 2\n0 1\n1 2\n", "3 2\n# edges follow\n0 1\n1 2\n",
    ], ids=["comment-line", "header-comment", "comment-paragraph",
            "comment-in-block"])
    def test_sniff_reads_past_comments(self, run_cli, tmp_path, text):
        # "#" (byte 35) is no graph6 byte, so a file without a suffix is
        # sniffed by its first line that is not blank once its comment is
        # stripped, as parse_edgelist reads it; a paragraph of comments
        # alone is no graph
        file = tmp_path / "p3"
        file.write_text(text)
        code, out, err = run_cli("analyze", str(file))
        assert (code, err) == (0, "")
        assert json.loads(out)["graphs"][0]["graph6"] == graph6.emit_graph6(
            graphs.path(3))

    @pytest.mark.parametrize("name", ["two.el", "two"])
    def test_edgelist_errors_name_the_line_of_the_file(self, run_cli,
                                                      tmp_path, name):
        file = tmp_path / name
        file.write_text("2 1\n0 1\n\n3 2\n0 1\n1 5\n")
        code, out, err = run_cli("analyze", str(file))
        assert (code, out) == (2, "")
        assert err == ("symbreak: line 6: edge (1, 5) out of range for 3 "
                       "vertices\n")

    def test_csv_format(self, run_cli):
        code, out, _ = run_cli(
            "analyze", "builtin:cycle:4", "--format", "csv", "--phi-max", "2"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("name,source,graph6,n,m,autOrder,d,theta")
        assert "phi@1" in lines[0] and "varphi@2" in lines[0]
        assert lines[1].startswith("cycle:4,builtin,Cl,4,4,8,3,4")


class TestProduct:
    def test_vertex_sum_emits_graph6(self, run_cli):
        code, out, err = run_cli(
            "product", "vsum", "builtin:complete:3@0", "builtin:cycle:4@0"
        )
        assert code == 0 and err == ""
        g = graph6.parse_graph6(out.strip())
        assert (g.n, len(g.edges())) == (6, 7)

    def test_rooted_product_matches_library(self, run_cli):
        code, out, _ = run_cli(
            "product", "rooted", "builtin:path:2", "builtin:path:3@0"
        )
        assert code == 0
        g = graph6.parse_graph6(out.strip())
        assert graphs.is_isomorphic(g, graphs.path(6))

    def test_corona_emits_graph6(self, run_cli):
        code, out, _ = run_cli("product", "corona", "builtin:path:2", "builtin:complete:1")
        assert code == 0
        g = graph6.parse_graph6(out.strip())
        assert graphs.is_isomorphic(g, graphs.path(4))

    def test_lex_json_report(self, run_cli):
        code, out, _ = run_cli(
            "product", "lex", "builtin:path:2", "builtin:path:2", "--emit", "json"
        )
        assert code == 0
        g = json.loads(out)["graphs"][0]
        assert g["n"] == 4 and g["d"] == 4
        assert g["source"] == "product"

    def test_vsum_requires_roots(self, run_cli):
        code, _, err = run_cli("product", "vsum", "builtin:complete:3", "builtin:cycle:4")
        assert code == 2
        assert "root" in err

    @pytest.mark.parametrize("root", ["²", "٢"])
    def test_root_takes_only_ascii_digits(self, run_cli, root):
        factor = f"builtin:path:3@{root}"
        code, out, err = run_cli("product", "vsum", factor, "builtin:path:2@0")
        assert (code, out) == (2, "")
        assert err.startswith(f"symbreak: rooted factor {factor!r} needs an "
                              "@root suffix")

    def test_unknown_kind_rejected(self, run_cli):
        code, _, _ = run_cli("product", "warp", "builtin:path:2", "builtin:path:2")
        assert code == 2


class TestVerify:
    def test_single_rule_grid(self, run_cli):
        code, out, err = run_cli("verify", "thm3.7", "--grid", "K3,t=2..5")
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert doc["summary"]["agree"] == 4
        assert doc["summary"]["disagree"] == 0
        assert [v["theoremId"] for v in doc["verdicts"]] == ["thm3.7"] * 4

    def test_verdict_payload_keys(self, run_cli):
        code, out, _ = run_cli("verify", "thm3.13", "--grid", "n=3,t=2")
        assert code == 0
        v = json.loads(out)["verdicts"][0]
        assert set(v) == {
            "theoremId",
            "instance",
            "predicted",
            "bruteForce",
            "preconditionsMet",
            "agree",
            "status",
            "notes",
        }

    def test_path_closed_form_on_one_vertex_is_out_of_coverage(self,
                                                                 run_cli):
        # the closed form collapses to 0 at n = 1; that is no disagreement
        code, out, err = run_cli("verify", "eq1", "--grid", "n=1..2,k=1..2")
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["summary"]["disagree"] == 0
        one = [v for v in doc["verdicts"] if v["instance"].startswith("path:1,")]
        assert [(v["instance"], v["status"], v["predicted"], v["bruteForce"],
                 v["notes"]) for v in one] == [
            ("path:1,k=1", "inconclusive", 0, 1,
             ["the closed form needs n >= 2"]),
            ("path:1,k=2", "inconclusive", 0, 2,
             ["the closed form needs n >= 2"])]

    def test_unknown_rule_exits_2(self, run_cli):
        code, _, err = run_cli("verify", "nope")
        assert code == 2
        assert "unknown rule" in err

    def test_reversed_grid_range_exits_2(self, run_cli):
        code, out, err = run_cli("verify", "thm3.7", "--grid", "t=5..2")
        assert (code, out) == (2, "")
        assert "bad range '5..2' in grid" in err

    @pytest.mark.parametrize("grid,value", [("n=3..1_0", "3..1_0"),
                                            ("t=٢..٣", "٢..٣")])
    def test_range_takes_only_ascii_integers(self, run_cli, grid, value):
        code, out, err = run_cli("verify", "eq1", "--grid", grid)
        assert (code, out) == (2, "")
        assert err == f"symbreak: bad range {value!r} in grid\n"

    def test_range_still_parses(self, run_cli):
        code, out, err = run_cli("verify", "eq1", "--grid", "n=3..10,k=1")
        assert (code, err) == (0, "")
        assert [v["instance"] for v in json.loads(out)["verdicts"]] == [
            f"path:{n},k=1" for n in range(3, 11)]

    @pytest.mark.parametrize("rule,reasons", [
        ("thm4.2", {"root orbits", "prediction"}),
        ("thm4.3", {"root orbits", "prediction"}),
        ("thm4.4", {"root orbits", "preconditions"}),
        ("thm6.1", {"preconditions", "prediction"})])
    def test_product_rule_folds_budget_hits_into_skips(self, run_cli, rule,
                                                       reasons):
        code, out, err = run_cli("verify", rule, "--max-aut", "1")
        assert (code, err) == (0, "")
        skipped = [v["notes"][0] for v in json.loads(out)["verdicts"]
                   if v["status"] == "skipped"]
        assert {note.partition(" hit budget: ")[0]
                for note in skipped} == reasons
        assert all(note.endswith(" hit budget: automorphism search "
                                 "exceeded cap 1") for note in skipped)

    @pytest.mark.parametrize("rule,grid,key,value", [
        ("eq1", "n=x", "n", "x"), ("thm3.7", "t=2.5", "t", "2.5"),
        ("cor3.8", "K3,t=a", "t", "a"), ("thm3.13", "n=3,t=b", "t", "b"),
        ("eq1", "n=--5", "n", "--5"), ("eq1", "n=²", "n", "²")])
    def test_non_integer_grid_value_exits_2(self, run_cli, rule, grid, key,
                                            value):
        code, out, err = run_cli("verify", rule, "--grid", grid)
        assert (code, out) == (2, "")
        assert err == (f"symbreak: grid key {key!r} must be an integer or a "
                       f"range a..b, got {value!r}\n")

    @pytest.mark.parametrize("rule,grid,key", [
        ("thm3.7", "tt=2..5", "tt"), ("eq2", "k=0..1", "k")])
    def test_grid_key_the_rule_does_not_read_exits_2(self, run_cli, rule,
                                                     grid, key):
        code, out, err = run_cli("verify", rule, "--grid", grid)
        assert (code, out) == (2, "")
        assert err.startswith(f"symbreak: no selected rule reads grid key "
                              f"{key!r} ")

    def test_range_as_family_exits_2(self, run_cli):
        code, out, err = run_cli("verify", "cor3.8", "--grid", "family=2..3")
        assert (code, out) == (2, "")
        assert err.startswith("symbreak: unknown vertex-sum family [2, 3] ")

    @pytest.mark.parametrize("rule,family,own", [
        ("cor3.8", "C5", "K3, K4, K5"), ("cor3.8", "K4-e", "K3, K4, K5"),
        ("cor3.9", "K3", "C5, C7")])
    def test_closed_vsum_rule_takes_only_its_families(self, run_cli, rule,
                                                      family, own):
        code, out, err = run_cli("verify", rule, "--grid",
                                 f"family={family},t=2..3")
        assert (code, out) == (2, "")
        assert err == (f"symbreak: rule {rule} takes family {own}, "
                       f"got {family!r}\n")

    def test_expected_disagreement_still_exits_0(self, run_cli):
        code, out, _ = run_cli("verify", "cor3.8", "--grid", "family=K4,t=2..3")
        assert code == 0
        doc = json.loads(out)
        assert doc["summary"]["disagree"] == 2


class TestTable:
    def test_range_rows(self, run_cli):
        code, out, _ = run_cli("table", "path", "2..5", "--phi-max", "2")
        assert code == 0
        doc = json.loads(out)
        assert [g["name"] for g in doc["graphs"]] == [
            "path:2",
            "path:3",
            "path:4",
            "path:5",
        ]
        assert [g["d"] for g in doc["graphs"]] == [2, 2, 2, 2]

    def test_csv_table(self, run_cli):
        code, out, _ = run_cli("table", "cycle", "3..5", "--format", "csv", "--phi-max", "1")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 4

    def test_bad_range_exits_2(self, run_cli):
        code, _, _ = run_cli("table", "path", "5..x")
        assert code == 2

    def test_reversed_range_exits_2(self, run_cli):
        code, out, err = run_cli("table", "path", "5..3")
        assert (code, out) == (2, "")
        assert "bad range '5..3'" in err

    def test_one_value_range(self, run_cli):
        code, out, _ = run_cli("table", "path", "3..3", "--phi-max", "1")
        assert code == 0
        assert [g["name"] for g in json.loads(out)["graphs"]] == ["path:3"]

    # The table subcommand widens argparse's private negative-number
    # pattern so that a range starting with "-" is read as the range
    # positional; an argparse that stops consulting it fails here.
    @pytest.mark.parametrize("args", [("-2..-1",), ("-3..4",), ("-2",),
                                      ("--phi-max", "2", "-2..-1")])
    def test_negative_range_reaches_the_range_check(self, run_cli, args):
        code, out, err = run_cli("table", "path", *args)
        assert (code, out) == (2, "")
        assert err == "symbreak: path needs at least one vertex\n"

    def test_unknown_family_exits_2(self, run_cli):
        code, _, err = run_cli("table", "moebius", "3..5")
        assert code == 2
        assert "unknown family" in err


class TestConvert:
    def test_g6_to_edgelist_stdout(self, run_cli):
        code, out, _ = run_cli("convert", "g6:Cl", "-", "--to", "edgelist")
        assert code == 0
        assert out == "4 4\n0 1\n0 3\n1 2\n2 3\n"

    def test_file_round_trip(self, run_cli, tmp_path):
        src = tmp_path / "in.g6"
        src.write_text("Cl\nBw\nD~{\n")
        mid = tmp_path / "mid.el"
        back = tmp_path / "back.g6"
        assert run_cli("convert", str(src), str(mid), "--to", "edgelist")[0] == 0
        assert run_cli("convert", str(mid), str(back), "--to", "g6")[0] == 0
        assert back.read_text() == "Cl\nBw\nD~{\n"

    def test_missing_file_exits_2(self, run_cli, tmp_path):
        code, _, err = run_cli("convert", str(tmp_path / "absent.g6"), "-", "--to", "g6")
        assert code == 2
        assert "symbreak:" in err


class TestExitCodes:
    def test_help_and_version_exit_0(self, run_cli):
        assert run_cli("--help")[0] == 0
        code, out, _ = run_cli("--version")
        assert code == 0 and out.startswith("symbreak ")

    def test_subcommand_help_exits_0(self, run_cli):
        assert run_cli("analyze", "--help")[0] == 0

    def test_no_arguments_exits_2(self, run_cli):
        assert run_cli()[0] == 2

    def test_unknown_subcommand_exits_2(self, run_cli):
        assert run_cli("nope")[0] == 2

    def test_missing_required_argument_exits_2(self, run_cli):
        assert run_cli("analyze")[0] == 2

    def test_unknown_family_exits_2(self, run_cli):
        code, _, err = run_cli("analyze", "builtin:nope")
        assert code == 2
        assert err.startswith("symbreak: ")

    def test_malformed_graph6_exits_2(self, run_cli):
        code, _, err = run_cli("analyze", "g6:A@")
        assert code == 2
        assert "symbreak:" in err

    def test_budget_exit_3_with_skip_record(self, run_cli):
        code, out, _ = run_cli("analyze", "builtin:petersen", "--max-aut", "10")
        assert code == 3
        doc = json.loads(out)
        g = doc["graphs"][0]
        assert g["skipped"] is not None and "cap 10" in g["skipped"]
        assert doc["summary"]["skipped"] == 1

    def test_budget_skip_keeps_other_graphs(self, run_cli, tmp_path):
        path = tmp_path / "mixed.g6"
        path.write_text("Bg\nI?LRCecq?\n")
        code, out, _ = run_cli("analyze", str(path), "--max-aut", "10")
        assert code == 3
        doc = json.loads(out)
        assert doc["graphs"][0]["d"] == 2
        assert doc["graphs"][1]["skipped"] is not None

    @pytest.mark.parametrize("argv", [("--phi-max", "3"), ()],
                             ids=["count", "exists"])
    def test_coloring_budget_past_64_bits(self, run_cli, argv):
        kernels._walk.cache_clear()
        code, out, err = run_cli("analyze", "builtin:petersen", *argv,
                                 "--max-colorings", str(10**20))
        assert (code, err) == (0, "")
        _, default, _ = run_cli("analyze", "builtin:petersen", *argv)
        assert json.loads(out)["graphs"] == json.loads(default)["graphs"]

    def test_vertex_budget_exit_3(self, run_cli):
        code, _, _ = run_cli("analyze", "builtin:petersen", "--max-vertices", "5")
        assert code == 3

    @pytest.mark.parametrize("spec,n", [
        ("builtin:kneser:24:12", 2704156),
        ("builtin:path:2000000", 2000000),
        ("builtin:complete:2000000", 2000000),
        ("builtin:complete:99999999999999999999", 99999999999999999999)])
    def test_family_over_vertex_cap_builds_nothing(self, run_cli, spec, n):
        tracemalloc.start()
        try:
            code, out, err = run_cli("analyze", spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3 and out == ""
        assert err == f"symbreak: graph has {n} vertices, cap is 64\n"
        assert peak < 1 << 20

    def test_table_range_over_vertex_cap_builds_no_list(self, run_cli):
        tracemalloc.start()
        try:
            code, out, err = run_cli("table", "path", "1..3000000")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3 and out == ""
        assert err == "symbreak: graph has 65 vertices, cap is 64\n"
        assert peak < 1 << 20

    @pytest.mark.parametrize("factors", [
        ("vsum", "builtin:complete:4@0", "builtin:complete:4@0",
         "builtin:complete:4@0"),
        ("rooted", "builtin:path:3", "builtin:complete:3@0"),
        ("corona", "builtin:path:3", "builtin:complete:2"),
        ("lex", "builtin:path:3", "builtin:path:3"),
    ], ids=lambda f: f[0])
    def test_product_vertex_budget_exit_3(self, run_cli, factors):
        code, out, err = run_cli("product", *factors, "--max-vertices", "8")
        assert code == 3 and out == ""
        assert err.startswith("symbreak: ") and "cap is 8" in err

    @pytest.mark.parametrize("flag,value,command", [
        pytest.param(flag, value, ("analyze", "builtin:petersen"),
                     id=f"{flag}-{value}")
        for flag, value in [("--max-aut", "0"), ("--max-colorings", "-1"),
                            ("--max-vertices", "0"), ("--phi-max", "0"),
                            ("--phi-max", "-1")]
    ] + [
        pytest.param("--phi-max", "0", ("product", "lex", "builtin:path:2",
                                        "builtin:path:2", "--emit", "json"),
                     id="product--phi-max-0"),
        pytest.param("--phi-max", "0", ("table", "path", "2..3"),
                     id="table--phi-max-0"),
    ])
    def test_nonpositive_budget_flag_exits_2(self, run_cli, flag, value,
                                             command):
        code, out, err = run_cli(*command, flag, value)
        assert code == 2 and out == ""
        assert err == f"symbreak: {flag} must be positive, got {value}\n"


def _no_parsers(*args, **kwargs):
    raise AssertionError("main built an ArgumentParser")


class TestParserBuiltOnce:
    """The parser is a module constant: main() only parses with it, and
    calls in one process do not leak arguments into each other."""

    @pytest.mark.parametrize("argv,expected", [
        (("analyze", "builtin:petersen"), 0),
        (("table", "path", "2..3", "--phi-max", "1"), 0),
        (("product", "corona", "builtin:path:2", "builtin:complete:1"), 0),
        (("verify", "thm3.7", "--grid", "K3,t=2..3"), 0),
        (("convert", "g6:Cl", "-", "--to", "edgelist"), 0),
        (("analyze",), 2),
        (("table", "--help"), 0),
    ], ids=["analyze", "table", "product", "verify", "convert",
            "usage-error", "help"])
    def test_main_builds_no_parser(self, run_cli, monkeypatch, argv,
                                   expected):
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", _no_parsers)
        assert run_cli(*argv)[0] == expected

    def test_budget_flag_does_not_outlive_its_call(self, run_cli):
        cap = limits.aut_cap()
        code, out, _ = run_cli("analyze", "builtin:petersen", "--max-aut",
                               "100")
        assert code == 3 and json.loads(out)["graphs"][0]["skipped"]
        assert limits.aut_cap() == cap
        code, out, _ = run_cli("analyze", "builtin:petersen")
        assert code == 0
        assert json.loads(out)["graphs"][0]["autOrder"] == 120

    def test_format_flag_does_not_outlive_its_call(self, run_cli):
        code, out, _ = run_cli("analyze", "builtin:cycle:5", "--format",
                               "csv")
        assert code == 0 and out.startswith("name,")
        code, out, _ = run_cli("analyze", "builtin:cycle:5")
        assert code == 0 and json.loads(out)["graphs"][0]["n"] == 5

    def test_usage_error_leaves_the_next_call_unchanged(self, run_cli):
        argv = ("analyze", "builtin:cycle:5", "--phi-max", "3", "--steady")
        code, alone, _ = run_cli(*argv)
        assert code == 0
        code, out, err = run_cli("analyze", "--phi-max", "x")
        assert (code, out) == (2, "") and "usage:" in err
        code, after, _ = run_cli(*argv)
        assert code == 0
        alone, after = json.loads(alone), json.loads(after)
        del alone["generated"], after["generated"]
        assert after == alone


class TestEnvelope:
    def test_digest_stable_across_runs(self, run_cli):
        _, out1, _ = run_cli("analyze", "builtin:cycle:5")
        _, out2, _ = run_cli("analyze", "builtin:cycle:5")
        d1, d2 = json.loads(out1), json.loads(out2)
        assert d1["digest"] == d2["digest"]
        assert d1["tool"] == "symbreak"
        assert d1["command"].startswith("symbreak analyze")

    def test_digest_tracks_content(self, run_cli):
        _, out1, _ = run_cli("analyze", "builtin:cycle:5")
        _, out2, _ = run_cli("analyze", "builtin:cycle:6")
        assert json.loads(out1)["digest"] != json.loads(out2)["digest"]


def _cli_in_fresh_process(env_name: str, env_value: str, *argv: str):
    env = dict(os.environ, **{env_name: env_value})
    return subprocess.run([sys.executable, "-m", "symbreak.cli", *argv],
                          capture_output=True, text=True, env=env)


class TestEnvOverrides:
    def test_non_integer_env_budget_exits_2(self):
        proc = _cli_in_fresh_process("SYMBREAK_MAX_AUT", "lots",
                                     "analyze", "builtin:petersen")
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == ("symbreak: SYMBREAK_MAX_AUT must be an "
                               "integer, got 'lots'\n")

    def test_nonpositive_env_budget_exits_2(self):
        proc = _cli_in_fresh_process("SYMBREAK_MAX_COLORINGS", "0",
                                     "analyze", "builtin:petersen")
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == ("symbreak: SYMBREAK_MAX_COLORINGS must be "
                               "positive, got 0\n")

    def test_version_in_fresh_process(self):
        # the parser is built at import, so this also covers its build
        proc = _cli_in_fresh_process("SYMBREAK_MAX_AUT", "10", "--version")
        assert proc.returncode == 0 and proc.stderr == ""
        assert proc.stdout.startswith("symbreak ")

    def test_bad_env_budget_does_not_break_import(self):
        env = dict(os.environ, SYMBREAK_MAX_VERTICES="-5")
        proc = subprocess.run([sys.executable, "-c", "import symbreak.cli"],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0 and proc.stderr == ""

    def test_env_budget_applies_in_fresh_process(self):
        env = dict(os.environ, SYMBREAK_MAX_AUT="10")
        proc = subprocess.run(
            [sys.executable, "-m", "symbreak.cli", "analyze", "builtin:petersen"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 3
        assert json.loads(proc.stdout)["graphs"][0]["skipped"] is not None

    def test_flag_overrides_env(self):
        env = dict(os.environ, SYMBREAK_MAX_AUT="10")
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "symbreak.cli",
                "analyze",
                "builtin:petersen",
                "--max-aut",
                "1000",
            ],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["graphs"][0]["autOrder"] == 120


_HEAVY_MODULES = ("_hashlib", "hashlib", "symbreak.verify", "symbreak.corpus",
                  "csv", "datetime", "json")

# json is imported only after the check: the report writer must not load it
_LEAN_START = f"""
import contextlib, io, sys
import symbreak.cli as cli
loaded = [m for m in {_HEAVY_MODULES!r} if m in sys.modules]
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["verify", "thm3.13"])
verify = "symbreak.verify" in sys.modules
import json
print(json.dumps({{"loaded": loaded, "code": code, "verify": verify}}))
"""


class TestLeanStart:
    def test_import_loads_no_command_only_module(self):
        # a fresh interpreter: this process has loaded all of them already
        proc = subprocess.run([sys.executable, "-c", _LEAN_START],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {"loaded": [], "code": 0,
                                           "verify": True}
