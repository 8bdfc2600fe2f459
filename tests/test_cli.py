import json
import re
import sys

import pytest

from powerdom import (
    builtin_graph,
    is_power_dominating_set,
    parse_edge_list,
    solve,
    write_edge_list,
)
from powerdom.cli import main

import children


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPdnCommand:
    def test_builtin_plain(self, capsys):
        code, out, _ = run_cli(capsys, "pdn", "--builtin", "zim", "--workers", "1")
        assert code == 0
        assert out.strip() == "2"

    def test_builtin_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "pdn", "--builtin", "ieee39", "--workers", "1", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["pdn"] == 5
        assert payload["diagnostics"]["N"] == 92171
        assert payload["diagnostics"]["N_prime"] == 12
        assert payload["diagnostics"]["removed"] == 2
        assert payload["timing_ms"] >= 0

    def test_edge_list_file(self, capsys, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text(write_edge_list(builtin_graph("fig3")))
        code, out, _ = run_cli(capsys, "pdn", str(path), "--workers", "1")
        assert code == 0
        assert out.strip() == "1"

    def test_edge_list_with_byte_order_mark(self, capsys, tmp_path):
        path = tmp_path / "bom.txt"
        path.write_bytes(b"\xef\xbb\xbf1 2\n2 3\n3 1\n")
        code, out, _ = run_cli(capsys, "pdn", str(path), "--workers", "1", "--json")
        assert code == 0
        assert [c["nodes"] for c in json.loads(out)["components"]] == [["1", "2", "3"]]

    @pytest.mark.parametrize("fmt", ["auto", "graph6"])
    def test_graph6_with_byte_order_mark(self, capsys, tmp_path, fmt):
        # D?{ is the star K_{1,4}: one PMU at its center
        path = tmp_path / "bom.g6"
        path.write_bytes(b"\xef\xbb\xbfD?{\n")
        code, out, _ = run_cli(capsys, "pdn", str(path), "--workers", "1", "--format", fmt)
        assert code == 0
        assert out.strip() == "1"

    def test_graph6_autodetect(self, capsys, tmp_path):
        path = tmp_path / "k3.g6"
        path.write_bytes(b"Bw\n")
        code, out, _ = run_cli(capsys, "pdn", str(path), "--workers", "1")
        assert code == 0
        assert out.strip() == "1"

    def test_empty_file_prints_zero(self, capsys, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_bytes(b"")
        assert run_cli(capsys, "pdn", str(path), "--workers", "1") == (0, "0\n", "")

    def test_non_utf8_edge_list_exits_2(self, capsys, tmp_path):
        path = tmp_path / "latin1.txt"
        path.write_bytes("caf\u00e9 1\n1 2\n".encode("latin-1"))
        code, out, err = run_cli(capsys, "pdn", str(path))
        assert code == 2
        assert out == ""
        assert "not valid UTF-8" in err

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "pdn", str(tmp_path / "none.txt"))
        assert code == 2
        assert "error" in err

    def test_malformed_graph6_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.g6"
        path.write_bytes(b">>graph6<<D")
        code, _, err = run_cli(capsys, "pdn", str(path))
        assert code == 2
        assert "error" in err

    def test_input_file_with_builtin_exits_2(self, capsys, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text(write_edge_list(builtin_graph("fig3")))
        code, out, err = run_cli(capsys, "pdn", "--builtin", "zim", str(path))
        assert code == 2
        assert out == ""
        assert "not both" in err

    def test_no_input_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "pdn")
        assert code == 2
        assert "error" in err

    def test_broken_reduction_exits_3(self, capsys, monkeypatch):
        import powerdom.search

        monkeypatch.setattr(powerdom.search, "candidate_list", lambda g, pref: [])
        code, out, err = run_cli(capsys, "pdn", "--builtin", "ieee39")
        assert code == 3
        assert out == ""
        assert err == "internal error: exhausted all subsets without finding a PDS\n"


class TestDiagnosticsOutput:
    @pytest.mark.parametrize("command", ["pdn", "minpds", "analyze"])
    def test_json_has_every_diagnostics_field(self, capsys, command):
        code, out, _ = run_cli(
            capsys, command, "--builtin", "ieee39", "--workers", "1", "--json"
        )
        assert code == 0
        diag = json.loads(out)["diagnostics"]
        assert len(diag) == 9
        assert diag["subsets_checked"] == 14
        assert diag["levels_completed"] == 1

    def test_analyze_text_reports_levels_completed(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--builtin", "ieee39", "--workers", "1")
        assert code == 0
        assert "subsets_checked=14 levels_completed=1" in out


class TestMinPdsCommand:
    def test_zim_placement(self, capsys, zim):
        code, out, _ = run_cli(capsys, "minpds", "--builtin", "zim", "--workers", "1")
        assert code == 0
        pds = json.loads(out)
        assert pds == ["9", "5"]
        assert is_power_dominating_set(zim, pds)

    def test_json_round_trip_verifies(self, capsys, ieee39):
        code, out, _ = run_cli(
            capsys, "minpds", "--builtin", "ieee39", "--workers", "1", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["pds"]) == payload["pdn"] == 5
        assert is_power_dominating_set(ieee39, payload["pds"])


class TestAllMinPdsCommand:
    def test_zim_set_count(self, capsys):
        code, out, _ = run_cli(
            capsys, "allminpds", "--builtin", "zim", "--workers", "1", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["pdn"] == 2
        assert len(payload["sets"]) == 13

    def test_plain_prints_one_set_per_line(self, capsys, zim):
        code, out, _ = run_cli(capsys, "allminpds", "--builtin", "zim", "--workers", "1")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 13
        for line in lines:
            assert is_power_dominating_set(zim, json.loads(line))

    def test_dead_pool_worker_exits_3(self):
        code, out, err = children.run(
            children.DYING_WORKER
            + """
import sys
from powerdom.cli import main
sys.exit(main(["allminpds", "--builtin", "zim", "--workers", "2"]))
"""
        )
        assert code == 3
        assert out == ""
        assert err == "internal error: a pool worker died\n"


class TestAnalyzeCommand:
    def test_zim_json_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "analyze", "--builtin", "zim", "--workers", "1", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        comp = payload["analysis"][0]
        assert comp["preferred"]["f_preferred"] == ["9"]
        assert comp["preferred"]["forts"]["9"] == ["10", "11"]
        assert [c["node"] for c in comp["candidates"]] == ["5", "7", "2"]

    def test_plain_text_mentions_pref(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--builtin", "zim", "--workers", "1")
        assert code == 0
        assert "pref: ['9']" in out
        assert "pdn: 2" in out

    def test_path_reported_trivial(self, capsys, tmp_path, path5):
        path = tmp_path / "p5.txt"
        path.write_text(write_edge_list(path5))
        code, out, _ = run_cli(
            capsys, "analyze", str(path), "--workers", "1", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert "trivial" in payload["analysis"][0]

    def test_plain_text_notes_a_cycle_component(self, capsys, tmp_path):
        # zim plus a disjoint 4-cycle: the cycle gets the note, zim its reports
        path = tmp_path / "g.txt"
        cycle = "c0 c1\nc1 c2\nc2 c3\nc3 c0\n"
        path.write_text(write_edge_list(builtin_graph("zim")) + cycle)
        code, out, _ = run_cli(capsys, "analyze", str(path), "--workers", "1")
        assert code == 0
        lines = out.splitlines()
        note = "  path or cycle: any single node is a power dominating set"
        assert lines.count(note) == 1
        assert lines[lines.index(note) - 1].endswith(": 4 nodes")
        assert "pref: ['9']" in out
        assert "pdn: 3" in out

    def test_plain_text_naive_note(self, capsys):
        code, out, _ = run_cli(
            capsys, "analyze", "--builtin", "zim", "--workers", "1", "--mode", "naive"
        )
        assert code == 0
        assert out.splitlines()[1:3] == [
            "component 0: 11 nodes",
            "  naive mode: no pre-processing ran; every node was a candidate",
        ]
        assert "contraction" not in out and "pref:" not in out

    def test_naive_mode_reports_no_preprocessing(self, capsys):
        code, out, _ = run_cli(
            capsys, "analyze", "--builtin", "zim", "--workers", "1",
            "--mode", "naive", "--json",
        )
        assert code == 0
        comp = json.loads(out)["analysis"][0]
        assert "naive" in comp
        assert "contraction" not in comp and "preferred" not in comp

    def test_reports_the_solve_pipeline_without_rerunning_it(self, capsys, monkeypatch):
        import powerdom.cli
        import powerdom.reduction
        import powerdom.search

        calls = []
        real = powerdom.reduction.preferred_nodes

        def counting(g):
            calls.append(g.node_count)
            return real(g)

        for mod in (powerdom.reduction, powerdom.search, powerdom.cli):
            if hasattr(mod, "preferred_nodes"):
                monkeypatch.setattr(mod, "preferred_nodes", counting)
        code, _, _ = run_cli(capsys, "analyze", "--builtin", "zim", "--workers", "1")
        assert code == 0
        assert len(calls) == 1


class TestWorkersDeterminism:
    def test_json_identical_apart_from_timing(self, capsys):
        payloads = []
        for w in ("1", "8"):
            _, out, _ = run_cli(
                capsys, "pdn", "--builtin", "ieee39", "--workers", w, "--json"
            )
            payload = json.loads(out)
            payload.pop("timing_ms")
            payloads.append(payload)
        assert payloads[0] == payloads[1]

    def test_env_variable_sets_worker_count(self, capsys, monkeypatch):
        monkeypatch.setenv("PDT_WORKERS", "2")
        code, out, _ = run_cli(capsys, "pdn", "--builtin", "zim")
        assert code == 0
        assert out.strip() == "2"

    @pytest.mark.parametrize("w", ["0", "-1"])
    def test_nonpositive_workers_flag_exits_2(self, capsys, monkeypatch, w):
        monkeypatch.setenv("PDT_WORKERS", "1")
        code, _, err = run_cli(capsys, "pdn", "--builtin", "zim", "--workers", w)
        assert code == 2
        assert "workers must be >= 1" in err

    def test_zero_env_value_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("PDT_WORKERS", "0")
        code, out, err = run_cli(capsys, "pdn", "--builtin", "zim")
        assert (code, out) == (2, "")
        assert "PDT_WORKERS must be >= 1" in err

    def test_bad_env_value_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("PDT_WORKERS", "zero")
        code, _, err = run_cli(capsys, "pdn", "--builtin", "zim")
        assert code == 2
        assert "PDT_WORKERS" in err


class TestConvertCommand:
    def test_edgelist_to_graph6_and_back(self, capsys, tmp_path, zim):
        src = tmp_path / "zim.txt"
        src.write_text(write_edge_list(zim))
        g6 = tmp_path / "zim.g6"
        code, _, _ = run_cli(capsys, "convert", str(src), "--to", "graph6",
                             "--output", str(g6))
        assert code == 0
        back = tmp_path / "back.txt"
        code, _, _ = run_cli(capsys, "convert", str(g6), "--to", "edgelist",
                             "--output", str(back))
        assert code == 0
        # labels become indices, so compare as unlabelled structures
        from powerdom import parse_edge_list

        round_tripped = parse_edge_list(back.read_text())
        assert round_tripped.node_count == zim.node_count
        assert round_tripped.edge_count == zim.edge_count

    def test_isolated_nodes_to_edgelist_exit_2(self, capsys, tmp_path):
        src = tmp_path / "iso.g6"
        src.write_text("D?_\n")
        out_file = tmp_path / "iso.txt"
        code, out, err = run_cli(capsys, "convert", str(src), "--to", "edgelist",
                                 "--output", str(out_file))
        assert code == 2
        assert "isolated" in err
        assert not out_file.exists()
        code, out, err = run_cli(capsys, "convert", str(src), "--to", "edgelist")
        assert code == 2
        assert out == ""

    def test_label_starting_with_hash_to_edgelist_exit_2(self, capsys, tmp_path):
        # written as "#x a", node #x would read back as a comment and be lost
        src = tmp_path / "p4.txt"
        src.write_text("a #x\nb a\n")
        code, out, err = run_cli(capsys, "convert", str(src), "--to", "edgelist")
        assert code == 2
        assert out == ""
        assert "'#x'" in err

    def test_builtin_to_stdout(self, capsys):
        code, out, _ = run_cli(capsys, "convert", "--builtin", "fig3", "--to", "graph6")
        assert code == 0
        assert out.strip()
        from powerdom import parse_graph6

        assert parse_graph6(out.strip().encode()).node_count == 5


def test_bench_is_not_a_command(capsys):
    # benchmarking lives in bench/run.py
    with pytest.raises(SystemExit) as exc:
        main(["bench"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


class TestFormatOverride:
    def test_force_edgelist_on_ambiguous_single_line(self, capsys, tmp_path):
        # single-token line would autodetect as graph6; override wins
        path = tmp_path / "weird.txt"
        path.write_text("1 2\n")
        code, out, _ = run_cli(
            capsys, "pdn", str(path), "--format", "edgelist", "--workers", "1"
        )
        assert code == 0
        assert out.strip() == "1"

    def test_force_graph6_on_bad_bytes_fails(self, capsys, tmp_path):
        path = tmp_path / "weird.txt"
        path.write_text("1 2\n")
        code, _, _ = run_cli(capsys, "pdn", str(path), "--format", "graph6")
        assert code == 2


# The whole output of each command, "T" standing for the timing. zim+c4 is
# zim plus a disjoint 4-cycle c0 c1 c2 c3.
PINNED_OUTPUT = {
    "analyze zim": """\
nodes: 11  edges: 15  components: 1
component 0: 11 nodes
  contraction removed 0 node(s): []
  b-preferred: []
  f-preferred: ['9']
    fort of 9: ['10', '11']
  p-preferred: None
  pref: ['9']
  candidates (ordered):
    5: degree 4, pref distance 1, score 4.5000
    7: degree 4, pref distance 1, score 4.5000
    2: degree 3, pref distance 2, score 3.6667
pdn: 2  pds: ['9', '5']
diagnostics: N=12 N'=1 p=1 d=6 r=1 candidates=3 removed=0 subsets_checked=2 levels_completed=0
""",
    "analyze zim --json": (
        '{"pdn": 2, "pds": ["9", "5"], "components": [{"nodes": ["1", "10", "11",'
        ' "2", "3", "4", "5", "6", "7", "8", "9"], "pdn": 2, "pds": ["9", "5"]}],'
        ' "diagnostics": {"N": 12, "N_prime": 1, "p": 1, "d": 6, "r": 1, '
        '"candidates": 3, "removed": 0, "subsets_checked": 2, '
        '"levels_completed": 0}, "timing_ms": T, "analysis": [{"nodes": ["1", '
        '"10", "11", "2", "3", "4", "5", "6", "7", "8", "9"], "node_count": 11, '
        '"contraction": {"removed": [], "rules": {}, "contracted_nodes": 11, '
        '"contracted_edges": 15}, "preferred": {"b_preferred": [], '
        '"f_preferred": ["9"], "forts": {"9": ["10", "11"]}, "p_preferred": null,'
        ' "pref": ["9"]}, "candidates": [{"node": "5", "degree": 4, '
        '"pref_distance": 1, "score": "4.5000"}, {"node": "7", "degree": 4, '
        '"pref_distance": 1, "score": "4.5000"}, {"node": "2", "degree": 3, '
        '"pref_distance": 2, "score": "3.6667"}]}]}\n'
    ),
    "analyze zim+c4": """\
nodes: 15  edges: 19  components: 2
component 0: 11 nodes
  contraction removed 0 node(s): []
  b-preferred: []
  f-preferred: ['9']
    fort of 9: ['10', '11']
  p-preferred: None
  pref: ['9']
  candidates (ordered):
    5: degree 4, pref distance 1, score 4.5000
    7: degree 4, pref distance 1, score 4.5000
    2: degree 3, pref distance 2, score 3.6667
component 1: 4 nodes
  path or cycle: any single node is a power dominating set
pdn: 3  pds: ['9', '5', 'c0']
diagnostics: N=121 N'=4 p=1 d=10 r=1 candidates=3 removed=0 subsets_checked=2 levels_completed=0
""",
    "analyze zim+c4 --json": (
        '{"pdn": 3, "pds": ["9", "5", "c0"], "components": [{"nodes": ["1", "10",'
        ' "11", "2", "3", "4", "5", "6", "7", "8", "9"], "pdn": 2, "pds": ["9", '
        '"5"]}, {"nodes": ["c0", "c1", "c2", "c3"], "pdn": 1, "pds": ["c0"]}], '
        '"diagnostics": {"N": 121, "N_prime": 4, "p": 1, "d": 10, "r": 1, '
        '"candidates": 3, "removed": 0, "subsets_checked": 2, '
        '"levels_completed": 0}, "timing_ms": T, "analysis": [{"nodes": ["1", '
        '"10", "11", "2", "3", "4", "5", "6", "7", "8", "9"], "node_count": 11, '
        '"contraction": {"removed": [], "rules": {}, "contracted_nodes": 11, '
        '"contracted_edges": 15}, "preferred": {"b_preferred": [], '
        '"f_preferred": ["9"], "forts": {"9": ["10", "11"]}, "p_preferred": null,'
        ' "pref": ["9"]}, "candidates": [{"node": "5", "degree": 4, '
        '"pref_distance": 1, "score": "4.5000"}, {"node": "7", "degree": 4, '
        '"pref_distance": 1, "score": "4.5000"}, {"node": "2", "degree": 3, '
        '"pref_distance": 2, "score": "3.6667"}]}, {"nodes": ["c0", "c1", "c2", '
        '"c3"], "node_count": 4, "trivial": "path or cycle: any single node is a '
        'power dominating set"}]}\n'
    ),
    "analyze zim --mode naive": """\
nodes: 11  edges: 15  components: 1
component 0: 11 nodes
  naive mode: no pre-processing ran; every node was a candidate
pdn: 2  pds: ['1', '9']
diagnostics: N=12 N'=12 p=0 d=0 r=0 candidates=11 removed=0 subsets_checked=21 levels_completed=1
""",
    "analyze zim --mode naive --json": (
        '{"pdn": 2, "pds": ["1", "9"], "components": [{"nodes": ["1", "10", "11",'
        ' "2", "3", "4", "5", "6", "7", "8", "9"], "pdn": 2, "pds": ["1", "9"]}],'
        ' "diagnostics": {"N": 12, "N_prime": 12, "p": 0, "d": 0, "r": 0, '
        '"candidates": 11, "removed": 0, "subsets_checked": 21, '
        '"levels_completed": 1}, "timing_ms": T, "analysis": [{"nodes": ["1", '
        '"10", "11", "2", "3", "4", "5", "6", "7", "8", "9"], "node_count": 11, '
        '"naive": "naive mode: no pre-processing ran; every node was a '
        'candidate"}]}\n'
    ),
    "pdn ieee39": '5\n',
    "minpds ieee39": '["16", "19", "26", "6", "11"]\n',
}


class TestWholeOutput:
    @pytest.mark.parametrize("key", list(PINNED_OUTPUT))
    def test_output_is_pinned(self, capsys, tmp_path, key):
        command, graph, *flags = key.split()
        if graph == "zim+c4":
            path = tmp_path / "g.txt"
            path.write_text(write_edge_list(builtin_graph("zim")) + "c0 c1\nc1 c2\nc2 c3\nc3 c0\n")
            source = [str(path)]
        else:
            source = ["--builtin", graph]
        code, out, err = run_cli(capsys, command, *source, "--workers", "1", *flags)
        assert (code, err) == (0, "")
        assert re.sub(r'"timing_ms": [^,}]+', '"timing_ms": T', out) == PINNED_OUTPUT[key]


class TestExactIntegers:
    def test_any_integer_prints_exactly(self, capsys, tmp_path):
        """N of 1,000 disjoint K_{1,3} stars has 975 digits, past a limit of
        640 on int-to-text conversion, which the output alone lifts."""
        path = tmp_path / "stars.txt"
        path.write_text("".join(f"c{s} l{s}.{i}\n" for s in range(1000) for i in range(3)))
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            runs = [
                run_cli(capsys, *command, str(path), "--workers", "1")
                for command in (["pdn", "--json"], ["analyze"], ["analyze", "--json"])
            ]
            after = sys.get_int_max_str_digits()
        finally:
            sys.set_int_max_str_digits(limit)
        assert after == 640
        n_formula = solve(parse_edge_list(path.read_text())).diagnostics.n_formula
        assert len(str(n_formula)) == 975
        assert [(code, err) for code, _, err in runs] == [(0, "")] * 3
        (_, pdn_json, _), (_, text, _), (_, analyze_json, _) = runs
        assert json.loads(pdn_json)["diagnostics"]["N"] == n_formula
        assert json.loads(analyze_json)["diagnostics"]["N"] == n_formula
        assert f"diagnostics: N={n_formula} N'=" in text
