import json

import pytest

from powerdom import builtin_graph, is_power_dominating_set, write_edge_list
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

    def test_graph6_autodetect(self, capsys, tmp_path):
        path = tmp_path / "k3.g6"
        path.write_bytes(b"Bw\n")
        code, out, _ = run_cli(capsys, "pdn", str(path), "--workers", "1")
        assert code == 0
        assert out.strip() == "1"

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
