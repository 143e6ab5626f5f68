"""Tests for the command-line interface (python -m repro)."""

import json

import pytest

from repro.cli import build_parser, main


@pytest.fixture
def data_file(tmp_path):
    payload = {
        "relations": {
            "R": [["a1", "a5"], ["a2", "a1"], ["a4", "a3"], ["a4", "a2"]],
            "S": [["a1"], ["a2"], ["a3"]],
        },
    }
    path = tmp_path / "db.json"
    path.write_text(json.dumps(payload))
    return str(path)


class TestClassifyCommand:
    def test_hard_query(self, capsys):
        assert main(["classify", "h2 :- R^n(x,y), S^n(y,z), T^n(z,x)"]) == 0
        out = capsys.readouterr().out
        assert "np-hard" in out

    def test_linear_query_with_endogenous_flag(self, capsys):
        assert main(["classify", "q :- R(x,y), S(y,z)", "--endogenous", "R,S"]) == 0
        out = capsys.readouterr().out
        assert "linear" in out


class TestExplainCommand:
    def test_why_so(self, data_file, capsys):
        code = main(["explain", "--data", data_file,
                     "--query", "q(x) :- R(x, y), S(y)", "--answer", "a4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "0.50" in out and "S('a3')" in out

    def test_why_no(self, data_file, capsys):
        code = main(["explain", "--data", data_file,
                     "--query", "q(x) :- R(x, y), S(y)", "--answer", "a1",
                     "--why-no"])
        assert code == 0
        out = capsys.readouterr().out
        assert "non-answer" in out

    def test_integer_answers_are_parsed(self, tmp_path, capsys):
        payload = {"relations": {"R": [[1, 2]], "S": [[2]]}}
        path = tmp_path / "ints.json"
        path.write_text(json.dumps(payload))
        assert main(["explain", "--data", str(path),
                     "--query", "q(x) :- R(x, y), S(y)", "--answer", "1"]) == 0
        assert "1.00" in capsys.readouterr().out


class TestExplainBatchCommand:
    def test_all_answers_explained(self, data_file, capsys):
        code = main(["explain-batch", "--data", data_file,
                     "--query", "q(x) :- R(x, y), S(y)"])
        assert code == 0
        out = capsys.readouterr().out
        assert "2 answer(s)" in out
        assert "('a2',)" in out and "('a4',)" in out
        assert "0.50" in out and "1.00" in out

    def test_top_k_and_cache_stats(self, data_file, capsys):
        code = main(["explain-batch", "--data", data_file,
                     "--query", "q(x) :- R(x, y), S(y)",
                     "--top", "1", "--cache-stats"])
        assert code == 0
        out = capsys.readouterr().out
        assert "lineage cache:" in out
        # top-1: exactly one cause line per answer
        cause_lines = [l for l in out.splitlines() if l.strip().startswith("0.")
                       or l.strip().startswith("1.")]
        assert len(cause_lines) == 2

    def test_cache_stats_after_fanout_are_the_parents(self, data_file,
                                                      capsys):
        # Workers keep their caches: after a fan-out the parent did no
        # hitting-set work, and the one stats line says so.
        args = ["explain-batch", "--data", data_file,
                "--query", "q(x) :- R(x, y), S(y)", "--method", "exact",
                "--cache-stats"]
        assert main(args) == 0
        serial = [l for l in capsys.readouterr().out.splitlines()
                  if l.startswith("lineage cache")]
        assert main(args + ["--workers", "2"]) == 0
        pooled = [l for l in capsys.readouterr().out.splitlines()
                  if l.startswith("lineage cache")]
        assert len(serial) == 1 and "0 entries" not in serial[0]
        assert pooled == ["lineage cache: 0 entries in the parent process, "
                          "0 hits / 0 misses (0% hit rate)"]

    def test_query_without_answers(self, data_file, capsys):
        code = main(["explain-batch", "--data", data_file,
                     "--query", "q(x) :- R(x, 'a9'), S(x)"])
        assert code == 0
        assert "no answers" in capsys.readouterr().out

    def test_sqlite_backend_output_matches_memory(self, data_file, capsys):
        args = ["explain-batch", "--data", data_file,
                "--query", "q(x) :- R(x, y), S(y)"]
        assert main(args) == 0
        memory_out = capsys.readouterr().out
        assert main(args + ["--backend", "sqlite"]) == 0
        assert capsys.readouterr().out == memory_out


class TestExplainBatchWhyNoCommand:
    def test_explicit_non_answers(self, data_file, capsys):
        code = main(["explain-batch", "--data", data_file,
                     "--query", "q(x) :- R(x, y), S(y)", "--mode", "why-no",
                     "--non-answer", "a1", "--non-answer", "a9",
                     "--domain", "y=a1,a2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "2 missing answer(s)" in out
        assert "missing answer ('a1',)" in out
        assert "missing answer ('a9',)" in out
        assert "R('a1', 'a1')" in out

    def test_missing_answers_enumerated_without_non_answer_flag(
            self, data_file, capsys):
        code = main(["explain-batch", "--data", data_file,
                     "--query", "q(x) :- R(x, y), S(y)", "--mode", "why-no",
                     "--domain", "x=a1,a2", "--domain", "y=a1"])
        assert code == 0
        out = capsys.readouterr().out
        # a2 is an answer, so only a1 is missing within the head domain.
        assert "1 missing answer(s)" in out
        assert "missing answer ('a1',)" in out

    def test_matches_single_why_no_ranking(self, data_file, capsys):
        assert main(["explain", "--data", data_file,
                     "--query", "q(x) :- R(x, y), S(y)", "--answer", "a1",
                     "--why-no"]) == 0
        single_out = capsys.readouterr().out
        single_table = single_out.split("ρ_t")[1]
        assert main(["explain-batch", "--data", data_file,
                     "--query", "q(x) :- R(x, y), S(y)", "--mode", "why-no",
                     "--non-answer", "a1"]) == 0
        batch_out = capsys.readouterr().out
        assert batch_out.split("ρ_t")[1] == single_table

    def test_sqlite_backend_output_matches_memory(self, data_file, capsys):
        args = ["explain-batch", "--data", data_file,
                "--query", "q(x) :- R(x, y), S(y)", "--mode", "why-no",
                "--non-answer", "a1", "--non-answer", "a3",
                "--domain", "y=a1,a2,a3"]
        assert main(args) == 0
        memory_out = capsys.readouterr().out
        assert main(args + ["--backend", "sqlite"]) == 0
        assert capsys.readouterr().out == memory_out

    def test_actual_answer_rejected(self, data_file):
        from repro.exceptions import CausalityError
        with pytest.raises(CausalityError):
            main(["explain-batch", "--data", data_file,
                  "--query", "q(x) :- R(x, y), S(y)", "--mode", "why-no",
                  "--non-answer", "a4"])


class TestExplainBackendFlag:
    def test_why_so_sqlite(self, data_file, capsys):
        args = ["explain", "--data", data_file,
                "--query", "q(x) :- R(x, y), S(y)", "--answer", "a4"]
        assert main(args) == 0
        memory_out = capsys.readouterr().out
        assert main(args + ["--backend", "sqlite"]) == 0
        assert capsys.readouterr().out == memory_out

    def test_why_no_sqlite(self, data_file, capsys):
        args = ["explain", "--data", data_file,
                "--query", "q(x) :- R(x, y), S(y)", "--answer", "a1",
                "--why-no"]
        assert main(args) == 0
        memory_out = capsys.readouterr().out
        assert main(args + ["--backend", "sqlite"]) == 0
        assert capsys.readouterr().out == memory_out


class TestDemoCommand:
    def test_demo_prints_figure_2b(self, capsys):
        assert main(["demo", "--padding", "0"]) == 0
        out = capsys.readouterr().out
        assert "0.33" in out and "0.20" in out


class TestParser:
    def test_subcommand_required(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([])

    @pytest.mark.parametrize("command", [
        ["explain-batch", "--data", "db.json", "--query", "q(x) :- R(x)"],
        ["serve"]])
    @pytest.mark.parametrize("workers", ["0", "-2", "two"])
    def test_workers_must_be_a_positive_int(self, command, workers, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(command + ["--workers", workers])
        assert "--workers" in capsys.readouterr().err
