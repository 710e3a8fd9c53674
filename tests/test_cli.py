"""Command line behaviour: formats, determinism, exit codes."""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from biasrank import cli, laws
from biasrank.cli import main
from biasrank.gf import PrimeField
from biasrank.rng import substream
from biasrank.tensor import parse_tensor, random_tensor, serialize_tensor


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def identity_file(tmp_path):
    path = tmp_path / "id13.txt"
    path.write_text("2 1 3\n0 0 0 1\n")
    return str(path)


class TestGen:
    def test_identity_entries(self, capsys):
        code, out, _ = run(capsys, "gen", "--p", "2", "--n", "2", "--d", "3", "--identity")
        assert code == 0
        assert out == "2 2 3\n0 0 0 1\n1 1 1 1\n"

    def test_seeded_is_byte_identical(self, capsys):
        args = ("gen", "--p", "3", "--n", "2", "--d", "3", "--seed", "99")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_diagonal_infers_dimension(self, capsys):
        code, out, _ = run(capsys, "gen", "--p", "3", "--d", "3", "--diagonal", "1,2")
        assert code == 0
        assert out == "3 2 3\n0 0 0 1\n1 1 1 2\n"

    def test_round_trip_parse(self, capsys):
        _, out, _ = run(capsys, "gen", "--p", "5", "--n", "2", "--d", "2", "--seed", "4")
        t = parse_tensor(out)
        assert serialize_tensor(t) == out


class TestBias:
    def test_all_engines_agree(self, capsys, identity_file):
        code, out, _ = run(capsys, "bias", identity_file, "--method", "all")
        assert code == 0
        assert "fiber: 3 / 2^2" in out
        assert "recursive: 3 / 2^2" in out
        assert "histogram: 3 / 2^2" in out
        assert "engines agree" in out

    def test_single_method(self, capsys, identity_file):
        code, out, _ = run(capsys, "bias", identity_file)
        assert code == 0 and "3 / 2^2 = 0.750000000000" in out

    def test_json_matches_text_numbers(self, capsys, identity_file):
        _, text_out, _ = run(capsys, "bias", identity_file, "--method", "fiber")
        _, json_out, _ = run(capsys, "bias", identity_file, "--method", "fiber",
                             "--format", "json")
        payload = json.loads(json_out)
        fiber = payload["results"]["fiber"]
        assert fiber["numerator"] == 3 and fiber["exponent"] == 2 and fiber["base"] == 2
        assert f"{fiber['decimal']:.12f}" in text_out

    def test_budget_exit_code(self, capsys, tmp_path):
        path = tmp_path / "big.txt"
        path.write_text(serialize_tensor(random_tensor(PrimeField(2), 4, 3, 0)))
        code, _, err = run(capsys, "bias", str(path), "--budget", "10")
        assert code == 3 and "budget" in err

    def test_parse_error_exit_code(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 2\n")
        code, _, err = run(capsys, "bias", str(path))
        assert code == 2 and "line 1" in err

    def test_dimension_zero_tensor(self, capsys, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("2 0 3\n")
        code, out, _ = run(capsys, "bias", str(path))
        assert code == 0 and "1 / 2^0" in out

    def test_missing_file_exit_code(self, capsys):
        code, _, err = run(capsys, "bias", "/nonexistent/tensor.txt")
        assert code == 2

    def test_oversized_header_exit_code(self, capsys, tmp_path):
        path = tmp_path / "huge.txt"
        path.write_text("2 3000 3\n")
        code, _, err = run(capsys, "bias", str(path))
        assert code == 2 and "line 1" in err


class TestArank:
    def test_identity_value(self, capsys, identity_file):
        code, out, _ = run(capsys, "arank", identity_file)
        assert code == 0
        assert "arank = 0.415037499279" in out
        assert "bias  = 3 / 2^2" in out

    def test_zero_tensor(self, capsys, tmp_path):
        path = tmp_path / "zero.txt"
        path.write_text("2 2 3\n")
        _, out, _ = run(capsys, "arank", str(path))
        assert "arank = 0.000000000000" in out

    def test_infinite_for_nonzero_linear_form(self, capsys, tmp_path):
        path = tmp_path / "lin.txt"
        path.write_text("3 2 1\n0 1\n")
        _, out, _ = run(capsys, "arank", str(path))
        assert "arank = inf" in out

    def test_diagonal_bilinear_rank_three(self, capsys, tmp_path):
        path = tmp_path / "diag3.txt"
        path.write_text("5 3 2\n0 0 1\n1 1 1\n2 2 1\n")
        _, out, _ = run(capsys, "arank", str(path))
        assert "arank = 3.000000000000" in out


class TestConstant:
    def test_known_values(self, capsys):
        code, out, _ = run(capsys, "constant", "--d", "3", "--q", "2")
        assert code == 0
        assert "c(3, 2) = 0.415037499279" in out
        assert "bound 2^-d = 0.125000000000" in out
        assert "(trivial)" in out

    def test_order_two(self, capsys):
        _, out, _ = run(capsys, "constant", "--d", "2", "--q", "7")
        assert "c(2, 7) = 1.000000000000" in out


class TestRank:
    def test_identity_prank_exact(self, capsys, tmp_path):
        path = tmp_path / "id23.txt"
        path.write_text("2 2 3\n0 0 0 1\n1 1 1 1\n")
        code, out, _ = run(capsys, "rank", str(path), "--kind", "prank", "--exact")
        assert code == 0 and "prank = 2 (exact)" in out

    def test_zero_tensor(self, capsys, tmp_path):
        path = tmp_path / "zero.txt"
        path.write_text("2 2 3\n")
        _, out, _ = run(capsys, "rank", str(path), "--kind", "rank")
        assert "rank = 0 (exact)" in out

    def test_identity5_bounds(self, capsys, tmp_path):
        path = tmp_path / "id53.txt"
        lines = ["2 5 3"] + [f"{i} {i} {i} 1" for i in range(5)]
        path.write_text("\n".join(lines) + "\n")
        code, out, _ = run(capsys, "rank", str(path), "--kind", "prank", "--bounds")
        assert code == 0
        assert "prank in [3, 5]" in out
        assert "analytic-rank" in out and "greedy" in out


class TestMaxindep:
    def test_identity(self, capsys, tmp_path):
        path = tmp_path / "id33.txt"
        lines = ["2 3 3"] + [f"{i} {i} {i} 1" for i in range(3)]
        path.write_text("\n".join(lines) + "\n")
        code, out, _ = run(capsys, "maxindep", str(path))
        assert code == 0
        assert "independent set = {0, 1, 2}" in out
        assert "size = 3" in out
        assert "1.245112497837" in out  # 3 * c(3, 2)

    def test_zero(self, capsys, tmp_path):
        path = tmp_path / "zero.txt"
        path.write_text("2 3 3\n")
        _, out, _ = run(capsys, "maxindep", str(path))
        assert "independent set = {}" in out and "size = 0" in out


class TestCheck:
    def test_exhaustive_subadditivity(self, capsys):
        code, out, _ = run(capsys, "check", "subadditivity", "--exhaustive",
                           "--p", "2", "--n", "2", "--d", "3")
        assert code == 0
        assert "holds" in out and "checked=65536" in out

    def test_exhaustive_pairs_are_charged_to_the_budget(self, capsys):
        # (2,2,4) has 2^16 tensors, so 2^32 pairs; refused before the cube is built
        start = time.perf_counter()
        code, out, err = run(capsys, "check", "subadditivity", "--exhaustive",
                             "--p", "2", "--n", "2", "--d", "4")
        assert (code, out) == (3, "")
        assert err == "error: exhaustive pairs needs 4294967296 evaluations, budget is 100000000\n"
        assert time.perf_counter() - start < 5

    def test_correlation_with_seed(self, capsys):
        code, out, _ = run(capsys, "check", "correlation", "--trials", "60",
                           "--seed", "7", "--p", "2", "--n", "2", "--d", "2")
        assert code == 0 and "holds" in out

    def test_all_zero_trials_vacuous(self, capsys):
        code, out, _ = run(capsys, "check", "all", "--trials", "0")
        assert code == 0
        assert "vacuous" in out
        assert "VIOLATED" not in out

    def test_unknown_law_usage_error(self, capsys):
        code, _, err = run(capsys, "check", "nonsense")
        assert code == 2 and "unknown law" in err

    def test_exhaustive_random_only_law_rejected(self, capsys):
        code, _, err = run(capsys, "check", "lemma-bias", "--exhaustive",
                           "--p", "2", "--n", "2", "--d", "3")
        assert code == 2

    def test_arank_le_prank_refuses_over_the_listing_cap(self, capsys):
        # no listing caps the rank-one checks, and every prank at (3,3,3) is exact
        assert run(capsys, "check", "arank-le-prank", "--p", "3", "--n", "3", "--d", "3",
                   "--trials", "20") == (
            0, "arank-le-prank         holds    checked=40 min_slack=0.741878647  "
               "[random trials=20 seed=0 p=3 n=3 d=3]\n"
               "                       note: rank-one tensors with bias >= 1/q: 20/20\n", "")

    def test_a_law_entered_in_the_table_runs_with_no_cli_edit(self, capsys, monkeypatch):
        def law_demo(field, dim, order, *, trials, seed=0, budget=0):
            return laws.LawResult("demo", f"demo p={field.p} n={dim} d={order} trials={trials} "
                                  f"seed={seed}", True, trials)

        monkeypatch.setitem(laws.LAWS, "demo", law_demo)
        monkeypatch.setitem(laws.LAW_UNIVERSES, "demo",
                            ((1, 2), ({"p": 3, "n": 1, "d": 2, "trials": 5},)))
        line = "demo                   holds    checked={}  [demo p={} n={} d={} trials={} seed={}]\n"
        assert run(capsys, "check", "demo") == (0, line.format(5, 3, 1, 2, 5, 0), "")
        code, out, err = run(capsys, "check", "all", "--p", "2", "--n", "2", "--d", "2",
                             "--trials", "2")
        assert (code, err) == (0, "")
        assert out.endswith(line.format(2, 2, 2, 2, 2, 0)) and out.count("demo") == 2
        assert run(capsys, "check", "demo", "--exhaustive") == (
            2, "", "error: law demo has no exhaustive universe\n")
        assert run(capsys, "check", "demo", "--p", "2", "--n", "2", "--d", "1") == (
            2, "", "error: --d must be at least 2, got 1\n")

    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "check", "basis-invariance", "--trials", "20",
                           "--seed", "3", "--p", "2", "--n", "2", "--d", "3",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload[0]["law"] == "basis-invariance"
        assert payload[0]["holds"] is True

    def test_check_reports_are_deterministic(self, capsys):
        args = ("check", "subadditivity", "--trials", "50", "--seed", "12",
                "--p", "3", "--n", "2", "--d", "3")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second


class TestSurvey:
    def test_identity_family(self, capsys):
        code, out, _ = run(capsys, "survey", "--p", "2", "--d", "3",
                           "--identity-max", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("label\t")
        assert len(lines) == 5
        assert "2.409421" in lines[-1]

    def test_identity_family_is_exact_to_five(self, capsys):
        code, out, _ = run(capsys, "survey", "--p", "2", "--d", "3", "--identity-max", "5")
        assert code == 0
        rows = [line.split("\t") for line in out.splitlines()[1:-1]]
        assert [row[2:5] for row in rows] == [[str(n), str(n), "1"] for n in range(1, 6)]

    def test_infinite_analytic_rank_has_no_ratio(self, capsys):
        # a nonzero linear form has bias 0, so prank / arank is undefined
        code, out, _ = run(capsys, "survey", "--p", "2", "--d", "1", "--identity-max", "3")
        assert code == 0
        lines = out.splitlines()
        assert [line.split("\t")[1:] for line in lines[1:-1]] == [["inf", "1", "1", "1", ""]] * 3
        assert lines[-1].startswith("# max_ratio = n/a over 3 rows")

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "table.tsv"
        code, out, _ = run(capsys, "survey", "--p", "2", "--n", "1", "--d", "3",
                           "--exhaustive", "--out", str(path))
        assert code == 0 and out == ""
        assert path.read_text().startswith("label\t")

    def test_requires_dimension(self, capsys):
        code, _, err = run(capsys, "survey", "--p", "2", "--d", "3")
        assert code == 2

    def test_empty_universe_header_only(self, capsys):
        code, out, _ = run(capsys, "survey", "--p", "2", "--n", "2", "--d", "3",
                           "--trials", "0")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2  # header + summary
        assert lines[1].startswith("# max_ratio = n/a")


class TestStdin:
    def test_dash_reads_stdin(self, capsys, monkeypatch):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO("2 1 3\n0 0 0 1\n"))
        code, out, _ = run(capsys, "bias", "-")
        assert code == 0 and "3 / 2^2" in out


class TestRoundTripMany:
    def test_thousand_random_tensors(self):
        shapes = [(2, 3, 3), (3, 2, 3), (5, 2, 2), (2, 2, 4)]
        for i in range(1000):
            p, n, d = shapes[i % 4]
            t = random_tensor(PrimeField(p), n, d, substream(2024, i).next_u64())
            assert parse_tensor(serialize_tensor(t)) == t


@pytest.mark.parametrize("argv", [
    pytest.param(["gen", "--p", "4", "--n", "2", "--d", "3"], id="gen-composite-p"),
    pytest.param(["check", "subadditivity", "--p", "4", "--n", "2", "--d", "3"],
                 id="check-composite-p"),
    pytest.param(["survey", "--p", "4", "--n", "2", "--d", "3"], id="survey-composite-p"),
    pytest.param(["constant", "--d", "1", "--q", "2"], id="constant-d1"),
    pytest.param(["constant", "--d", "3", "--q", "1"], id="constant-q1"),
    pytest.param(["gen", "--p", "2", "--n", "2", "--d", "0"], id="gen-d0"),
    pytest.param(["check", "arank-le-prank", "--p", "2", "--n", "2", "--d", "1"],
                 id="arank-le-prank-d1"),
    pytest.param(["check", "lemma-bias", "--p", "2", "--n", "2", "--d", "0"],
                 id="lemma-bias-d0"),
    pytest.param(["bias", "DIRECTORY"], id="bias-directory"),
    pytest.param(["check", "subadditivity", "--p", "2", "--n", "3", "--d", "3", "--exhaustive"],
                 id="check-universe-over-limit"),
    pytest.param(["survey", "--p", "2", "--n", "3", "--d", "3", "--exhaustive"],
                 id="survey-universe-over-limit"),
    pytest.param(["check", "subadditivity", "--p", "2", "--n", "100", "--d", "10",
                  "--exhaustive"], id="check-universe-power-not-computed"),
    pytest.param(["survey", "--p", "2", "--n", "100", "--d", "10", "--exhaustive"],
                 id="survey-universe-power-not-computed"),
    pytest.param(["gen", "--p", "2", "--n", "3000", "--d", "3"], id="gen-oversized"),
    pytest.param(["gen", "--p", "2", "--d", "30", "--diagonal", "1,1"],
                 id="gen-diagonal-oversized"),
    pytest.param(["check", "basis-invariance", "--p", "2", "--n", "3000", "--d", "3",
                  "--trials", "1"], id="check-oversized"),
    pytest.param(["survey", "--p", "2", "--n", "3000", "--d", "3", "--trials", "1"],
                 id="survey-oversized"),
    pytest.param(["survey", "--p", "2", "--d", "3", "--identity-max", "3000"],
                 id="survey-identity-oversized"),
    pytest.param(["check", "correlation", "--exhaustive"], id="random-only-law-exhaustive"),
    pytest.param(["check", "subadditivity", "--exhaustive", "--trials", "3"],
                 id="law-exhaustive-with-trials"),
    pytest.param(["check", "all", "--exhaustive", "--trials", "5"],
                 id="all-exhaustive-with-trials"),
    pytest.param(["check", "subadditivity", "--trials", "-1"], id="negative-trials"),
    pytest.param(["survey", "--p", "2", "--d", "3", "--identity-max", "-1"],
                 id="survey-identity-negative"),
    pytest.param(["survey", "--p", "2", "--n", "2", "--d", "3", "--exhaustive", "--trials", "3"],
                 id="survey-exhaustive-with-trials"),
    pytest.param(["survey", "--p", "2", "--n", "2", "--d", "3", "--identity-max", "3"],
                 id="survey-identity-with-n"),
    pytest.param(["survey", "--p", "2", "--d", "3", "--identity-max", "3", "--exhaustive"],
                 id="survey-identity-with-exhaustive"),
    pytest.param(["survey", "--p", "2", "--d", "3", "--identity-max", "3", "--trials", "3"],
                 id="survey-identity-with-trials"),
    pytest.param(["gen", "--p", "2", "--d", "3", "--identity", "--diagonal", "1,0,1"],
                 id="gen-identity-with-diagonal"),
    pytest.param(["gen", "--p", "2", "--d", "3", "--diagonal", "1,0,1", "--seed", "5"],
                 id="gen-diagonal-with-seed"),
    pytest.param(["gen", "--p", "2", "--n", "2", "--d", "3", "--identity", "--seed", "5"],
                 id="gen-identity-with-seed"),
    pytest.param(["bias"], id="argparse-missing-file"),
    pytest.param(["rank", "DIRECTORY", "--kind", "foo"], id="argparse-bad-choice"),
    pytest.param(["bias", "DIRECTORY", "--budget", "x"], id="argparse-bad-int"),
    pytest.param(["bias", "TENSOR", "--budget", "-1"], id="bias-negative-budget"),
    pytest.param(["arank", "TENSOR", "--budget", "-1"], id="arank-negative-budget"),
    pytest.param(["rank", "TENSOR", "--budget", "-5"], id="rank-negative-budget"),
    pytest.param(["rank", "TENSOR", "--bounds", "--budget", "-5"],
                 id="rank-bounds-negative-budget"),
    pytest.param(["maxindep", "TENSOR", "--budget", "-1"], id="maxindep-negative-budget"),
    pytest.param(["check", "all", "--budget", "-1"], id="check-negative-budget"),
    pytest.param(["survey", "--p", "2", "--n", "2", "--d", "3", "--budget", "-1"],
                 id="survey-negative-budget"),
    pytest.param(["rank", "DIRECTORY", "--exact", "--bounds"], id="argparse-exclusive-flags"),
    pytest.param(["survey", "--p", "2", "--n", "2", "--d", "3", "--exhaustive", "--format",
                  "json"], id="argparse-unknown-flag"),
    pytest.param(["nosuch"], id="argparse-unknown-command"),
])
def test_invalid_arguments_exit_two_without_traceback(capsys, tmp_path, argv):
    tensor = tmp_path / "t223.txt"
    tensor.write_text(serialize_tensor(random_tensor(PrimeField(2), 2, 2, 3)))
    argv = [{"DIRECTORY": str(tmp_path), "TENSOR": str(tensor)}.get(a, a) for a in argv]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("argv,code", [
    # no listing caps the rank-one checks any more: (3,3,3) holds
    pytest.param("check arank-le-prank --p 3 --n 3 --d 3 --trials 2", 0, id="over-search-cap"),
    pytest.param("check arank-le-prank --p 2 --n 2 --d 3 --trials 3 --budget 0", 3, id="budget-0"),
])
def test_exact_search_refusals_exit_three(capsys, argv, code):
    got, out, err = run(capsys, *argv.split())
    assert got == code
    if code:
        assert out == "" and err.startswith("error:") and err.count("\n") == 1
    else:
        assert err == "" and out.split()[:2] == ["arank-le-prank", "holds"]


def test_maxindep_budget_is_charged(capsys, tmp_path):
    path = tmp_path / "t263.txt"
    path.write_text(serialize_tensor(random_tensor(PrimeField(2), 6, 3, 0)))
    code, out, err = run(capsys, "maxindep", str(path), "--budget", "0")
    assert code == 3 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    code, out, _ = run(capsys, "maxindep", str(path))
    assert code == 0
    assert out == ("independent set = {0}\nsize = 1\n"
                   "arank >= c(3, 2) * 1 = 0.415037499279\n")


@pytest.mark.parametrize("argv", [
    "check arank-le-prank --p 2 --n 0 --d 3 --trials 2",
    "check arank-le-prank --p 2 --n 0 --d 3 --exhaustive",
    "check basis-invariance --p 2 --n 0 --d 3 --trials 3",
    "survey --p 2 --n 0 --d 3 --trials 3",
])
def test_dimension_zero_universes_exit_zero(capsys, argv):
    code, _, err = run(capsys, *argv.split())
    assert code == 0 and err == ""


def test_rank_bounds_of_an_order_one_file_is_the_exact_report(capsys, tmp_path):
    path = tmp_path / "form.txt"
    path.write_text("2 3 1\n0 1\n2 1\n")
    exact = run(capsys, "rank", str(path))
    assert exact[0] == 0 and "prank = 1 (exact)" in exact[1]
    assert run(capsys, "rank", str(path), "--bounds") == exact


@pytest.mark.parametrize("argv,digest", [
    pytest.param("check all --seed 0",
                 "d31a236965b2937b49762a870588ef98ea8c25a68c0b44523d8c2c4cb7cd7b9c",
                 id="check-all-seed-0"),
    pytest.param("check all --seed 1",
                 "422f72ae4ea97bf0785a6124097236db8f6ae29152218b0442fcaff213006b08",
                 id="check-all-seed-1"),
    pytest.param("check all --seed 2",
                 "10c480bd02a09bc56f3f3ec33d83c0f69838fabefc6536258362785122200fea",
                 id="check-all-seed-2"),
    pytest.param("check all --trials 0",
                 "05c0899d88b42405b371302ea6383564362b05ee2c0081ae9902b3f50d595bad",
                 id="check-all-trials-0"),
    pytest.param("check all --exhaustive",
                 "1dcbd597cea49c2dffdc149567235486585bfddae8fe2e9d9838926a4223f24b",
                 id="check-all-exhaustive"),
    pytest.param("check all --exhaustive --p 2 --n 2 --d 3",
                 "1dcbd597cea49c2dffdc149567235486585bfddae8fe2e9d9838926a4223f24b",
                 id="check-all-exhaustive-explicit-shape"),
    pytest.param("check all --trials 20 --seed 3 --format json",
                 "37b8220dd6113eec0bdd6db7f5053e6447ba5b657d1a40980f89d760b94f88d3",
                 id="check-all-json"),
    pytest.param("survey --p 2 --n 2 --d 3 --exhaustive",
                 "70e2ae634505b0ececd3610c848b4d8e3b8383e3e80f899d1397b25ec3131139",
                 id="survey-exhaustive"),
    pytest.param("survey --p 2 --n 3 --d 3 --trials 3",
                 "4fc286a3bb668e47e0c88e441575d9ef108a9a86fa1fff5c966363b491fdb75b",
                 id="survey-seeded-233"),
    pytest.param("survey --p 3 --n 3 --d 3 --trials 2",
                 "58b7a58fde3af9fa5f2fd49ae10efe827db5af0557203c49983a1fd1e7fd3234",
                 id="survey-over-search-cap"),
    pytest.param("survey --p 2 --n 2 --d 4 --trials 40",
                 "eb6833ecd45df05d99cdf71ea88993bbcd94b51d4a4b388434b4374c47872c34",
                 id="survey-seeded-order-4"),
    pytest.param("check arank-le-prank --p 2 --n 2 --d 4 --trials 30",
                 "0595b1576189e63f167d9585f1004c0d0d8897bdde38f6bbbbc002f288c5ec19",
                 id="arank-le-prank-order-4"),
    pytest.param("check arank-le-prank --p 3 --n 2 --d 3 --trials 20 --seed 5",
                 "c31aa13902fec6d6b68673e8febd773250443124bcca72b74654baed49cc222b",
                 id="arank-le-prank-p3"),
    pytest.param("check subadditivity --p 3 --n 2 --d 2 --exhaustive",
                 "a463d139c55b36230f55d20fb7c19a7c39ae1f4c7430fe4547ead9f069fa6558",
                 id="subadditivity-exhaustive-p3"),
    pytest.param("check lemma-bias --p 5 --n 2 --d 3 --trials 30 --seed 2",
                 "a398382e6342132a1564fca5e7c4170cd55d87be069bdc3f6ec401f12214f90e",
                 id="lemma-bias-p5"),
])
def test_reports_are_byte_identical_to_the_pinned_output(capsys, argv, digest):
    code, out, _ = run(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("kind", ["srank", "prank"])
@pytest.mark.parametrize("seed,value,upper_source", [
    (0, 3, "greedy"), (1, 3, "greedy"), (2, 3, "greedy"), (11, 2, "search")])
def test_slice_and_partition_rank_bytes_past_the_greedy_bound(capsys, tmp_path, kind, seed,
                                                              value, upper_source):
    # each (2,3,3) tensor has a greedy bound of 3 terms, so an exact search decides it
    path = tmp_path / "t233.txt"
    path.write_text(serialize_tensor(random_tensor(PrimeField(2), 3, 3, seed)))
    text = f"{kind} = {value} (exact)\ncertificate: {value} rank-one terms, verified\n"
    assert run(capsys, "rank", str(path), "--kind", kind) == (0, text, "")
    line = (f'{{"exact": true, "kind": "{kind}", "lower": {value}, "lower_source": "search", '
            f'"upper": {value}, "upper_source": "{upper_source}"}}\n')
    assert run(capsys, "rank", str(path), "--kind", kind, "--format", "json") == (0, line, "")


def _rank_bytes(capsys, tmp_path, p, n, seed, value, upper_source):
    path = tmp_path / f"t{p}{n}3.txt"
    _, text, _ = run(capsys, "gen", "--p", str(p), "--n", str(n), "--d", "3", "--seed", str(seed))
    path.write_text(text)
    text = f"rank = {value} (exact)\ncertificate: {value} rank-one terms, verified\n"
    assert run(capsys, "rank", str(path), "--kind", "rank") == (0, text, "")
    line = (f'{{"exact": true, "kind": "rank", "lower": {value}, "lower_source": "search", '
            f'"upper": {value}, "upper_source": "{upper_source}"}}\n')
    assert run(capsys, "rank", str(path), "--kind", "rank", "--format", "json") == (0, line, "")


@pytest.mark.parametrize("p,seed,value,upper_source", [
    (5, 0, 2, "greedy"), (5, 1, 3, "greedy"), (5, 2, 3, "search"), (5, 3, 3, "greedy"),
    (3, 0, 2, "search"), (3, 1, 3, "greedy"), (3, 2, 2, "search"), (3, 3, 2, "greedy")])
def test_tensor_rank_bytes_at_n_two(capsys, tmp_path, p, seed, value, upper_source):
    _rank_bytes(capsys, tmp_path, p, 2, seed, value, upper_source)


@pytest.mark.parametrize("p", [3, 2])
def test_tensor_rank_at_n_three_is_exact(capsys, tmp_path, p):
    # the candidate search ran out of nodes on both; the slice span needs few
    _rank_bytes(capsys, tmp_path, p, 3, 0, 5, "search")


def test_matrix_rank_bytes_come_from_the_peel(capsys, tmp_path):
    # the pivot peel is exact on a matrix, so no search runs out of nodes
    path = tmp_path / "id5.txt"
    _, text, _ = run(capsys, "gen", "--p", "2", "--n", "5", "--d", "2", "--identity")
    path.write_text(text)
    line = ('{"exact": true, "kind": "rank", "lower": 5, "lower_source": "search", '
            '"upper": 5, "upper_source": "greedy"}\n')
    assert run(capsys, "rank", str(path), "--kind", "rank", "--format", "json") == (0, line, "")


def test_python_dash_m_runs_the_cli():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "biasrank", "constant", "--d", "3", "--q", "2"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0
    assert done.stdout.startswith("c(3, 2) = 0.415037499279")


def test_readme_lists_every_command_flag_and_law():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    table = readme.split("Commands and their flags:", 1)[1].split("\n\n", 2)[1]
    documented = {}
    for row in table.splitlines()[2:]:
        command, flags = row.strip("|").split("|")
        documented[command.strip(" `").split()[0]] = re.findall(r"--[a-z][a-z-]*", flags)
    subparsers = next(action for action in cli.build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    actual = {name: [option for action in parser._actions for option in action.option_strings
                     if option.startswith("--") and option != "--help"]
              for name, parser in subparsers.choices.items()}
    assert documented == actual
    law_line = readme.split("Law ids for `biasrank check`:", 1)[1].split(". ", 1)[0]
    assert re.findall(r"`([a-z-]+)`", law_line) == list(laws.LAWS) + ["all"]
