"""Command line behaviour: formats, determinism, exit codes."""

import json

import pytest

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
])
def test_invalid_arguments_exit_two_without_traceback(capsys, tmp_path, argv):
    argv = [str(tmp_path) if a == "DIRECTORY" else a for a in argv]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err
