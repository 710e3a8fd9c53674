"""The benchmark's inputs depend only on (workload, seed, pass) and its gate
rejects wrong answers."""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import pytest  # noqa: E402

import run  # noqa: E402
import verify  # noqa: E402
from workloads import Query, generate  # noqa: E402

TENSOR_WORKLOADS = ("bias-query", "rank-query")


def _files(directory: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(directory.glob("*.txt"))}


def _shape(queries):
    return [(q.check, q.argv[0], q.argv[2:], q.p, q.n, q.d) for q in queries]


@pytest.mark.parametrize("workload", TENSOR_WORKLOADS)
def test_same_seed_gives_identical_input_files(tmp_path, workload):
    first = generate(workload, 7, 0, tmp_path / "a")
    second = generate(workload, 7, 0, tmp_path / "b")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert [q.argv[2:] for q in first] == [q.argv[2:] for q in second]


@pytest.mark.parametrize("workload", TENSOR_WORKLOADS)
def test_other_seed_or_pass_changes_inputs_not_counts(tmp_path, workload):
    base = generate(workload, 7, 0, tmp_path / "base")
    for label, seed, pass_index in (("seed", 8, 0), ("pass", 7, 1)):
        other = generate(workload, seed, pass_index, tmp_path / label)
        assert _files(tmp_path / label) != _files(tmp_path / "base")
        assert sorted(_shape(other)) == sorted(_shape(base))
    assert len(base) == {"bias-query": 100, "rank-query": 128}[workload]


def test_check_all_first_pass_runs_the_seed_itself(tmp_path):
    (query,) = generate("check-all", 42, 0, tmp_path)
    assert query.argv == ["check", "all", "--seed", "42"]
    (later,) = generate("check-all", 42, 1, tmp_path)
    assert later.argv[:3] == ["check", "all", "--seed"] and later.argv[3] != "42"


@pytest.mark.parametrize("workload", TENSOR_WORKLOADS)
def test_same_seed_gives_same_output_digest(tmp_path, workload):
    digests = set()
    for attempt in range(2):
        record = run.measure(workload, 3, seconds=0, trace=0, out_dir=tmp_path / str(attempt),
                             limit=12, setup_per_pass=1)
        assert record["failed"] == 0, record["failures"]
        digests.add(record["digest"])
    assert len(digests) == 1


def test_reference_count_matches_diagonal_closed_form():
    # Diagonal c_i x_i y_i z_i over F_3 with support 2 of 3: K = (3^2 - 2^2)^2 * 3^2.
    entries = {(0, 0, 0): 1, (2, 2, 2): 2}
    assert verify.zero_fiber_count(3, 3, 3, entries) == 25 * 9
    # Order 2: K = p^(n - rank).
    assert verify.zero_fiber_count(2, 3, 2, {(0, 1): 1, (1, 0): 1}) == 2


def test_gate_rejects_a_wrong_numerator(tmp_path):
    entries = {(0, 0, 0): 1, (1, 1, 1): 1}
    query = Query(["bias", "x.txt", "--method", "fiber"], "bias", 2, 2, 3, entries,
                  ((2, entries),))
    right = "p=2 n=2 d=3\nfiber: 9 / 2^4 = 0.562500000000\n"
    wrong = "p=2 n=2 d=3\nfiber: 8 / 2^4 = 0.500000000000\n"
    assert verify.judge(query, 0, right, "") == (1, [])
    assert verify.judge(query, 0, wrong, "")[1]
    assert verify.judge(query, 3, "", "error: budget")[1]
    arank = Query(["arank", "x.txt"], "arank", 2, 2, 3, entries, ((2, entries),))
    assert verify.judge(arank, 0, "garbled\n", "")[1]


def test_gate_counts_each_law_universe():
    query = Query(["check", "all", "--seed", "1"], "check-all")
    out = ("subadditivity          holds    checked=5  [a]\n"
           "correlation            VIOLATED checked=3  [b]\n")
    assert verify.judge(query, 1, out, "") == (2, ["correlation VIOLATED"])
    assert verify.judge(query, 0, out.replace("VIOLATED", "holds   "), "") == (2, [])
    assert len(verify.judge(query, 2, "", "error: usage")[1]) == 1


def test_gate_rejects_inconsistent_ranks():
    query = Query(["rank", "x.txt", "--kind", "rank"], "rank", group="t1")
    stdouts = ["rank = 1 (exact)\n", "prank = 2 (exact)\n"]
    queries = [query, Query(["rank", "x.txt", "--kind", "prank"], "rank", group="t1")]
    assert "t1" in verify.judge_groups(queries, stdouts)
