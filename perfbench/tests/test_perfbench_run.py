"""One run emits every metric BENCHMARK.json names, and tracing is complete."""

import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import pytest  # noqa: E402

import run  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _listed(section):
    return {entry["name"]: entry["unit"] for entry in SPEC[section]}


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    out = tmp_path_factory.mktemp("out")
    return {trace: run.measure("rank-query", 5, seconds=0, trace=trace, out_dir=out,
                               limit=10, setup_per_pass=1)
            for trace in (0, 1)}


def test_every_listed_metric_is_emitted_with_its_unit(records):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        listed = _listed(section)
        metrics = records[trace]["metrics"]
        assert {name: m["unit"] for name, m in metrics.items()} == listed
        assert all(NAME.fullmatch(name) for name in listed)
        assert all(isinstance(m["value"], (int, float)) for m in metrics.values())
        assert records[trace]["failed"] == 0, records[trace]["failures"]


def test_run_metadata_is_recorded(records):
    meta = records[0]["meta"]
    assert {"python", "cpu_count", "nproc", "commit", "seed", "loadavg_1m"} <= set(meta)
    assert meta["seed"] == 5


def test_self_times_and_other_add_up_to_traced_wall(records):
    metrics = {name: m["value"] for name, m in records[1]["metrics"].items()}
    total = sum(metrics[name] for name in run.SELF_METRICS) + metrics["other.self_s"]
    assert total == pytest.approx(metrics["trace.wall_s"], rel=1e-9)
    assert metrics["cli.main.calls"] == 10
    assert metrics["trace.overhead_ratio"] > 0


def test_tracer_wraps_every_binding_and_restores_it():
    cli = run.load_cli()
    import biasrank.bias as bias
    import biasrank.gf as gf
    import biasrank.laws as laws
    import biasrank.ranks as ranks
    import biasrank.tensor as tensor

    originals = (bias.bias_fiber, gf.matrix_rank, tensor.Tensor.__init__)
    tracer = Tracer()
    tracer.install()
    try:
        bindings = [cli._ENGINES["fiber"], cli._ENGINES["recursive"], cli.bias_fiber,
                    laws.bias_fiber, ranks.bias_fiber, bias.bias_fiber,
                    gf.matrix_rank, bias.matrix_rank, ranks.matrix_rank, tensor.matrix_rank,
                    laws.law_subadditivity, cli.law_subadditivity, tensor.Tensor.__init__]
        assert all(hasattr(fn, "__wrapped__") for fn in bindings)
    finally:
        tracer.uninstall()
    assert (bias.bias_fiber, gf.matrix_rank, tensor.Tensor.__init__) == originals
    assert cli._ENGINES["fiber"] is bias.bias_fiber and laws.bias_fiber is bias.bias_fiber
