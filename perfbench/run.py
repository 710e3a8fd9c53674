"""Run one biasrank benchmark workload and print its metrics.

    python3 perfbench/run.py --workload bias-query --seed 1 --seconds 30 --trace 0

The workload runs in this process as a closed loop with one client: each
CLI query goes through ``biasrank.cli.main`` only after the previous one
returned.  Passes over freshly generated inputs repeat until ``--seconds``
would be exceeded.  With ``--trace 0`` the end-to-end metrics are printed;
with ``--trace 1`` one untraced pass is followed by a traced pass over the
same inputs and the per-layer metrics are printed.  Every output is checked
(see verify.py) before the result is printed as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Inputs, spans and a full result record are written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from bisect import bisect_left, bisect_right
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from time import perf_counter

from tracer import LAW_IDS, Tracer
from verify import judge, judge_groups, law_lines, zero_fiber_count
from workloads import WORKLOADS, Query, generate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

END_TO_END = {"wall_s": "s", "query_p50_ms": "ms", "query_p90_ms": "ms",
              "peak_rss_mb": "MB", "setup_s": "s"}

# Per-layer self times; with other.self_s they add up to trace.wall_s.
SELF_METRICS = (
    "cli.main.self_s", "laws.self_s",
    "bias.bias_fiber.self_s", "bias.bias_recursive.self_s",
    "bias.bias_histogram.self_s", "bias.bias_multiform.self_s",
    "gf.matrix_rank.p2_s", "gf.matrix_rank.generic_s",
    "ranks.candidate_terms.self_s", "ranks.rank_exact.self_s",
    "ranks.greedy_decomposition.self_s", "ranks.rank_bounds.self_s",
    "ranks.max_independent_set.self_s",
    "tensor.Tensor.new.busy_s", "tensor.Tensor.add.self_s",
    "tensor.Tensor.evaluate.self_s", "tensor.restrict.self_s",
    "tensor.parse_tensor.self_s",
)

PER_LAYER = {
    "bias.bias_fiber.calls": "count", "bias.bias_fiber.fixings": "count",
    "bias.bias_fiber.fixings_per_s": "1/s",
    "bias.bias_recursive.calls": "count",
    "bias.bias_histogram.calls": "count", "bias.bias_histogram.evals_per_s": "1/s",
    "bias.bias_multiform.calls": "count",
    "gf.matrix_rank.calls": "count", "gf.matrix_rank.cells": "count",
    "ranks.candidate_terms.calls": "count", "ranks.candidate_terms.candidates": "count",
    "ranks.candidate_terms.distinct_ratio": "ratio",
    "ranks.rank_exact.calls": "count", "ranks.rank_exact.exact_ratio": "ratio",
    "tensor.Tensor.new.calls": "count", "tensor.Tensor.evaluate.calls": "count",
    "cli.main.calls": "count",
    **{f"laws.{law}.wall_s": "s" for law in LAW_IDS},
    "laws.instances": "count",
    **{name: "s" for name in SELF_METRICS},
    "other.self_s": "s", "trace.wall_s": "s", "trace.overhead_ratio": "ratio",
}

SETUP_PER_PASS = 3
SETUP_ARGV = ["constant", "--d", "3", "--q", "2"]

# On a shared virtual machine the speed can drift by 2x within minutes (a
# busy neighbour on the same core), more than any affordable run averages out.
# Every time is therefore scaled by a speed factor measured around it: the
# reference seconds of a fixed calibration task over its measured seconds.
# The task is the benchmark's own pure-Python code, so no change to the
# package can alter it.  One calibration slice takes REFERENCE_SLICE_S on
# the reference machine, where the reported times equal wall-clock times.
REFERENCE_SLICE_S = 0.0015
_RNG = random.Random("perfbench-calibration")
CALIBRATION_TENSOR = {idx: value for idx in product(range(4), repeat=3)
                      if (value := _RNG.randrange(3))}
SLICES_AROUND = 32
IN_QUERY_EVERY_S = 0.2
SPEED_WINDOW_S = 0.3


class SpeedProbe:
    """Calibration slices on a timeline, and the machine's speed around any interval.

    Slices run before and after each pass, after every query and, on SIGALRM,
    every IN_QUERY_EVERY_S inside a query.  ``inside`` is the time that
    in-query slices took, which is taken off that query's time.
    """

    def __init__(self):
        self.stamps: list[float] = []
        self.seconds: list[float] = []
        self.inside = 0.0

    def sample(self, slices: int = 1) -> None:
        for _ in range(slices):
            start = perf_counter()
            zero_fiber_count(3, 4, 3, CALIBRATION_TENSOR)
            end = perf_counter()
            self.stamps.append(end)
            self.seconds.append(end - start)

    def _on_alarm(self, signum, frame) -> None:
        start = perf_counter()
        self.sample()
        self.inside += perf_counter() - start

    def arm(self) -> None:
        self.inside = 0.0
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, IN_QUERY_EVERY_S, IN_QUERY_EVERY_S)

    def disarm(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def speed(self, start: float, end: float) -> float:
        """Reference over measured seconds of the slices near [start, end]."""
        low = bisect_left(self.stamps, start - SPEED_WINDOW_S)
        high = bisect_right(self.stamps, end + SPEED_WINDOW_S)
        taken = self.seconds[low:high]
        return REFERENCE_SLICE_S * len(taken) / sum(taken)


@dataclass
class Outcome:
    code: object
    stdout: str
    stderr: str
    seconds: float
    start: float
    end: float
    speed: float = 1.0


def load_cli():
    """Import the package from the checkout's own sources."""
    src = ROOT / "src"
    if not (src / "biasrank" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no biasrank sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import biasrank.cli

    return biasrank.cli


def call(cli, argv: list[str], probe: SpeedProbe | None = None) -> Outcome:
    """Run one query; with a probe, calibrate inside it and take that time off."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        if probe is not None:
            probe.arm()
        start = perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a traceback fails this query, not the run
            traceback.print_exc()
            code = "exception"
        finally:
            if probe is not None:
                probe.disarm()
        end = perf_counter()
    inside = probe.inside if probe is not None else 0.0
    return Outcome(code, out.getvalue(), err.getvalue(), end - start - inside, start, end)


def run_pass(cli, queries: list[Query], tracer: Tracer | None = None) -> list[Outcome]:
    """Run the queries in order; each outcome carries its time and speed factor.

    Calibration runs outside the query times (see SpeedProbe).  A traced pass
    calibrates only between queries, so spans never cover calibration.
    """
    probe = SpeedProbe()
    gc.collect()
    probe.sample(SLICES_AROUND)
    outcomes = []
    for index, query in enumerate(queries):
        if tracer is not None:
            tracer.item = index
        outcomes.append(call(cli, query.argv, probe if tracer is None else None))
        # Each CLI query normally runs in a fresh process, so no garbage of
        # one query should be collected, or held in memory, during the next.
        gc.collect()
        probe.sample()
    probe.sample(SLICES_AROUND)
    for outcome in outcomes:
        outcome.speed = probe.speed(outcome.start, outcome.end)
    return outcomes


def pass_times(outcomes: list[Outcome]) -> tuple[float, float]:
    """Raw and speed-scaled time of a pass: the sums over its queries."""
    return (sum(o.seconds for o in outcomes), sum(o.seconds * o.speed for o in outcomes))


def cold_starts(count: int) -> list[float]:
    """Seconds for fresh interpreters to run a trivial CLI call."""
    code = "import sys; from biasrank.cli import main; sys.exit(main())"
    argv = [sys.executable, "-c", code] + SETUP_ARGV
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for _ in range(count):
        start = perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=120)
        times.append(perf_counter() - start)
        if proc.returncode != 0 or not proc.stdout.startswith("c(3, 2) = "):
            raise SystemExit(f"perfbench: set-up call failed: {proc.stderr.strip()[:300]}")
    return times


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def git_commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(workload: str, seed: int, seconds: float, trace: int) -> dict:
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "python": platform.python_version(), "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)), "commit": git_commit(ROOT),
        "loadavg_1m": os.getloadavg()[0],
    }


class Tally:
    """Running totals over the passes of one run; each pass is checked and dropped."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.walls: list[float] = []
        self.scaled_walls: list[float] = []
        self.latencies_ms: list[float] = []
        self.scaled_latencies_ms: list[float] = []
        self.digest = ""

    def add(self, queries: list[Query], outcomes: list[Outcome]) -> None:
        if not self.walls:
            self.digest = hashlib.sha256(
                "".join(o.stdout for o in outcomes).encode()).hexdigest()
        wall, scaled = pass_times(outcomes)
        self.walls.append(wall)
        self.scaled_walls.append(scaled)
        self.latencies_ms += [o.seconds * 1000 for o in outcomes]
        self.scaled_latencies_ms += [o.seconds * 1000 * o.speed for o in outcomes]
        broken = judge_groups(queries, [o.stdout for o in outcomes])
        self.failures += [f"tensor {group}: {reason}" for group, reason in broken.items()]
        for query, outcome in zip(queries, outcomes):
            count, reasons = judge(query, outcome.code, outcome.stdout, outcome.stderr)
            self.attempted += count
            if query.group in broken and not reasons:
                reasons = ["in a tensor whose ranks are inconsistent"]
            self.failed += min(count, len(reasons))
            self.failures += [f"{' '.join(query.argv)}: {r}" for r in reasons]


def time_metrics(walls, latencies_ms, setup_times) -> dict[str, float]:
    return {"wall_s": statistics.median(walls),
            "query_p50_ms": statistics.median(latencies_ms),
            "query_p90_ms": percentile(latencies_ms, 90),
            "setup_s": statistics.median(setup_times)}


def layer_metrics(tracer: Tracer, traced_wall: float, overhead: float,
                  instances: int) -> dict[str, float]:
    """Per-layer values; times are raw, the overhead ratio is speed-scaled."""
    calls, self_s, counters = tracer.calls, tracer.self_s, tracer.counters

    def per(a, b):
        return a / b if b else 0.0

    values = {
        "bias.bias_fiber.fixings": counters["bias.bias_fiber.fixings"],
        "bias.bias_fiber.fixings_per_s": per(counters["bias.bias_fiber.fixings"],
                                             self_s["bias.bias_fiber"]),
        "bias.bias_histogram.evals_per_s": per(counters["bias.bias_histogram.evals"],
                                               self_s["bias.bias_histogram"]),
        "gf.matrix_rank.calls": calls["gf.matrix_rank.p2"] + calls["gf.matrix_rank.generic"],
        "gf.matrix_rank.p2_s": self_s["gf.matrix_rank.p2"],
        "gf.matrix_rank.generic_s": self_s["gf.matrix_rank.generic"],
        "gf.matrix_rank.cells": counters["gf.matrix_rank.cells"],
        "ranks.candidate_terms.candidates": counters["ranks.candidate_terms.candidates"],
        "ranks.candidate_terms.distinct_ratio": per(len(tracer.candidate_keys),
                                                    calls["ranks.candidate_terms"]),
        "ranks.rank_exact.exact_ratio": per(counters["ranks.rank_exact.exact"],
                                            calls["ranks.rank_exact"]),
        "tensor.Tensor.new.busy_s": self_s["tensor.Tensor.new"],
        "laws.self_s": sum(self_s["laws." + law] for law in LAW_IDS),
        "laws.instances": instances,
        "other.self_s": traced_wall - tracer.span_self_total(),
        "trace.wall_s": traced_wall,
        "trace.overhead_ratio": overhead,
    }
    values.update({f"laws.{law}.wall_s": tracer.wall_s["laws." + law] for law in LAW_IDS})
    for name in PER_LAYER:
        if name not in values:
            span, _, stat = name.rpartition(".")
            values[name] = calls[span] if stat == "calls" else self_s[span]
    return values


def measure(workload: str, seed: int, seconds: float, trace: int, out_dir: Path = OUT,
            limit: int | None = None, setup_per_pass: int = SETUP_PER_PASS) -> dict:
    """Run one workload and return its result record.

    ``limit`` keeps only the first queries of each pass, for quick tests.
    Cold starts for ``setup_s`` are taken before every pass and after the
    last, so that they sample the same stretch of time as the passes.
    Reported times are speed-scaled; the record keeps the raw ones too.
    """
    cli = load_cli()
    meta = metadata(workload, seed, seconds, trace)
    inputs = out_dir / "inputs" / workload
    shutil.rmtree(inputs, ignore_errors=True)

    def queries_for(pass_index: int) -> list[Query]:
        return generate(workload, seed, pass_index, inputs / f"pass{pass_index}")[:limit]

    tally = Tally()
    if trace == 0:
        cold_starts(1)  # unmeasured, so every sample finds compiled bytecode
        setup_times = []
        begin = perf_counter()
        while True:
            setup_times += cold_starts(setup_per_pass)
            queries = queries_for(len(tally.walls))
            outcomes = run_pass(cli, queries)
            if not tally.walls:
                # Peak through one pass, so it does not grow with the pass count.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            tally.add(queries, outcomes)
            if perf_counter() - begin + statistics.median(tally.walls) > seconds:
                break
        setup_times += cold_starts(setup_per_pass)
    else:
        queries = queries_for(0)
        outcomes = run_pass(cli, queries)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_pass(cli, queries, tracer)
        finally:
            tracer.uninstall()
        tally.add(queries, outcomes)
        for query, plain, seen in zip(queries, outcomes, traced):
            if (plain.code, plain.stdout) != (seen.code, seen.stdout):
                tally.failed += 1
                tally.failures.append(f"{' '.join(query.argv)}: traced output differs")
        instances = sum(checked for out in traced for _, _, checked in law_lines(out.stdout))
        traced_wall, traced_scaled = pass_times(traced)
        overhead = traced_scaled / tally.scaled_walls[0]
        layers = layer_metrics(tracer, traced_wall, overhead, instances)
        out_dir.mkdir(parents=True, exist_ok=True)
        # One file per workload, overwritten by the next traced run.
        tracer.write_spans(out_dir / f"spans-{workload}.tsv.gz")

    record = {
        "meta": meta,
        "passes": len(tally.walls),
        "queries": len(tally.latencies_ms),
        "digest": tally.digest,
        "attempted": tally.attempted,
        "failed": min(tally.failed, tally.attempted),
        "fail_ratio": min(tally.failed, tally.attempted) / tally.attempted,
        "failures": tally.failures[:20],
        "pass_walls_s": tally.walls,
        "pass_speeds": [s / w for s, w in zip(tally.scaled_walls, tally.walls)],
    }
    if trace == 0:
        # Set-up runs in other processes; scale it by the run's median speed.
        speed = statistics.median(record["pass_speeds"])
        values = time_metrics(tally.scaled_walls, tally.scaled_latencies_ms,
                              [t * speed for t in setup_times])
        values["peak_rss_mb"] = peak_rss_mb
        record["raw"] = time_metrics(tally.walls, tally.latencies_ms, setup_times)
        samples = {"wall_s": len(tally.walls), "query_p50_ms": len(tally.latencies_ms),
                   "query_p90_ms": len(tally.latencies_ms), "peak_rss_mb": 1,
                   "setup_s": len(setup_times)}
        units = END_TO_END
    else:
        values, units = layers, PER_LAYER
        samples = {name: 1 for name in units}
    record["metrics"] = {name: {"value": values[name], "unit": unit, "samples": samples[name]}
                         for name, unit in units.items()}
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    record = measure(args.workload, args.seed, args.seconds, args.trace)
    OUT.mkdir(parents=True, exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for reason in record["failures"]:
        print(f"FAILED {reason}", file=sys.stderr)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{record['passes']} passes, {record['queries']} queries, "
          f"stdout sha256 {record['digest']}")
    print(f"  meta {json.dumps(record['meta'], sort_keys=True)}")
    for metric, entry in record["metrics"].items():
        print(f"  {metric} = {entry['value']:.6g} {entry['unit']} (samples={entry['samples']})")
    if "raw" in record:
        raw = ", ".join(f"{name}={value:.6g}" for name, value in record["raw"].items())
        print(f"  unscaled: {raw}; speed factors {[round(f, 3) for f in record['pass_speeds']]}")
    print(f"  fail_ratio = {record['failed']}/{record['attempted']} = {record['fail_ratio']:.6g}")
    metrics = {metric: {"value": entry["value"], "unit": entry["unit"]}
               for metric, entry in record["metrics"].items()}
    print(json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
