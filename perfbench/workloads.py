"""Seeded inputs for the three benchmark workloads.

Inputs come from the benchmark's own ``random.Random`` streams, never from
the package's generators, so a change to the package cannot change what is
measured.  Every pass of a run gets fresh inputs derived from
(workload, seed, pass index): a cache keyed by tensor contents can never
hit across passes, and pass 0 is the same for a seed on every machine.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path

# (dim, {index tuple: nonzero value}) for one tensor block in local coordinates.
Block = tuple[int, dict[tuple[int, ...], int]]


@dataclass
class Query:
    """One CLI call plus what the verifier needs to judge its output.

    ``blocks`` are coordinate blocks of the tensor on which the zero-fiber
    count K factors (the whole tensor for dense inputs).  Queries sharing a
    ``group`` ask different rank kinds of one tensor.
    """

    argv: list[str]
    check: str
    p: int = 0
    n: int = 0
    d: int = 0
    entries: dict = field(default_factory=dict)
    blocks: tuple[Block, ...] = ()
    group: str = ""


def _stream(workload: str, seed: int, pass_index: int) -> random.Random:
    return random.Random(f"biasrank-perfbench:{workload}:{seed}:{pass_index}")


def _dense(rng: random.Random, p: int, n: int, d: int) -> dict:
    entries = {}
    for idx in product(range(n), repeat=d):
        value = rng.randrange(p)
        if value:
            entries[idx] = value
    return entries


def _sparse(rng: random.Random, p: int, n: int, d: int) -> dict:
    """Diagonal mostly nonzero, other entries rarely, so independent sets exceed size 1."""
    entries = {}
    for idx in product(range(n), repeat=d):
        chance = 0.75 if len(set(idx)) == 1 else 0.125
        if rng.random() < chance:
            entries[idx] = rng.randrange(1, p)
    return entries


def _write(directory: Path, name: str, p: int, n: int, d: int, entries: dict) -> str:
    lines = [f"{p} {n} {d}"]
    lines += [" ".join(map(str, idx)) + f" {value}" for idx, value in sorted(entries.items())]
    path = directory / f"{name}.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def _tensor_query(directory, name, check, argv_tail, p, n, d, entries,
                  blocks=None, group="") -> Query:
    path = _write(directory, name, p, n, d, entries)
    command = "rank" if check == "bounds" else check
    return Query([command, path] + argv_tail, check, p, n, d, entries,
                 tuple(blocks) if blocks is not None else ((n, entries),), group)


def _block_sum(rng: random.Random, p: int, d: int, sizes, dense: bool):
    """Direct sum of random blocks, coordinates shuffled by a random permutation."""
    n = sum(sizes)
    perm = list(range(n))
    rng.shuffle(perm)
    blocks, entries, offset = [], {}, 0
    for size in sizes:
        if dense:
            local = _dense(rng, p, size, d)
        else:
            value = rng.randrange(p)
            local = {(0,) * d: value} if value else {}
        blocks.append((size, local))
        for idx, value in local.items():
            entries[tuple(perm[offset + i] for i in idx)] = value
        offset += size
    return n, entries, blocks


# Shapes and counts per workload.  See README.md for why each was chosen.
_BIAS_ALL = [((2, 6, 3), 6), ((2, 3, 4), 10), ((2, 4, 4), 6), ((3, 3, 3), 10),
             ((3, 4, 3), 4), ((5, 2, 3), 10), ((7, 2, 3), 6)]
_BIAS_ARANK = [((2, 6, 3), 5), ((3, 4, 3), 5)]
_BIAS_FIBER = [((5, 3, 3), 6), ((2, 8, 3), 6)]
_BIAS_RECURSIVE = [((2, 10, 3), 6), ((3, 5, 3), 8)]
_BIAS_BLOCK_SUMS = [(2, 3, (3, 3, 2), 3), (3, 3, (3, 3, 2), 3)]
_BIAS_DIAGONAL = (3, 8, 4, 6)

# Counts put the 90th percentile inside the (5,2,3) prank class and the
# median inside the (5,2,3) rank class, away from jumps between classes.
_RANK_ALL_KINDS = [((2, 2, 3), 4), ((3, 2, 3), 8), ((2, 2, 4), 8)]
_RANK_PAIR = ((5, 2, 3), 24, 14)  # shape, tensors, how many also get prank
_RANK_PRANK = ((2, 3, 3), 6)
_RANK_BOUNDS = [((2, 4, 3), 2), ((3, 3, 3), 2)]
_MAXINDEP = [((2, 6, 3), 6), ((3, 4, 3), 6)]
KINDS = ("rank", "srank", "prank")


def bias_queries(rng: random.Random, directory: Path) -> list[Query]:
    queries = []

    def add(check, tail, p, n, d, entries, blocks=None):
        name = f"q{len(queries):03d}"
        queries.append(_tensor_query(directory, name, check, tail, p, n, d, entries, blocks))

    for (p, n, d), count in _BIAS_ALL:
        for _ in range(count):
            add("bias", ["--method", "all"], p, n, d, _dense(rng, p, n, d))
    for (p, n, d), count in _BIAS_ARANK:
        for _ in range(count):
            add("arank", [], p, n, d, _dense(rng, p, n, d))
    for (p, n, d), count in _BIAS_FIBER:
        for _ in range(count):
            add("bias", ["--method", "fiber"], p, n, d, _dense(rng, p, n, d))
    for (p, n, d), count in _BIAS_RECURSIVE:
        for _ in range(count):
            add("bias", ["--method", "recursive"], p, n, d, _dense(rng, p, n, d))
    for p, d, sizes, count in _BIAS_BLOCK_SUMS:
        for _ in range(count):
            n, entries, blocks = _block_sum(rng, p, d, sizes, dense=True)
            add("bias", ["--method", "recursive"], p, n, d, entries, blocks)
    p, n, d, count = _BIAS_DIAGONAL
    for _ in range(count):
        n, entries, blocks = _block_sum(rng, p, d, (1,) * n, dense=False)
        add("bias", ["--method", "recursive"], p, n, d, entries, blocks)
    rng.shuffle(queries)
    return queries


def rank_queries(rng: random.Random, directory: Path) -> list[Query]:
    queries = []

    def add(check, tail, p, n, d, entries, group=""):
        name = f"q{len(queries):03d}"
        queries.append(_tensor_query(directory, name, check, tail, p, n, d, entries, group=group))

    tensor_count = 0

    def tensors(shape, count):
        nonlocal tensor_count
        for _ in range(count):
            tensor_count += 1
            yield f"t{tensor_count}", _dense(rng, *shape)

    for shape, count in _RANK_ALL_KINDS:
        for group, entries in tensors(shape, count):
            for kind in KINDS:
                add("rank", ["--kind", kind], *shape, entries, group)
    shape, count, with_prank = _RANK_PAIR
    for index, (group, entries) in enumerate(tensors(shape, count)):
        for kind in ("rank", "prank")[:2 if index < with_prank else 1]:
            add("rank", ["--kind", kind], *shape, entries, group)
    shape, count = _RANK_PRANK
    for group, entries in tensors(shape, count):
        add("rank", ["--kind", "prank"], *shape, entries, group)
    for shape, count in _RANK_BOUNDS:
        for group, entries in tensors(shape, count):
            for kind in KINDS:
                add("bounds", ["--kind", kind, "--bounds"], *shape, entries, group)
    for shape, count in _MAXINDEP:
        for _ in range(count):
            add("maxindep", [], *shape, _sparse(rng, *shape))
    rng.shuffle(queries)
    return queries


def check_all_queries(rng: random.Random, seed: int, pass_index: int) -> list[Query]:
    # Pass 0 runs the seed itself, so its stdout equals `biasrank check all --seed S`.
    law_seed = seed if pass_index == 0 else rng.getrandbits(31)
    return [Query(["check", "all", "--seed", str(law_seed)], "check-all")]


WORKLOADS = ("check-all", "bias-query", "rank-query")


def generate(workload: str, seed: int, pass_index: int, directory: Path) -> list[Query]:
    """Write the inputs of one pass under ``directory`` and return its queries."""
    rng = _stream(workload, seed, pass_index)
    if workload == "check-all":
        return check_all_queries(rng, seed, pass_index)
    directory.mkdir(parents=True, exist_ok=True)
    for stale in directory.glob("*.txt"):
        stale.unlink()
    if workload == "bias-query":
        return bias_queries(rng, directory)
    if workload == "rank-query":
        return rank_queries(rng, directory)
    raise ValueError(f"unknown workload {workload!r}")
