"""Correctness gate: judge each query's output against independent references.

The zero-fiber count K is recomputed here by a second engine that shares no
code with the package: it walks the fixings of the trailing slots in odometer
order, adding one slice per digit step, and ends every walk at the order-2
case K = p^(n - rank).  Structured inputs are checked through their blocks,
whose counts multiply.  Maximum independent sets are found by brute force.
Only the greedy upper bound for ranks comes from the package, since any
valid decomposition bounds a rank from above.
"""

from __future__ import annotations

import math
import re
from itertools import combinations, product

from workloads import Query

_ENGINE_LINE = re.compile(r"^(fiber|recursive|histogram): (\d+) / (\d+)\^(\d+) = ")
_EXACT_LINE = re.compile(r"^(rank|srank|prank) = (\d+) \(exact\)$")
_INTERVAL_LINE = re.compile(r"^(rank|srank|prank) in \[(\d+), (\d+)\]$")
_LAW_LINE = re.compile(r"^(\S+)\s+(holds|VIOLATED)\s+checked=(\d+)")


# ---------------------------------------------------------------------------
# Reference values
# ---------------------------------------------------------------------------

def _rank_mod_p(p: int, n: int, flat: list[int]) -> int:
    if p == 2:
        basis: dict[int, int] = {}  # leading bit -> reduced row
        for i in range(n):
            row = sum(1 << j for j in range(n) if flat[i * n + j])
            while row:
                lead = row.bit_length() - 1
                if lead not in basis:
                    basis[lead] = row
                    break
                row ^= basis[lead]
        return len(basis)
    rows = [flat[i * n:(i + 1) * n] for i in range(n)]
    rank = 0
    for col in range(n):
        pivot = next((r for r in range(rank, n) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        head = [x * inv % p for x in rows[rank]]
        rows[rank] = head
        for r in range(rank + 1, n):
            f = rows[r][col]
            if f:
                rows[r] = [(a - f * b) % p for a, b in zip(rows[r], head)]
        rank += 1
    return rank


def _count(p: int, n: int, order: int, flat: list[int]) -> int:
    if order == 1:
        return 0 if any(flat) else 1
    if order == 2:
        return p ** (n - _rank_mod_p(p, n, flat))
    slices = [flat[k::n] for k in range(n)]
    current = [0] * len(slices[0])
    digits = [0] * n
    total = 0
    for _ in range(p ** n):
        total += _count(p, n, order - 1, current)
        # Odometer step: raising digit k by one adds slice k; a wrap adds it
        # a p-th time, which is zero mod p.
        for k in range(n):
            current = [(a + b) % p for a, b in zip(current, slices[k])]
            digits[k] += 1
            if digits[k] < p:
                break
            digits[k] = 0
    return total


def zero_fiber_count(p: int, n: int, d: int, entries: dict) -> int:
    """K: fixings of slots 2..d that leave the zero linear form in slot 1."""
    flat = [0] * (n ** d)
    for idx, value in entries.items():
        f = 0
        for i in idx:
            f = f * n + i
        flat[f] = value
    return _count(p, n, d, flat)


def reference_k(query: Query) -> int:
    k = 1
    for dim, entries in query.blocks:
        k *= zero_fiber_count(query.p, dim, query.d, entries)
    return k


def arank_ceil(k: int, p: int, exponent: int) -> int:
    """Smallest m with K / p^exponent >= p^-m, a lower bound on every rank."""
    m = 0
    while k * p ** m < p ** exponent:
        m += 1
    return m


def max_independent_set(query: Query) -> tuple[int, ...]:
    """Largest independent set, lexicographically least among the largest."""
    n, d, entries = query.n, query.d, query.entries
    for size in range(n, 0, -1):
        for subset in combinations(range(n), size):
            if all((entries.get(tup, 0) != 0) == (len(set(tup)) == 1)
                   for tup in product(subset, repeat=d)):
                return subset
    return ()


def greedy_upper(query: Query, kind: str) -> int:
    from biasrank.ranks import greedy_decomposition
    from biasrank.tensor import parse_tensor

    with open(query.argv[1], encoding="utf-8") as handle:
        return len(greedy_decomposition(parse_tensor(handle.read()), kind))


# ---------------------------------------------------------------------------
# Judging outputs
# ---------------------------------------------------------------------------

def _judge_bias(query: Query, lines: list[str]) -> str | None:
    method = query.argv[query.argv.index("--method") + 1]
    expected = {"fiber", "recursive", "histogram"} if method == "all" else {method}
    exponent = query.n * (query.d - 1)
    want = reference_k(query)
    seen = set()
    for line in lines:
        match = _ENGINE_LINE.match(line)
        if match:
            engine, k, base, exp = match.group(1), *map(int, match.groups()[1:])
            if (k, base, exp) != (want, query.p, exponent):
                return f"{engine} gave {k} / {base}^{exp}, reference K is {want}"
            seen.add(engine)
    if seen != expected:
        return f"engines reported {sorted(seen)}, expected {sorted(expected)}"
    if method == "all" and "engines agree" not in lines:
        return "no engine agreement line"
    return None


def _judge_arank(query: Query, lines: list[str]) -> str | None:
    exponent = query.n * (query.d - 1)
    want = reference_k(query)
    if len(lines) < 2 or lines[1] != f"bias  = {want} / {query.p}^{exponent}":
        return f"bias line {lines[1:2]}, reference K is {want}"
    value = float(lines[0].removeprefix("arank = "))
    expected = exponent - math.log(want) / math.log(query.p)
    if abs(value - expected) > 1e-9:
        return f"arank {value} differs from {expected}"
    return None


def _judge_rank(query: Query, lines: list[str]) -> str | None:
    kind = query.argv[query.argv.index("--kind") + 1]
    low = arank_ceil(reference_k(query), query.p, query.n * (query.d - 1))
    high = greedy_upper(query, kind)
    exact = _EXACT_LINE.match(lines[0]) if lines else None
    if exact:
        value = int(exact.group(2))
        if not low <= value <= high:
            return f"{kind} = {value} outside [{low}, {high}]"
        if query.check == "rank" and not (len(lines) > 1 and lines[1].endswith("verified")):
            return "exact rank without a verified certificate"
        return None
    interval = _INTERVAL_LINE.match(lines[0]) if lines else None
    if query.check == "bounds" and interval:
        lo, hi = int(interval.group(2)), int(interval.group(3))
        # Sound bounds: the interval must meet the certified window.
        if lo > hi or lo > high or hi < low:
            return f"{kind} in [{lo}, {hi}] is inconsistent with [{low}, {high}]"
        return None
    return f"unexpected rank output {lines[:1]}"


def _judge_maxindep(query: Query, lines: list[str]) -> str | None:
    want = max_independent_set(query)
    shown = "{" + ", ".join(map(str, want)) + "}"
    if lines[:2] != [f"independent set = {shown}", f"size = {len(want)}"]:
        return f"got {lines[:2]}, expected set {shown}"
    return None


def law_lines(stdout: str) -> list[tuple[str, bool, int]]:
    """(law, holds, checked) for each law universe in `check` output."""
    out = []
    for line in stdout.splitlines():
        match = _LAW_LINE.match(line)
        if match:
            out.append((match.group(1), match.group(2) == "holds", int(match.group(3))))
    return out


_JUDGES = {"bias": _judge_bias, "arank": _judge_arank, "rank": _judge_rank,
           "bounds": _judge_rank, "maxindep": _judge_maxindep}


def judge(query: Query, code, stdout: str, stderr: str) -> tuple[int, list[str]]:
    """(items attempted, failure reasons) for one query's outcome.

    A check-all query counts one item per law universe it reports.
    """
    if query.check == "check-all":
        laws = law_lines(stdout)
        violated = [f"{law} VIOLATED" for law, holds, _ in laws if not holds]
        if laws and code == (1 if violated else 0):
            return len(laws), violated
        count = max(1, len(laws))
        return count, [f"check all exited {code}: {stderr.strip()[:200]}"] * count
    if code != 0:
        return 1, [f"exit {code}: {stderr.strip()[:200]}"]
    try:
        reason = _JUDGES[query.check](query, stdout.splitlines())
    except Exception as exc:  # garbled output fails this item, not the run
        reason = f"could not check output: {exc!r}"
    return 1, [] if reason is None else [reason]


def judge_groups(queries: list[Query], stdouts: list[str]) -> dict[str, str]:
    """Tensors whose exact ranks break prank <= srank <= rank, with the reason."""
    values: dict[str, dict[str, int]] = {}
    for query, stdout in zip(queries, stdouts):
        match = _EXACT_LINE.match(stdout.split("\n", 1)[0]) if query.group else None
        if match:
            values.setdefault(query.group, {})[match.group(1)] = int(match.group(2))
    broken = {}
    for group, ranks in values.items():
        chain = [ranks[k] for k in ("prank", "srank", "rank") if k in ranks]
        if chain != sorted(chain):
            broken[group] = f"ranks {ranks} break prank <= srank <= rank"
    return broken
