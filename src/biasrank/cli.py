"""Command line interface.

Commands mirror the library: bias / arank / constant / rank / maxindep
compute values for one tensor file, check runs the law harness, gen
emits canonical tensor files, survey tabulates the rank gap.

Exit codes: 0 all good, 1 a law or engine-agreement check failed,
2 usage or parse error, 3 enumeration budget exceeded.  All randomness
derives from the --seed flag, so reports are byte-reproducible.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .bias import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    analytic_rank,
    bias_all_engines,
    bias_fiber,
    bias_histogram,
    bias_recursive,
    c_constant,
)
from .gf import PrimeField
from .laws import (
    LAW_IDS,
    law_arank_le_prank,
    law_basis_invariance,
    law_correlation,
    law_independent_bound,
    law_lemma_bias,
    law_restriction_monotone,
    law_subadditivity,
    survey_gap,
)
from .ranks import max_independent_set, rank_bounds, rank_exact
from .tensor import (
    TensorFormatError,
    diagonal_tensor,
    identity_tensor,
    parse_tensor,
    random_tensor,
    serialize_tensor,
)

_ENGINES = {
    "fiber": bias_fiber,
    "recursive": bias_recursive,
    "histogram": lambda t, budget: bias_histogram(t, budget)[1],
}

_RANDOM_ONLY_LAWS = {"correlation", "restriction-monotone", "lemma-bias", "basis-invariance"}

# Smallest --n and --d a law's universe needs; the others take n >= 0, d >= 1.
_MIN_SHAPE = {"arank-le-prank": (0, 2), "independent-bound": (0, 2),
              "restriction-monotone": (1, 1)}


class UsageError(Exception):
    """Usage error detected past argparse; mapped to exit code 2."""

# Default universes per law: the exhaustive 256-tensor cube plus seeded
# ensembles sized to finish on a laptop.
_LAW_DEFAULTS: dict[str, list[dict]] = {
    "subadditivity": [
        {"p": 2, "n": 2, "d": 3, "exhaustive": True},
        {"p": 3, "n": 2, "d": 3, "trials": 10000, "disjoint_trials": 200},
    ],
    "correlation": [
        {"p": 2, "n": 2, "d": 2, "trials": 1000},
    ],
    "arank-le-prank": [
        {"p": 2, "n": 2, "d": 3, "exhaustive": True},
        {"p": 3, "n": 2, "d": 3, "trials": 100},
    ],
    "independent-bound": [
        {"p": 2, "n": 2, "d": 3, "exhaustive": True},
        {"p": 2, "n": 3, "d": 3, "trials": 1000},
    ],
    "restriction-monotone": [
        {"p": 2, "n": 3, "d": 3, "trials": 500},
        {"p": 3, "n": 2, "d": 3, "trials": 500},
    ],
    "lemma-bias": [
        {"p": 2, "n": 2, "d": 3, "trials": 500},
        {"p": 3, "n": 2, "d": 2, "trials": 200},
    ],
    "basis-invariance": [
        {"p": 3, "n": 2, "d": 3, "trials": 200},
        {"p": 2, "n": 3, "d": 3, "trials": 200},
    ],
}


def _field(p: int) -> PrimeField:
    try:
        return PrimeField(p)
    except ValueError as exc:
        raise UsageError(f"--p {p}: {exc}")


def _check_shape(n, d: int, min_n: int = 0, min_d: int = 1) -> None:
    if n is not None and n < min_n:
        raise UsageError(f"--n must be at least {min_n}, got {n}")
    if d < min_d:
        raise UsageError(f"--d must be at least {min_d}, got {d}")


def _load_tensor(path: str):
    if path == "-":
        return parse_tensor(sys.stdin.read())
    with open(path, "r", encoding="utf-8") as handle:
        return parse_tensor(handle.read())


def _bias_payload(value) -> dict:
    return {
        "numerator": value.numerator,
        "exponent": value.exponent,
        "base": value.base,
        "decimal": float(f"{value.to_float():.12f}"),
    }


def _emit(args, text_lines, payload) -> None:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_bias(args) -> int:
    t = _load_tensor(args.file)
    if args.method == "all":
        try:
            values = bias_all_engines(t, args.budget)
        except AssertionError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    else:
        values = {args.method: _ENGINES[args.method](t, args.budget)}
    lines = [f"p={t.field.p} n={t.dim} d={t.order}"]
    for name in ("fiber", "recursive", "histogram"):
        if name in values:
            v = values[name]
            lines.append(f"{name}: {v} = {v.to_float():.12f}")
    if args.method == "all":
        lines.append("engines agree")
    payload = {"p": t.field.p, "n": t.dim, "d": t.order,
               "results": {name: _bias_payload(v) for name, v in values.items()}}
    _emit(args, lines, payload)
    return 0


def cmd_arank(args) -> int:
    t = _load_tensor(args.file)
    rank = analytic_rank(bias_fiber(t, args.budget))
    if rank.infinite:
        value_text = "inf"
        value_json = "inf"
    else:
        value_text = f"{rank.value:.12f}"
        value_json = float(value_text)
    lines = [f"arank = {value_text}", f"bias  = {rank.bias}"]
    payload = {"p": t.field.p, "n": t.dim, "d": t.order,
               "arank": value_json, "bias": _bias_payload(rank.bias)}
    _emit(args, lines, payload)
    return 0


def cmd_constant(args) -> int:
    _check_shape(None, args.d, min_d=2)
    if args.q < 2:
        raise UsageError(f"--q must be at least 2, got {args.q}")
    value = c_constant(args.d, args.q)
    bound_low = 2.0 ** (-args.d)
    bound_large = 1.0 - math.log(args.d - 1) / math.log(args.q) if args.d > 1 else 1.0
    trivial = " (trivial)" if bound_large <= 0 else ""
    lines = [
        f"c({args.d}, {args.q}) = {value:.12f}",
        f"bound 2^-d = {bound_low:.12f}",
        f"bound 1 - log(d-1)/log(q) = {bound_large:.12f}{trivial}",
    ]
    payload = {"d": args.d, "q": args.q, "c": float(f"{value:.12f}"),
               "bound_2_pow_minus_d": bound_low,
               "bound_large_field": float(f"{bound_large:.12f}")}
    _emit(args, lines, payload)
    return 0


def cmd_rank(args) -> int:
    t = _load_tensor(args.file)
    if args.bounds:
        report = rank_bounds(t, args.kind, args.budget)
    else:
        report = rank_exact(t, args.kind, args.budget)
        if not report.exact:
            print("error: exact search exceeded its budget; rerun with --bounds",
                  file=sys.stderr)
            return 3
    if report.exact:
        lines = [f"{args.kind} = {report.lower} (exact)"]
        if report.certificate is not None:
            lines.append(f"certificate: {len(report.certificate)} rank-one terms, verified")
    else:
        lines = [f"{args.kind} in [{report.lower}, {report.upper}]",
                 f"lower: {report.lower_source}", f"upper: {report.upper_source}"]
    payload = {"kind": args.kind, "lower": report.lower, "upper": report.upper,
               "exact": report.exact, "lower_source": report.lower_source,
               "upper_source": report.upper_source}
    _emit(args, lines, payload)
    return 0


def cmd_maxindep(args) -> int:
    t = _load_tensor(args.file)
    indep = max_independent_set(t)
    shown = "{" + ", ".join(str(i) for i in indep) + "}"
    lines = [f"independent set = {shown}", f"size = {len(indep)}"]
    bound = None
    if t.order >= 2:
        constant = c_constant(t.order, t.field.p)
        bound = constant * len(indep)
        lines.append(f"arank >= c({t.order}, {t.field.p}) * {len(indep)} = {bound:.12f}")
    payload = {"independent_set": list(indep), "size": len(indep),
               "arank_lower_bound": None if bound is None else float(f"{bound:.12f}")}
    _emit(args, lines, payload)
    return 0


def _run_law(law_id: str, shape: dict, budget: int):
    field = PrimeField(shape["p"])
    n, d = shape["n"], shape["d"]
    exhaustive = shape.get("exhaustive", False)
    trials = shape.get("trials", 0)
    seed = shape.get("seed", 0)
    if law_id == "subadditivity":
        return law_subadditivity(field, n, d, exhaustive=exhaustive, trials=trials,
                                 seed=seed, disjoint_trials=shape.get("disjoint_trials", 0),
                                 budget=budget)
    if law_id == "correlation":
        return law_correlation(field, n, d, trials=trials, seed=seed, budget=budget)
    active = exhaustive or trials > 0
    if law_id == "arank-le-prank":
        return law_arank_le_prank(field, n, d, exhaustive=exhaustive, trials=trials,
                                  seed=seed, rank_one_check=active, budget=budget)
    if law_id == "independent-bound":
        return law_independent_bound(field, n, d, exhaustive=exhaustive, trials=trials,
                                     seed=seed, diagonal_trials=20 if active else 0,
                                     budget=budget)
    if law_id == "restriction-monotone":
        return law_restriction_monotone(field, n, d, trials=trials, seed=seed, budget=budget)
    if law_id == "lemma-bias":
        return law_lemma_bias(field, n, d, trials=trials, seed=seed, budget=budget)
    if law_id == "basis-invariance":
        return law_basis_invariance(field, n, d, trials=trials, seed=seed, budget=budget)
    raise ValueError(f"unknown law {law_id!r}")


def _universes_for(law_id: str, args) -> list[dict]:
    explicit_shape = args.p is not None or args.n is not None or args.d is not None
    if explicit_shape:
        if args.p is None or args.n is None or args.d is None:
            raise UsageError("--p, --n and --d must be given together")
        if args.exhaustive and law_id in _RANDOM_ONLY_LAWS:
            raise UsageError(f"law {law_id} has no exhaustive universe")
        _field(args.p)
        _check_shape(args.n, args.d, *_MIN_SHAPE.get(law_id, (0, 1)))
        shape = {"p": args.p, "n": args.n, "d": args.d, "seed": args.seed}
        if args.exhaustive:
            shape["exhaustive"] = True
        else:
            shape["trials"] = args.trials if args.trials is not None else 1000
        return [shape]
    shapes = [dict(shape) for shape in _LAW_DEFAULTS[law_id]]
    if args.trials is not None:
        shapes = [s for s in shapes if not s.get("exhaustive")]
        for s in shapes:
            s["trials"] = args.trials
            if "disjoint_trials" in s:
                s["disjoint_trials"] = min(s["disjoint_trials"], args.trials)
    if args.exhaustive:
        shapes = [s for s in shapes if s.get("exhaustive")]
    for s in shapes:
        s["seed"] = args.seed
    return shapes


def cmd_check(args) -> int:
    laws = list(LAW_IDS) if args.law == "all" else [args.law]
    for law_id in laws:
        if law_id not in LAW_IDS:
            raise UsageError(f"unknown law {law_id!r}; choose from {', '.join(LAW_IDS)}")
    results = []
    for law_id in laws:
        for shape in _universes_for(law_id, args):
            results.append(_run_law(law_id, shape, args.budget))
    failed = [r for r in results if not r.holds]
    if args.format == "json":
        print(json.dumps([r.to_dict() for r in results], sort_keys=True))
    else:
        for r in results:
            verdict = "holds" if r.holds else "VIOLATED"
            slack = f" min_slack={r.min_slack:.9f}" if r.min_slack is not None else ""
            print(f"{r.law:22s} {verdict:8s} checked={r.checked}{slack}  [{r.universe}]")
            for note in r.notes:
                print(f"{'':22s} note: {note}")
            if r.witness is not None:
                print(f"{'':22s} witness (replayed): {json.dumps(r.witness, sort_keys=True)}")
    return 1 if failed else 0


def cmd_gen(args) -> int:
    field = _field(args.p)
    _check_shape(args.n, args.d)
    if args.diagonal is not None:
        try:
            diag = [int(tok) % args.p for tok in args.diagonal.split(",")]
        except ValueError:
            raise UsageError(f"bad diagonal list {args.diagonal!r}")
        if args.n is not None and args.n != len(diag):
            raise UsageError("--n disagrees with the diagonal length")
        t = diagonal_tensor(field, args.d, diag)
    elif args.identity:
        if args.n is None:
            raise UsageError("--identity requires --n")
        t = identity_tensor(field, args.n, args.d)
    else:
        if args.n is None:
            raise UsageError("--n is required unless --diagonal is given")
        t = random_tensor(field, args.n, args.d, args.seed)
    sys.stdout.write(serialize_tensor(t))
    return 0


def cmd_survey(args) -> int:
    field = _field(args.p)
    _check_shape(args.n, args.d)
    if args.identity_max == 0 and args.n is None:
        raise UsageError("--n is required unless --identity-max is given")
    report = survey_gap(field, args.n if args.n is not None else 0, args.d,
                        exhaustive=args.exhaustive,
                        trials=args.trials if args.trials is not None else 0,
                        seed=args.seed, identity_max=args.identity_max,
                        budget=args.budget)
    text = report.to_tsv()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biasrank",
        description="Exact bias, analytic rank, and combinatorial ranks of tensors over F_p.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                       help="maximum elementary evaluations per enumeration")
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("bias", help="exact bias of a tensor file")
    p.add_argument("file", help="tensor file, or - for stdin")
    p.add_argument("--method", choices=("fiber", "recursive", "histogram", "all"),
                   default="fiber")
    add_common(p)
    p.set_defaults(func=cmd_bias)

    p = sub.add_parser("arank", help="analytic rank of a tensor file")
    p.add_argument("file")
    add_common(p)
    p.set_defaults(func=cmd_arank)

    p = sub.add_parser("constant", help="the diagonal constant c(d, q) and its bounds")
    p.add_argument("--d", type=int, required=True, help="tensor order, at least 2")
    p.add_argument("--q", type=int, required=True, help="field size")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_constant)

    p = sub.add_parser("rank", help="tensor / slice / partition rank")
    p.add_argument("file")
    p.add_argument("--kind", choices=("rank", "srank", "prank"), default="prank")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--exact", action="store_true", default=True)
    mode.add_argument("--bounds", action="store_true")
    add_common(p)
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("maxindep", help="maximum independent set of a tensor")
    p.add_argument("file")
    add_common(p)
    p.set_defaults(func=cmd_maxindep)

    p = sub.add_parser("check", help="run law checks")
    p.add_argument("law", help="law id or `all`")
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--d", type=int, default=None)
    add_common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("gen", help="emit a canonical tensor file on stdout")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--identity", action="store_true")
    p.add_argument("--diagonal", type=str, default=None,
                   help="comma-separated diagonal coefficients")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("survey", help="tabulate analytic rank versus partition rank")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--identity-max", type=int, default=0)
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.set_defaults(func=cmd_survey)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TensorFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
