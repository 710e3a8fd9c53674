"""The empirical gap survey: analytic rank against partition rank, with no verdict,
on the universes of :mod:`biasrank.laws` or on identity tensors."""

from dataclasses import dataclass
from math import inf
from typing import Optional

from .bias import DEFAULT_BUDGET, analytic_rank, bias_fiber
from .gf import PrimeField
from .laws import _universe
from .ranks import rank_exact
from .tensor import identity_tensor


@dataclass(frozen=True)
class SurveyRow:
    label: str
    arank: float
    prank_lower: int
    prank_upper: int
    exact: bool
    ratio: Optional[float]


@dataclass(frozen=True)
class SurveyReport:
    universe: str
    rows: tuple[SurveyRow, ...]
    max_ratio: Optional[float]

    def to_tsv(self) -> str:
        lines = ["label\tarank\tprank_lower\tprank_upper\texact\tratio"]
        for row in self.rows:
            ratio = f"{row.ratio:.6f}" if row.ratio is not None else ""
            lines.append(f"{row.label}\t{row.arank:.12f}\t{row.prank_lower}"
                         f"\t{row.prank_upper}\t{int(row.exact)}\t{ratio}")
        max_ratio = f"{self.max_ratio:.6f}" if self.max_ratio is not None else "n/a"
        lines.append(f"# max_ratio = {max_ratio} over {len(self.rows)} rows ({self.universe})")
        return "\n".join(lines) + "\n"


def survey_gap(field: PrimeField, dim: int, order: int, *,
               exhaustive: bool = False, trials: int = 0, seed: int = 0,
               identity_max: int = 0, budget: int = DEFAULT_BUDGET) -> SurveyReport:
    """Tabulate (arank, partition rank or bounds, ratio); zero tensors skipped.

    The identity family changes dimension from row to row.  A row whose
    partition rank :func:`rank_exact` gives as an interval reports it,
    and a row of infinite analytic rank (bias 0) has no ratio.
    """
    if identity_max:
        universe = f"identity tensors n=1..{identity_max} p={field.p} d={order}"
        labelled = ((f"identity-n{n}", identity_tensor(field, n, order))
                    for n in range(1, identity_max + 1))
    else:
        if exhaustive:
            universe = f"exhaustive p={field.p} n={dim} d={order}"
            prefix = "tensor"
        else:
            universe = f"random p={field.p} n={dim} d={order} trials={trials} seed={seed}"
            prefix = "seeded"
        labelled = ((f"{prefix}-{i}", t) for i, t in enumerate(
            _universe(field, dim, order, exhaustive=exhaustive, trials=trials, seed=seed)))
    rows = []
    max_ratio = None
    for label, t in labelled:
        if t.is_zero():
            continue
        ar = analytic_rank(bias_fiber(t, budget)).value
        report = rank_exact(t, "prank", budget)
        ratio = None
        if report.exact and 0 < ar < inf:
            ratio = report.value / ar
            if max_ratio is None or ratio > max_ratio:
                max_ratio = ratio
        rows.append(SurveyRow(label, ar, report.lower, report.upper, report.exact, ratio))
    return SurveyReport(universe, tuple(rows), max_ratio)
