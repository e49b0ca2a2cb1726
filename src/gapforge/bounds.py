"""The calculable lower-bound pipeline.

The chain goes: squared gate set -> spectral gaps of all removal subsets at
the reference scale t0 -> the aggregate

    g_t0(S) = (1/|S|) * sum_{m=0}^{k-2} min_{j_1..j_m} gap_t0(S^2_{j_1..j_m})^2

-> the closed-form bound at any scale t >= t0:

    gap_t(S) >= alpha(d, eps0) * g_t0(S) * log(beta(d) t)^{-2c}.

The closed form is an algebraic collapse of the per-subset diameter estimates
(gap_bound_from_diameter below) at the canonical eps_m = 1/(4 C t); both
routes are evaluated and asserted equal to relative 1e-12 on every call.

Also here: the two epsilon-net length laws derived from a gap.  The covering
law ell <= (d^2-1)/gap * log(1/eps) + B has a negative intercept B and is
therefore vacuous for eps >= 2/9.5; the scale-resolved variant stays positive
and is the one used for empirical comparisons.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field

# gap_at_scale is not called here; perfbench/spans.py patches bounds.gap_at_scale
from .avgop import checked_gap, gap_at_scale, subset_norms  # noqa: F401
from .constants import (
    C_BALL,
    C_CHORD,
    SK_EXPONENT,
    BoundParams,
    scale_t0,
    covering_law_constants,
)
from .errors import DomainError
from .gates import GateSet, squared_set, universality_heuristic

__all__ = [
    "SubsetGapTable",
    "BoundReport",
    "g_t0",
    "main_lower_bound",
    "gap_bound_from_diameter",
    "net_length_covering",
    "net_length_scale_bound",
]


@dataclass(frozen=True)
class SubsetGapTable:
    """Minimal subset gaps of the squared set at the reference scale.

    per_m[m] = (min gap over all m-element removals, the minimizing removal).
    """

    t0: int
    per_m: tuple  # ((min_gap, removed_indices), ...) for m = 0 .. k-2
    k: int
    universality: tuple = field(default=())  # ((i, j, verdict), ...)

    def to_json_dict(self) -> dict:
        return {
            "t0": self.t0,
            "k": self.k,
            "per_m": [
                {"m": m, "min_gap": g, "removed": list(sub)}
                for m, (g, sub) in enumerate(self.per_m)
            ],
            "universality": [
                {"pair": [i, j], "verdict": v} for i, j, v in self.universality
            ],
        }


@dataclass(frozen=True)
class BoundReport:
    """The lower bound at scale t together with everything that entered it."""

    params: BoundParams
    g_t0: float
    t: int
    lower_bound: float
    table: SubsetGapTable
    below_reference_scale: bool

    def to_json_dict(self) -> dict:
        return {
            "params": self.params.to_json_dict(),
            "g_t0": self.g_t0,
            "t": self.t,
            "lower_bound": self.lower_bound,
            "subset_gaps": self.table.to_json_dict(),
            "below_reference_scale": self.below_reference_scale,
        }


def g_t0(
    gs: GateSet,
    eps0: float | None = None,
    t_override: int | None = None,
    check_universality: bool = True,
    threads: int | None = None,
    progress=None,
) -> tuple:
    """The aggregate squared subset gap entering the main bound.

    Returns (g, SubsetGapTable).  The reference scale is scale_t0(eps0, d)
    unless t_override pins it directly (the t_override path is how the
    expensive reference scales are desk-checked at small t).

    All removal subsets share one pass over the weights, which builds each
    squared gate's image once per weight.  progress(m, removed, gap) therefore
    fires only after that pass, once per subset in (m, removed) order.
    """
    if not gs.symmetric:
        raise DomainError("g_t0 needs a symmetric gate set")
    k = gs.k
    if k < 2:
        raise DomainError(f"g_t0 needs k >= 2 gate pairs, got k={k}")
    if t_override is not None:
        if not isinstance(t_override, int) or t_override < 1:
            raise DomainError(f"t_override must be an integer >= 1, got {t_override!r}")
        t0 = t_override
    else:
        if eps0 is None:
            raise DomainError("g_t0 needs eps0 unless t_override is given")
        t0 = scale_t0(eps0, gs.d)

    sq = squared_set(gs)
    verdicts = []
    if check_universality:
        for i, j in itertools.combinations(range(k), 2):
            sub = GateSet(d=gs.d, pairs=(sq.pairs[i], sq.pairs[j]), symmetric=True)
            v = universality_heuristic(sub)
            if v != "universal-likely":
                warnings.warn(
                    f"squared pair subset ({i}, {j}) looks {v}; the subset gaps "
                    f"and hence g_t0 may degenerate to zero"
                )
            verdicts.append((i, j, v))

    removals = [c for m in range(k - 1) for c in itertools.combinations(range(k), m)]
    keeps = [tuple(i for i in range(k) if i not in c) for c in removals]
    _weights, norms = subset_norms(sq, t0, keeps, threads=threads)
    best = {}  # m -> (min gap, removal); the first removal wins ties
    for j, combo in enumerate(removals):
        gap = checked_gap(max(row[j] for row in norms))
        if progress is not None:
            progress(len(combo), combo, gap)
        m = len(combo)
        if m not in best or gap < best[m][0]:
            best[m] = (gap, combo)
    per_m = [(max(best[m][0], 0.0), best[m][1]) for m in range(k - 1)]

    for m in range(1, len(per_m)):
        if per_m[m][0] > per_m[m - 1][0] + 1e-10:
            warnings.warn(
                f"subset minimum increased from m={m - 1} to m={m} "
                f"({per_m[m - 1][0]:.6g} -> {per_m[m][0]:.6g}); the removal "
                f"family is not gap-monotone for this set"
            )

    g = sum(gap * gap for gap, _ in per_m) / (2 * k)
    if not 0.0 <= g <= (k - 1) / (2 * k) + 1e-12:
        raise AssertionError(f"g_t0 = {g!r} outside [0, (k-1)/(2k)]")
    table = SubsetGapTable(t0=t0, per_m=tuple(per_m), k=k, universality=tuple(verdicts))
    return g, table


def main_lower_bound(
    gs: GateSet,
    eps0: float,
    t: int | None = None,
    t_override: int | None = None,
    check_universality: bool = True,
    threads: int | None = None,
) -> BoundReport:
    """gap_t(S) >= alpha * g_t0(S) * log(beta t)^{-2c}, fully evaluated.

    t defaults to the reference scale t0(eps0, d).  Requesting t below t0 is
    an error unless t_override is supplied, in which case the report carries
    below_reference_scale=True: the number is then a diagnostic, not a
    guarantee.
    """
    params = BoundParams.compute(gs.d, eps0)
    if t is None:
        t = params.t0
    if not isinstance(t, int) or t < 1:
        raise DomainError(f"t must be an integer >= 1, got {t!r}")
    below = t < params.t0 or (t_override is not None and t_override < params.t0)
    if t < params.t0 and t_override is None:
        raise DomainError(
            f"t={t} is below the reference scale t0={params.t0}; pass t_override "
            f"to evaluate the diagnostic anyway"
        )
    if below:
        warnings.warn(
            f"evaluating below the reference scale t0={params.t0}; the result "
            f"is a diagnostic, not a guaranteed bound"
        )
    log_arg = params.beta * t
    if log_arg <= math.e:
        raise DomainError(
            f"beta * t = {log_arg:.6g} <= e; the log factor is not meaningful"
        )

    g, table = g_t0(
        gs,
        eps0=eps0,
        t_override=t_override,
        check_universality=check_universality,
        threads=threads,
    )

    log_factor = math.log(log_arg) ** (-2.0 * SK_EXPONENT)
    bound_closed = params.alpha * g * log_factor

    # independent re-derivation through the per-subset diameter constants
    k = gs.k
    d = gs.d
    if params.alpha == 0.0:
        bound_rederived = 0.0  # boundary eps0: the diameter estimate certifies nothing
    else:
        eps_m = 1.0 / (4.0 * C_CHORD * t)
        per_m = []
        for gap_m, _ in table.per_m:
            diam_m = math.inf  # removal subset with no mixing contributes nothing
            if gap_m > 0.0:
                ell_0m, _ = net_length_scale_bound(d, gap_m, eps0)
                A_m = ell_0m / (2.0 * math.log(1.0 / (params.c_s * eps0))) ** SK_EXPONENT
                diam_m = A_m * math.log(1.0 / (params.c_s**2 * eps_m)) ** SK_EXPONENT
            per_m.append((eps_m, diam_m))
        bound_rederived = gap_bound_from_diameter(d, t, k, per_m)
    # relative: bounds are typically far below 1, where an absolute 1e-12
    # would accept any error in alpha
    if not abs(bound_closed - bound_rederived) <= 1e-12 * abs(bound_closed):
        raise AssertionError(
            f"closed-form bound {bound_closed!r} != re-derived {bound_rederived!r}"
        )

    return BoundReport(
        params=params,
        g_t0=g,
        t=t,
        lower_bound=bound_closed,
        table=table,
        below_reference_scale=below,
    )


def gap_bound_from_diameter(d: int, t: int, k: int, per_m) -> float:
    """Simplified bound (1/8k) sum_m (1 - 2 C t eps_m)^2 / diam_m^2.

    per_m: (eps_m, diam_m) for m = 0..k-2, with 0 < eps_m <= 1/(2 C t).
    """
    if d < 2:
        raise DomainError(f"d must be >= 2, got {d}")
    if t < 1:
        raise DomainError(f"t must be >= 1, got {t}")
    per_m = list(per_m)
    if len(per_m) != k - 1:
        raise DomainError(f"need k-1 = {k - 1} entries, got {len(per_m)}")
    cap = 1.0 / (2.0 * C_CHORD * t)
    total = 0.0
    for eps_m, diam_m in per_m:
        if not (0.0 < eps_m <= cap and eps_m < 1.0):
            raise DomainError(f"eps_m must be in (0, {cap:.6g}], got {eps_m}")
        if diam_m <= 0:
            raise DomainError(f"diameters must be positive, got {diam_m}")
        total += (1.0 - 2.0 * C_CHORD * t * eps_m) ** 2 / diam_m**2
    return total / (8.0 * k)


def net_length_covering(d: int, gap: float, eps: float) -> float:
    """Net-length law from the covering argument: (d^2-1)/gap * log(1/eps) + B.

    B < 0 always; for eps >= 2/9.5 the value is nonpositive and the law is
    vacuous (it certifies nothing).  Callers comparing against empirical nets
    should prefer net_length_scale_bound in that regime.
    """
    if not 0.0 < eps < 1.0:
        raise DomainError(f"eps must be in (0, 1), got {eps}")
    slope, intercept, _ = covering_law_constants(d, gap)
    return slope * math.log(1.0 / eps) + intercept


def net_length_scale_bound(d: int, gap_t: float, eps: float) -> tuple:
    """Scale-resolved net length: (ell, required scale t).

    ell = [(d^2-1)(2 log(1/eps) + log(4 C_b^{3/2} d)) + log 32] / gap_t is a
    valid length once the gap is certified at the returned scale.
    """
    if d < 2:
        raise DomainError(f"d must be >= 2, got {d}")
    if not 0.0 < gap_t <= 1.0:
        raise DomainError(f"gap_t must be in (0, 1], got {gap_t}")
    if not 0.0 < eps < 1.0:
        raise DomainError(f"eps must be in (0, 1), got {eps}")
    numer = (d * d - 1) * (
        2.0 * math.log(1.0 / eps) + math.log(4.0 * C_BALL**1.5 * d)
    ) + math.log(32.0)
    return numer / gap_t, scale_t0(eps, d)
