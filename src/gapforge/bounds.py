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

from .avgop import (T_PROBE, averaging_block, block_operator_norm, checked_gap, gap_at_scale,
                    subset_norms)
from .constants import (
    C_BALL,
    C_CHORD,
    SK_EXPONENT,
    BoundParams,
    scale_t0,
    covering_law_constants,
)
from .errors import DomainError
from .gates import GateSet, squared_set
from .weightlat import Weight, check_d, check_scale

__all__ = [
    "SubsetGapTable",
    "BoundReport",
    "g_t0",
    "universality_heuristic",
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
    squared gate's image once per weight.  Pass.worst reads each subset's gap
    off the pass up to t0 and, as the m = k-2 removals leave every squared
    pair, each pair's universality verdict up to T_PROBE (the pass then runs to
    max(t0, T_PROBE)).  The pass certifies, rather than solves, the blocks that
    cannot set a subset's maximum (subset_norms(certify=True)); the maxima, and
    so the table, are the same floats as from exact norms.
    progress(m, removed, gap) fires only after the pass, once per subset in
    (m, removed) order.
    """
    if not gs.symmetric:
        raise DomainError("g_t0 needs a symmetric gate set")
    k = gs.k
    if k < 2:
        raise DomainError(f"g_t0 needs k >= 2 gate pairs, got k={k}")
    if t_override is not None:
        t0 = check_scale(t_override)
    else:
        if eps0 is None:
            raise DomainError("g_t0 needs eps0 unless t_override is given")
        t0 = scale_t0(eps0, gs.d)

    sq = squared_set(gs)
    removals = [c for m in range(k - 1) for c in itertools.combinations(range(k), m)]
    keeps = [tuple(i for i in range(k) if i not in c) for c in removals]
    t_pass = max(t0, T_PROBE) if check_universality else t0
    p = subset_norms(sq, t_pass, keeps, threads=threads, certify=True)

    verdicts = []
    if check_universality:
        for i, j in itertools.combinations(range(k), 2):
            sub = GateSet(d=gs.d, pairs=(sq.pairs[i], sq.pairs[j]), symmetric=True)
            v = _verdict(sub, *p.worst(keeps.index((i, j)), T_PROBE))
            if v != "universal-likely":
                warnings.warn(
                    f"squared pair subset ({i}, {j}) looks {v}; the subset gaps "
                    f"and hence g_t0 may degenerate to zero"
                )
            verdicts.append((i, j, v))

    gaps = [checked_gap(p.worst(j, t0)[0]) for j in range(len(keeps))]
    if progress is not None:
        for combo, gap in zip(removals, gaps):
            progress(len(combo), combo, gap)
    # removals of one size come in lexicographic order, so the first wins ties
    per_m = [min((gap, c) for gap, c in zip(gaps, removals) if len(c) == m)
             for m in range(k - 1)]

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


def universality_heuristic(gs: GateSet) -> str:
    """Probe whether <S> is dense in PU(d) from its worst block up to T_PROBE,
    which Pass.worst reads off gap_at_scale's pass, all head and so all exact.

    'not-universal'    — the gap is at most 1e-8 (an invariant vector: a
                         proper closed subgroup), and the worst block, built
                         again in the complex GT basis, has the norm read;
    'universal-likely' — the gap is at least 1e-6;
    'inconclusive'     — in between.
    """
    gs = gs.symmetrized()
    report = gap_at_scale(gs, T_PROBE)
    return _verdict(gs, report.per_weight_norms[report.worst_weight], report.worst_weight)


def _verdict(gs: GateSet, top: float, w: Weight) -> str:
    """universality_heuristic's verdict from Pass.worst's (top, w) of gs's full
    blocks up to T_PROBE: the worst norm and its weight."""
    gap = checked_gap(top)
    if gap <= 1e-8:
        # the worst block, normed apart from the pass
        again = block_operator_norm(averaging_block(w, gs))
        if not abs(again - top) <= 1e-10:
            raise AssertionError(f"the worst block's norm {again!r} is not the {top!r} read")
        return "not-universal"
    if gap >= 1e-6:
        return "universal-likely"
    return "inconclusive"


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
    check_scale(t)
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
    check_d(d)
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
    return _finite_length(slope * math.log(1.0 / eps) + intercept, gap, eps)


def net_length_scale_bound(d: int, gap_t: float, eps: float) -> tuple:
    """Scale-resolved net length: (ell, required scale t).

    ell = [(d^2-1)(2 log(1/eps) + log(4 C_b^{3/2} d)) + log 32] / gap_t is a
    valid length once the gap is certified at the returned scale.
    """
    check_d(d)
    if not 0.0 < gap_t <= 1.0:
        raise DomainError(f"gap_t must be in (0, 1], got {gap_t}")
    if not 0.0 < eps < 1.0:
        raise DomainError(f"eps must be in (0, 1), got {eps}")
    numer = (d * d - 1) * (
        2.0 * math.log(1.0 / eps) + math.log(4.0 * C_BALL**1.5 * d)
    ) + math.log(32.0)
    return _finite_length(numer / gap_t, gap_t, eps), scale_t0(eps, d)


def _finite_length(ell: float, gap: float, eps: float) -> float:
    # a gap or eps near the smallest subnormal overflows 1 / gap or 1 / eps
    if not math.isfinite(ell):
        raise DomainError(f"the net length is not finite at gap = {gap}, eps = {eps}")
    return ell
