"""The calculable constants of the spectral-gap lower bound.

Everything here is elementary arithmetic:

    c   = log 5 / log(3/2)      exponent of the commutator-shrinking recursion
    C   = pi / 2                chord-vs-arc constant of the projective metric
    C_b = 9 pi                  ball-volume constant entering net sizes
    c_s = d + 2                 scale constant of the diameter estimate

    tau(eps, d) = L * sqrt(L / 32 + log(d L / eps)),  L = sqrt(log(6 C_b / eps))
    t0(eps0, d) = ceil(5 d^{5/2} / eps0 * tau(eps0, d))
    beta(d)     = 4 C / c_s^2 = 2 pi / (d + 2)^2
    alpha(d, eps0) =
        (2 log(1/(c_s eps0)))^{2c}
        / (16 ((d^2-1)(2 log(1/eps0) + log(4 C_b^{3/2} d)) + log 32)^2)

alpha is positive for 0 < eps0 < 1/(d+2) and vanishes at eps0 = 1/(d+2),
where the bound degenerates; the boundary is handled structurally (exact zero
plus a warning) rather than left to floating point.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import asdict, dataclass

from .errors import DomainError
from .weightlat import check_d

__all__ = [
    "SK_EXPONENT",
    "BoundParams",
    "tau",
    "scale_t0",
    "alpha",
    "beta",
    "eps0_min",
    "covering_law_constants",
    "emit_tables",
    "TABLE_EPS0_GRID",
]

SK_EXPONENT = math.log(5.0) / math.log(1.5)  # c ~ 3.969362295916998
C_CHORD = math.pi / 2.0
C_BALL = 9.0 * math.pi

# the eps0 grids of the reference tables, per dimension; the last entry is
# the largest admissible value below the degeneration point 1/(d+2)
TABLE_EPS0_GRID = {
    2: [round(0.04 + 0.01 * i, 2) for i in range(14)] + [0.25],
    3: [round(0.02 + 0.01 * i, 2) for i in range(14)] + [0.20],
    4: [round(0.01 + 0.01 * i, 2) for i in range(14)] + [1.0 / 6.0],
}


def c_scale(d: int) -> float:
    return float(d + 2)


def eps0_min(d: int) -> float:
    """Largest admissible eps0; alpha vanishes exactly at this point."""
    check_d(d)
    return 1.0 / (d + 2)


def tau(eps: float, d: int) -> float:
    """Auxiliary net-resolution factor; increases as eps decreases."""
    check_d(d)
    if not 0.0 < eps < 1.0:
        raise DomainError(f"tau needs 0 < eps < 1, got {eps}")
    L = math.sqrt(math.log(6.0 * C_BALL / eps))
    return L * math.sqrt(L / 32.0 + math.log(d * L / eps))


def scale_t0(eps0: float, d: int) -> int:
    """Smallest scale at which the bound machinery is guaranteed to engage."""
    check_d(d)
    if not 0.0 < eps0 < 1.0:
        raise DomainError(f"scale_t0 needs 0 < eps0 < 1, got {eps0}")
    t0 = 5.0 * d**2.5 / eps0 * tau(eps0, d)
    if not math.isfinite(t0):  # eps0 so small that the quotient overflows
        raise DomainError(f"scale_t0 is not finite at eps0 = {eps0}")
    return math.ceil(t0)


def beta(d: int) -> float:
    check_d(d)
    return 4.0 * C_CHORD / c_scale(d) ** 2


def alpha(d: int, eps0: float) -> float:
    """Prefactor of the lower bound; exactly 0 (with a warning) at eps0_min."""
    check_d(d)
    top = eps0_min(d)
    if not 0.0 < eps0 <= top:
        raise DomainError(
            f"alpha needs 0 < eps0 <= 1/(d+2) = {top:.6g}, got {eps0}"
        )
    if eps0 == top:
        warnings.warn(
            f"alpha(d={d}, eps0={eps0:.6g}) sits at the degeneration point "
            f"eps0 = 1/(d+2); the lower bound is vacuous there"
        )
        return 0.0
    num = (2.0 * math.log(1.0 / (c_scale(d) * eps0))) ** (2.0 * SK_EXPONENT)
    den = 16.0 * (
        (d * d - 1) * (2.0 * math.log(1.0 / eps0) + math.log(4.0 * C_BALL**1.5 * d))
        + math.log(32.0)
    ) ** 2
    return num / den


@dataclass(frozen=True)
class BoundParams:
    """All resolved constants of the lower bound for one (d, eps0)."""

    d: int
    eps0: float
    c: float
    c_s: float
    C: float
    C_b: float
    t0: int
    alpha: float
    beta: float

    @classmethod
    def compute(cls, d: int, eps0: float) -> "BoundParams":
        check_d(d)
        a = alpha(d, eps0)  # validates eps0 and warns at the boundary
        return cls(
            d=d,
            eps0=float(eps0),
            c=SK_EXPONENT,
            c_s=c_scale(d),
            C=C_CHORD,
            C_b=C_BALL,
            t0=scale_t0(eps0, d),
            alpha=a,
            beta=beta(d),
        )

    def to_json_dict(self) -> dict:
        return asdict(self)


def covering_law_constants(d: int, gap: float) -> tuple:
    """(slope, intercept, C_V) of the net-length law ell(eps) <= slope * log(1/eps) + B.

    C_V = 9.5^{d^2-1} bounds the covering numbers of the group; the intercept
    B = -(log C_V - (d^2-1) log 2) / gap is negative, so the law only yields a
    positive length guarantee for eps < 2 / 9.5.
    """
    check_d(d)
    if not 0.0 < gap <= 1.0:
        raise DomainError(f"gap must be in (0, 1], got {gap}")
    dim = d * d - 1
    C_V = 9.5**dim
    slope = dim / gap
    B = -(math.log(C_V) - dim * math.log(2.0)) / gap
    return slope, B, C_V


def emit_tables(d_values=(2, 3, 4), fmt: str = "rows"):
    """Reference tables of (d, eps0, t0, alpha, beta) over TABLE_EPS0_GRID.

    fmt: 'rows' (list of dicts) or 'csv' (string, columns d,eps0,t0,alpha,beta,
    alpha in scientific notation with three significant digits, matching the
    reference layout).
    """
    rows = []
    for d in d_values:
        grid = TABLE_EPS0_GRID.get(d)
        if grid is None:
            raise DomainError(f"no reference eps0 grid for d={d}")
        for eps0 in grid:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # boundary rows are expected
                p = BoundParams.compute(d, eps0)
            rows.append(
                {
                    "d": d,
                    "eps0": p.eps0,
                    "t0": p.t0,
                    "alpha": p.alpha,
                    "beta": p.beta,
                }
            )
    if fmt == "rows":
        return rows
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["d", "eps0", "t0", "alpha", "beta"])
        for r in rows:
            writer.writerow(
                [r["d"], r["eps0"], r["t0"], f"{r['alpha']:.2e}", f"{r['beta']:.3f}"]
            )
        return buf.getvalue()
    raise DomainError(f"unknown table format {fmt!r}")
