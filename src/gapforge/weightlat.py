"""Highest-weight bookkeeping for PU(d) irreducibles at finite scale.

The irreps that enter the t-fold tensor power (U (x) Ubar)^{(x)t} are labelled
by nonincreasing integer vectors lambda of length d with sum(lambda) = 0 whose
positive part has total size at most t.  This module enumerates those labels
and computes the per-irrep metadata (dimension, 1-norm, Frobenius-Schur
indicator) that the averaging-operator machinery consumes.

Weights are kept in the canonical sum-zero normalization, which is the unique
representative of minimal 1-norm among constant integer shifts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import DomainError

__all__ = [
    "Weight",
    "enumerate_weights",
    "enumerate_nontrivial_weights",
    "weyl_dimension",
    "frobenius_schur",
]


@dataclass(frozen=True, order=True)
class Weight:
    """A dominant PU(d) weight in sum-zero normalization.

    entries: nonincreasing integers summing to zero.  Hashable, so Weight
    doubles as a dict key for per-irrep tables.
    """

    entries: tuple[int, ...]

    def __post_init__(self):
        e = self.entries
        if len(e) < 2:
            raise DomainError(f"weight needs at least 2 entries, got {e!r}")
        if not all(isinstance(x, int) for x in e):
            raise DomainError(f"weight entries must be integers, got {e!r}")
        if any(e[i] < e[i + 1] for i in range(len(e) - 1)):
            raise DomainError(f"weight entries must be nonincreasing, got {e!r}")
        if sum(e) != 0:
            raise DomainError(f"weight entries must sum to zero, got {e!r}")

    @property
    def d(self) -> int:
        return len(self.entries)

    @property
    def one_norm(self) -> int:
        return sum(abs(x) for x in self.entries)

    @property
    def positive_size(self) -> int:
        # |lambda_+|: total size of the positive part, the scale at which
        # this irrep first appears.
        return sum(x for x in self.entries if x > 0)

    def conjugate(self) -> "Weight":
        return Weight(conjugate_entries(self.entries))

    def is_trivial(self) -> bool:
        return all(x == 0 for x in self.entries)


def _partitions(s: int, max_parts: int, max_first: int | None = None) -> Iterator[tuple[int, ...]]:
    """Nonincreasing positive tuples summing to s with at most max_parts parts."""
    if s == 0:
        yield ()
        return
    if max_parts <= 0:
        return
    first_cap = s if max_first is None else min(s, max_first)
    for f in range(first_cap, 0, -1):
        if f * max_parts < s:
            break  # parts <= f cannot reach s; smaller f cannot either
        for rest in _partitions(s - f, max_parts - 1, f):
            yield (f,) + rest


def enumerate_weights(d: int, t: int) -> list[Weight]:
    """All dominant sum-zero weights of PU(d) appearing up to scale t.

    A weight lambda appears iff |lambda_+| <= t.  Every such lambda splits
    uniquely into a positive partition mu and a negative partition nu with
    |mu| = |nu| = s <= t and #parts(mu) + #parts(nu) <= d, so we enumerate
    partition pairs; a mu of d parts leaves no room for nu, so mu has at
    most d - 1 (one pair per s at d = 2).  Output is sorted lexicographically
    descending, trivial weight last.
    """
    check_d(d)
    if not isinstance(t, int) or t < 0:
        raise DomainError(f"t must be an integer >= 0, got {t!r}")
    out = []
    for s in range(t + 1):
        for mu in _partitions(s, d - 1):
            room = d - len(mu)
            for nu in _partitions(s, room):
                pad = d - len(mu) - len(nu)
                entries = mu + (0,) * pad + tuple(-x for x in reversed(nu))
                out.append(Weight(entries))
    out.sort(key=lambda w: w.entries, reverse=True)
    assert len(set(out)) == len(out)  # partition-pair decomposition is unique
    return out


def enumerate_nontrivial_weights(d: int, t: int) -> list[Weight]:
    return [w for w in enumerate_weights(d, t) if not w.is_trivial()]


def weyl_dimension(weight: Weight) -> int:
    """dim of the irrep with highest weight lambda, by the Weyl formula.

    prod_{i<j} (lambda_i - lambda_j + j - i) / (j - i), exact in integer
    arithmetic.
    """
    lam = weight.entries
    n = len(lam)
    num = 1
    den = 1
    for i in range(n):
        for j in range(i + 1, n):
            num *= lam[i] - lam[j] + j - i
            den *= j - i
    q, r = divmod(num, den)
    assert r == 0
    return q


def frobenius_schur(weight: Weight) -> int:
    """Frobenius-Schur indicator: 1 iff self-conjugate, else 0.

    PU(d) irreps of the tensor powers treated here are never quaternionic,
    so the indicator is {0, 1}-valued.  The entries are compared with the
    conjugate's directly: conjugate() would build and check a new Weight.
    """
    return 1 if weight.entries == conjugate_entries(weight.entries) else 0


def conjugate_entries(entries: tuple) -> tuple:
    """The conjugate weight's entries, -reversed(entries), with no Weight built."""
    return tuple(-x for x in reversed(entries))


# dimension and scale sanity shared by the other modules
def check_d(d) -> int:
    if not isinstance(d, int) or d < 2:
        raise DomainError(f"d must be an integer >= 2, got {d!r}")
    return d


def check_scale(t) -> int:
    if not isinstance(t, int) or t < 1:
        raise DomainError(f"scale t must be an integer >= 1, got {t!r}")
    return t
