"""Independent oracles and test-only helpers that the tests compare the
library against.

check_generator_relations verifies the gl(d) commutation relations of a GT
basis's generator images; frobenius_schur_montecarlo estimates the
Frobenius-Schur indicator from characters of Haar samples.  build_block_operator
holds every averaging block at one scale, and convergence_profile powers them;
b_coefficient is the per-irrep mixing coefficient of the diameter estimate,
and gap_bound_from_b sums those coefficients into a gap bound.  subset_squares
builds one removal subset of the squared set, the reference for the one-pass
subset table of g_t0.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from gapforge.avgop import averaging_block, block_operator_norm
from gapforge.constants import C_CHORD
from gapforge.errors import DomainError
from gapforge.gates import GateSet, _haar_unitary, squared_set
from gapforge.irrep import GTBasis, weyl_character
from gapforge.weightlat import (
    IrrepMeta,
    Weight,
    check_scale,
    enumerate_nontrivial_weights,
)


def check_generator_relations(basis: GTBasis, tol: float = 1e-10) -> float:
    """Max violation of [E_ab, E_cd] = delta_bc E_ad - delta_da E_cb over all
    generator pairs; raises AssertionError above tol.  Returns the residual."""
    d = basis.d
    full = basis._full_images
    worst = 0.0
    pairs = list(full.keys())
    for (a, b) in pairs:
        for (c, e) in pairs:
            lhs = full[(a, b)] @ full[(c, e)] - full[(c, e)] @ full[(a, b)]
            rhs = sp.csr_matrix(lhs.shape, dtype=np.complex128)
            if b == c:
                rhs = rhs + full[(a, e)]
            if e == a:
                rhs = rhs - full[(c, b)]
            resid = abs(lhs - rhs).max() if (lhs - rhs).nnz else 0.0
            worst = max(worst, float(resid))
    assert worst <= tol, f"commutation relations violated: {worst:.3e}"
    return worst


def frobenius_schur_montecarlo(weight: Weight, n_samples: int, seed: int) -> float:
    """Monte Carlo estimate of int chi_lambda(g^2) dmu(g) over PU(d)'s cover.

    Converges to the Frobenius-Schur indicator at the usual N^{-1/2} rate;
    used as an independent oracle for the combinatorial indicator.
    """
    rng = np.random.default_rng(seed)
    total = 0.0
    for _ in range(n_samples):
        g = _haar_unitary(weight.d, rng)
        phases = np.angle(np.linalg.eigvals(g @ g))
        total += weyl_character(weight, phases).real
    return total / n_samples


@dataclass(frozen=True)
class BlockOperator:
    """All nontrivial irrep blocks of the averaging operator at one scale."""

    scale: int
    blocks: dict  # Weight -> (dim, dim) complex ndarray


def build_block_operator(gs, t: int) -> BlockOperator:
    check_scale(t)
    blocks = {
        w: averaging_block(w, gs)
        for w in enumerate_nontrivial_weights(gs.d, t)
    }
    return BlockOperator(scale=t, blocks=blocks)


def convergence_profile(gs, t: int, ell_max: int) -> list:
    """max block norm of the ell-fold product for ell = 1..ell_max.

    Direct power iteration on the blocks; the profile is the exact decay of
    ||T^ell - T_mu|| restricted to scale t, bounded by (1 - gap)^ell.
    """
    check_scale(t)
    if ell_max < 1:
        raise DomainError(f"ell_max must be >= 1, got {ell_max}")
    op = build_block_operator(gs.symmetrized() if not gs.symmetric else gs, t)
    powers = {w: B.copy() for w, B in op.blocks.items()}
    profile = []
    for _ell in range(1, ell_max + 1):
        worst = max(
            block_operator_norm(P, hermitian=False) for P in powers.values()
        )
        profile.append(float(worst))
        for w in powers:
            powers[w] = powers[w] @ op.blocks[w]
    return profile


def b_coefficient(meta: IrrepMeta, eps: float, ell: float) -> float:
    """Per-irrep mixing coefficient (sqrt(2 (1 - i/d)) - C ||lambda||_1 eps) / ell."""
    if meta.one_norm <= 0:
        raise DomainError("b_coefficient needs a nontrivial weight")
    top = math.sqrt(2.0 * (1.0 - meta.fs_indicator / meta.dim))
    cap = top / (C_CHORD * meta.one_norm)
    if not (0.0 < eps < 1.0 and eps <= cap):
        raise DomainError(
            f"eps must satisfy 0 < eps <= {cap:.6g} (and < 1), got {eps}"
        )
    if ell <= 0:
        raise DomainError(f"ell must be positive, got {ell}")
    return (top - C_CHORD * meta.one_norm * eps) / ell


def gap_bound_from_b(b_list, k: int) -> tuple:
    """(strong, weak) gap bounds from the k-1 subset coefficients.

    strong = (1/8k) sum_m b_m^2,  weak = ((k-1)/8k) b_{k-2}^2; the list is
    ordered by m, and since b_m is nonincreasing in m, strong >= weak.
    """
    if k < 2:
        raise DomainError(f"need k >= 2, got {k}")
    b_list = [float(b) for b in b_list]
    if len(b_list) != k - 1:
        raise DomainError(f"need k-1 = {k - 1} coefficients, got {len(b_list)}")
    if any(b < 0 for b in b_list):
        raise DomainError("b coefficients must be nonnegative")
    strong = sum(b * b for b in b_list) / (8.0 * k)
    weak = (k - 1) * b_list[-1] ** 2 / (8.0 * k)
    return strong, weak


def subset_squares(gs: GateSet, removed=()) -> GateSet:
    """The squared set S^2 with the listed pair indices removed."""
    k = gs.k
    removed = tuple(removed)
    if len(set(removed)) != len(removed):
        raise DomainError(f"removal indices must be distinct, got {removed!r}")
    if any(not (0 <= i < k) for i in removed):
        raise DomainError(f"removal indices out of range for k={k}: {removed!r}")
    if len(removed) > max(k - 2, 0):
        raise DomainError(
            f"can remove at most k-2 = {k - 2} pairs, got {len(removed)}"
        )
    sq = squared_set(gs)
    pairs = tuple(p for i, p in enumerate(sq.pairs) if i not in removed)
    return GateSet(d=gs.d, pairs=pairs, symmetric=gs.symmetric)
