"""Averaging operators and spectral gaps at finite scale.

The averaging operator of a gate set S acts block-diagonally on the irreps
labelled by the weights up to scale t; the block of weight lambda is
(1/|S|) sum_{U in S} pi_lambda(U).  The gap at scale t is

    gap_t(S) = 1 - max over nontrivial lambda of ||block_lambda||.

For symmetric S the blocks are Hermitian by construction (each gate is summed
with its inverse, and pi(U^-1) = pi(U)^dagger entry for entry), so norms come
from dense Hermitian eigensolves; everything is deterministic for fixed
inputs.
"""

from __future__ import annotations

import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np
import scipy.linalg

from .errors import DomainError
from .irrep import cached_basis, irrep_matrix
from .weightlat import Weight, check_scale, enumerate_nontrivial_weights

if TYPE_CHECKING:  # pragma: no cover
    from .gates import GateSet

__all__ = [
    "BlockOperator",
    "GapReport",
    "averaging_block",
    "build_block_operator",
    "block_operator_norm",
    "gap_at_scale",
    "convolution_square_gap",
    "convergence_profile",
]


@dataclass(frozen=True)
class BlockOperator:
    """All nontrivial irrep blocks of the averaging operator at one scale."""

    scale: int
    blocks: dict  # Weight -> (dim, dim) complex ndarray


@dataclass(frozen=True)
class GapReport:
    """Result of a gap computation at one scale."""

    scale: int
    gap: float
    worst_weight: Weight
    per_weight_norms: dict  # Weight -> float, canonical weight order

    def to_json_dict(self) -> dict:
        return {
            "t": self.scale,
            "gap": self.gap,
            "worst_weight": list(self.worst_weight.entries),
            "per_weight_norms": [
                [list(w.entries), v] for w, v in self.per_weight_norms.items()
            ],
        }


def averaging_block(weight: Weight, gs: "GateSet") -> np.ndarray:
    """(1/|S|) sum_{U in S} pi_lambda(U); Hermitian bit-for-bit when S is
    symmetric (pairs enter as P + P^dagger before the real rescale)."""
    basis = cached_basis(weight)
    n = basis.dim
    acc = np.zeros((n, n), dtype=np.complex128)
    if gs.symmetric:
        for _, U in gs.pairs:
            P = irrep_matrix(basis, U)
            acc += P + P.conj().T
        acc /= 2 * gs.k
    else:
        for _, U in gs.pairs:
            acc += irrep_matrix(basis, U)
        acc /= gs.k
    return acc


def build_block_operator(gs: "GateSet", t: int) -> BlockOperator:
    check_scale(t)
    blocks = {
        w: averaging_block(w, gs)
        for w in enumerate_nontrivial_weights(gs.d, t)
    }
    return BlockOperator(scale=t, blocks=blocks)


def block_operator_norm(
    A: np.ndarray, hermitian: bool = False, return_info: bool = False
):
    """Spectral norm of one block by a dense eigensolve (Hermitian) or SVD.

    return_info=True returns (norm, {"method": "dense", "matvecs": 0}), the
    shape the perfbench span annotator unpacks.
    """
    A = np.asarray(A)
    n = A.shape[0]
    if A.shape != (n, n):
        raise DomainError(f"block must be square, got {A.shape}")
    if hermitian:
        val = float(np.max(np.abs(scipy.linalg.eigvalsh(A))))
    else:
        val = float(scipy.linalg.svdvals(A)[0])
    return (val, {"method": "dense", "matvecs": 0}) if return_info else val


def _resolve_threads(threads: int | None) -> int:
    if threads is not None:
        if threads < 1:
            raise DomainError(f"threads must be >= 1, got {threads}")
        return threads
    env = os.environ.get("GAPFORGE_THREADS")
    if env:
        try:
            n = int(env)
        except ValueError:
            raise DomainError(f"GAPFORGE_THREADS must be an integer, got {env!r}")
        if n < 1:
            raise DomainError(f"GAPFORGE_THREADS must be >= 1, got {n}")
        return n
    return os.cpu_count() or 1


def _map_weights(one: Callable, weights: list, threads: int | None) -> list:
    """[one(w) for w in weights], on a thread pool when threads allow.

    Results come back in the order of `weights`, so reductions over them do
    not depend on the thread count.
    """
    n_threads = _resolve_threads(threads)
    if n_threads > 1 and len(weights) > 1:
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            return list(pool.map(one, weights))
    return [one(w) for w in weights]


def gap_at_scale(
    gs: "GateSet",
    t: int,
    auto_symmetrize: bool = False,
    threads: int | None = None,
    progress: Callable | None = None,
) -> GapReport:
    """gap_t(S) with per-weight norms, deterministic for fixed inputs.

    The per-weight computations are independent and may run on a thread pool;
    the reduction walks weights in canonical order, so the report (including
    the argmax worst_weight) does not depend on the thread count.
    """
    check_scale(t)
    if not gs.symmetric:
        if not auto_symmetrize:
            raise DomainError(
                "gap_at_scale needs a symmetric gate set; pass auto_symmetrize=True "
                "to close it under inverses"
            )
        gs = gs.symmetrized()
    weights = enumerate_nontrivial_weights(gs.d, t)

    def one(w: Weight):
        B = averaging_block(w, gs)
        # perfbench/spans.py wraps avgop.block_operator_norm, unpacks (norm, info)
        norm, _info = block_operator_norm(B, hermitian=True, return_info=True)
        if progress is not None:
            progress(w, norm)
        return norm

    norms = _map_weights(one, weights, threads)
    per_weight = dict(zip(weights, norms))
    worst = max(per_weight.values())
    worst_weight = next(w for w in weights if per_weight[w] == worst)
    gap = 1.0 - worst
    if not -1e-8 <= gap <= 1.0 + 1e-12:
        raise AssertionError(f"gap {gap!r} outside [-1e-8, 1 + 1e-12]")
    return GapReport(
        scale=t,
        gap=gap,
        worst_weight=worst_weight,
        per_weight_norms=per_weight,
    )


def convolution_square_gap(gs: "GateSet", t: int, threads: int | None = None) -> tuple:
    """Gap of the convolution square (blocks B^dagger B) and the residual of
    the two-sided comparison gap_sq >= gap >= gap_sq / 2."""
    check_scale(t)
    if not gs.symmetric:
        raise DomainError("convolution_square_gap needs a symmetric gate set")
    weights = enumerate_nontrivial_weights(gs.d, t)

    def one(w: Weight):
        B = averaging_block(w, gs)
        n_plain = block_operator_norm(B, hermitian=True)
        n_sq = block_operator_norm(B.conj().T @ B, hermitian=True)
        return n_plain, n_sq

    results = _map_weights(one, weights, threads)
    gap_plain = 1.0 - max(r[0] for r in results)
    gap_sq = 1.0 - max(r[1] for r in results)
    residual = max(0.0, gap_plain - gap_sq, 0.5 * gap_sq - gap_plain)
    if residual > 1e-8:
        warnings.warn(f"convolution-square sandwich violated by {residual:.3e}")
    return gap_sq, residual


def convergence_profile(gs: "GateSet", t: int, ell_max: int) -> list:
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
