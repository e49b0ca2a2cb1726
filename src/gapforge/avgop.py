"""Averaging operators and spectral gaps at finite scale.

The averaging operator of a gate set S acts block-diagonally on the irreps
labelled by the weights up to scale t; the block of weight lambda is
(1/|S|) sum_{U in S} pi_lambda(U).  The gap at scale t is

    gap_t(S) = 1 - max over nontrivial lambda of ||block_lambda||.

For symmetric S the blocks are Hermitian by construction (each gate is summed
with its inverse, and pi(U^-1) = pi(U)^dagger entry for entry), so norms come
from dense Hermitian eigensolves; everything is deterministic for fixed
inputs.  subset_norms serves a whole family of pair subsets in one pass over
the weights: each weight builds every gate image once and sums each subset's
block from those images.
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
    "GapReport",
    "averaging_block",
    "block_operator_norm",
    "subset_norms",
    "checked_gap",
    "gap_at_scale",
    "convolution_square_gap",
]


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


def _block_sums(basis, pairs, keeps, symmetric: bool, take: Callable) -> list:
    """[take(block) for each kept-pair tuple in keeps], in order.

    The block over keep is (1/|keep|) sum of the kept gates' images, for
    symmetric sets (1/2|keep|) sum of P + P^dagger (Hermitian bit for bit).
    Each image is built on first use and dropped after its last, and one block
    is alive at a time, so memory is at most len(pairs) images plus one block.
    Images are summed in the order of each keep tuple.
    """
    n = basis.dim
    last_use = {i: j for j, keep in enumerate(keeps) for i in keep}
    images = {}
    out = []
    for j, keep in enumerate(keeps):
        acc = np.zeros((n, n), dtype=np.complex128)
        for i in keep:
            if i not in images:
                images[i] = _image(basis, pairs[i][1], symmetric)
            acc += images[i] if last_use[i] > j else images.pop(i)
        acc /= 2 * len(keep) if symmetric else len(keep)
        out.append(take(acc))
        del acc
    return out


def _image(basis, U: np.ndarray, symmetric: bool) -> np.ndarray:
    P = irrep_matrix(basis, U)
    return P + P.conj().T if symmetric else P


def averaging_block(weight: Weight, gs: "GateSet") -> np.ndarray:
    """(1/|S|) sum_{U in S} pi_lambda(U); Hermitian bit-for-bit when S is
    symmetric (pairs enter as P + P^dagger before the real rescale)."""
    keep = tuple(range(gs.k))
    return _block_sums(cached_basis(weight), gs.pairs, [keep], gs.symmetric, lambda B: B)[0]


def subset_norms(
    gs: "GateSet", t: int, keeps: list, threads: int | None = None, progress=None
) -> tuple:
    """(weights, norms) with norms[a][j] the norm of the averaging block of
    weights[a] over the pairs keeps[j] of the symmetric set gs.

    One pass over the nontrivial weights up to scale t: each weight builds the
    image of each pair once and forms every subset block from those images.
    progress(w, norms of w) fires on the worker as each weight finishes.
    """
    weights = enumerate_nontrivial_weights(gs.d, t)

    def one(w: Weight):
        norms = _block_sums(cached_basis(w), gs.pairs, keeps, True, _hermitian_norm)
        if progress is not None:
            progress(w, norms)
        return norms

    return weights, _map_weights(one, weights, threads)


def _hermitian_norm(B: np.ndarray) -> float:
    # perfbench/spans.py wraps avgop.block_operator_norm, unpacks (norm, info)
    norm, _info = block_operator_norm(B, hermitian=True, return_info=True)
    return norm


def checked_gap(worst_norm: float) -> float:
    """1 - worst_norm, checked to lie in [-1e-8, 1 + 1e-12]."""
    gap = 1.0 - worst_norm
    if not -1e-8 <= gap <= 1.0 + 1e-12:
        raise AssertionError(f"gap {gap!r} outside [-1e-8, 1 + 1e-12]")
    return gap


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
    keep = tuple(range(gs.k))
    weights, norms = subset_norms(
        gs, t, [keep], threads,
        progress=None if progress is None else lambda w, ns: progress(w, ns[0]),
    )
    per_weight = {w: ns[0] for w, ns in zip(weights, norms)}
    worst = max(per_weight.values())
    worst_weight = next(w for w in weights if per_weight[w] == worst)
    return GapReport(
        scale=t,
        gap=checked_gap(worst),
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
