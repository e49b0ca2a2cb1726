"""Averaging operators and spectral gaps at finite scale.

The averaging operator of a gate set S acts block-diagonally on the irreps
labelled by the weights up to scale t; the block of weight lambda is
(1/|S|) sum_{U in S} pi_lambda(U).  The gap at scale t is

    gap_t(S) = 1 - max over nontrivial lambda of ||block_lambda||.

For symmetric S the blocks are Hermitian by construction (each gate is summed
with its inverse, and pi(U^-1) = pi(U)^dagger entry for entry), so norms come
from Hermitian eigensolves.  Large blocks use a seeded Lanczos iteration with
a dense fallback; everything is deterministic for fixed inputs.
"""

from __future__ import annotations

import hashlib
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np
import scipy.linalg
import scipy.sparse.linalg as spla

from .errors import ConvergenceError, DomainError
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

DENSE_CUTOFF = 512  # dimensions below this use direct dense eigensolves
LANCZOS_TOL = 1e-10
MAXITER_FACTOR = 10  # Lanczos iteration budget = factor * dim


@dataclass(frozen=True)
class BlockOperator:
    """All nontrivial irrep blocks of the averaging operator at one scale."""

    scale: int
    blocks: dict  # Weight -> (dim, dim) complex ndarray

    def weights(self) -> list:
        return list(self.blocks.keys())


@dataclass(frozen=True)
class GapReport:
    """Result of a gap computation at one scale."""

    scale: int
    gap: float
    worst_weight: Weight
    per_weight_norms: dict  # Weight -> float, canonical weight order
    iterations: dict  # Weight -> matvec count (0 for dense solves)

    def to_json_dict(self) -> dict:
        return {
            "t": self.scale,
            "gap": self.gap,
            "worst_weight": list(self.worst_weight.entries),
            "per_weight_norms": [
                [list(w.entries), v] for w, v in self.per_weight_norms.items()
            ],
            "iterations": [[list(w.entries), n] for w, n in self.iterations.items()],
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


def _lanczos_v0(n: int, seed_key) -> np.ndarray:
    digest = hashlib.blake2b(repr(seed_key).encode(), digest_size=8).digest()
    rng = np.random.default_rng(int.from_bytes(digest, "big"))
    v0 = rng.standard_normal(n)
    return v0 / np.linalg.norm(v0)


def block_operator_norm(
    A: np.ndarray,
    hermitian: bool = False,
    dense_cutoff: int = DENSE_CUTOFF,
    seed_key=None,
    tol: float = LANCZOS_TOL,
    return_info: bool = False,
):
    """Spectral norm of one block.

    Dense eigensolve below dense_cutoff; above it a seeded Lanczos/ARPACK
    iteration with matvec counting, falling back to the dense path if the
    iteration does not converge within 10 * dim iterations.
    """
    A = np.asarray(A)
    n = A.shape[0]
    if A.shape != (n, n):
        raise DomainError(f"block must be square, got {A.shape}")

    def dense(method: str):
        if hermitian:
            val = float(np.max(np.abs(scipy.linalg.eigvalsh(A))))
        else:
            val = float(scipy.linalg.svdvals(A)[0])
        info = {"method": method, "matvecs": 0, "converged": True}
        return (val, info) if return_info else val

    if n < dense_cutoff or n < 3:
        return dense("dense")

    count = {"n": 0}
    AH = A.conj().T

    def matvec(x):
        count["n"] += 1
        return A @ x

    def rmatvec(x):
        count["n"] += 1
        return AH @ x

    op = spla.LinearOperator((n, n), matvec=matvec, rmatvec=rmatvec, dtype=np.complex128)
    v0 = _lanczos_v0(n, seed_key if seed_key is not None else n).astype(np.complex128)
    maxiter = MAXITER_FACTOR * n
    try:
        if hermitian:
            vals = spla.eigsh(
                op, k=1, which="LM", tol=tol, v0=v0, maxiter=maxiter,
                return_eigenvectors=False,
            )
            val = float(np.abs(vals[0]))
        else:
            s = spla.svds(op, k=1, which="LM", tol=tol, v0=v0, maxiter=maxiter,
                          return_singular_vectors=False)
            val = float(s[0])
    except (spla.ArpackNoConvergence, spla.ArpackError) as exc:
        warnings.warn(f"Lanczos did not converge on a {n}x{n} block ({exc}); "
                      f"falling back to a dense solve")
        try:
            return dense("dense-fallback")
        except MemoryError as mem:
            raise ConvergenceError(
                f"iteration failed and dense fallback impossible for n={n}"
            ) from mem
    info = {"method": "lanczos", "matvecs": count["n"], "converged": True}
    return (val, info) if return_info else val


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
    dense_cutoff: int = DENSE_CUTOFF,
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
        norm, info = block_operator_norm(
            B,
            hermitian=True,
            dense_cutoff=dense_cutoff,
            seed_key=(w.entries, gs.size),
            return_info=True,
        )
        if progress is not None:
            progress(w, norm, info)
        return norm, info

    results = _map_weights(one, weights, threads)
    per_weight = {w: r[0] for w, r in zip(weights, results)}
    iterations = {w: r[1]["matvecs"] for w, r in zip(weights, results)}
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
        iterations=iterations,
    )


def convolution_square_gap(
    gs: "GateSet",
    t: int,
    dense_cutoff: int = DENSE_CUTOFF,
    threads: int | None = None,
) -> tuple:
    """Gap of the convolution square (blocks B^dagger B) and the residual of
    the two-sided comparison gap_sq >= gap >= gap_sq / 2."""
    check_scale(t)
    if not gs.symmetric:
        raise DomainError("convolution_square_gap needs a symmetric gate set")
    weights = enumerate_nontrivial_weights(gs.d, t)

    def one(w: Weight):
        B = averaging_block(w, gs)
        kw = dict(dense_cutoff=dense_cutoff, seed_key=(w.entries, gs.size, "sq"))
        n_plain = block_operator_norm(B, hermitian=True, **kw)
        n_sq = block_operator_norm(B.conj().T @ B, hermitian=True, **kw)
        return n_plain, n_sq

    results = _map_weights(one, weights, threads)
    gap_plain = 1.0 - max(r[0] for r in results) if results else 1.0
    gap_sq = 1.0 - max(r[1] for r in results) if results else 1.0
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
