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
block from those images.  The pass runs in the eigenbasis Z of the set's
first gate (_normal_form): conjugating every gate by Z changes no norm, and
makes the first gate diag(e^{i phi}), whose image is diagonal in the GT
basis, e^{i <phi, pw_r>} on the vector of pattern weight pw_r.  _block_sums
adds such a gate's P + P^dagger = diag(2 cos <phi, pw_r>) to the block's
diagonal and builds no image for it, so each weight builds one image fewer
than the set has gates.  The rule holds in the real basis too, whose rows mix
only J-partners, of opposite pattern weights.  averaging_block takes the
caller's gates as they are.

subset_norms uses the Frobenius-Schur type of each weight (PU(d) has no
quaternionic irreps): the block of the conjugate weight is the complex
conjugate of the block of lambda up to a change of basis, so only the first
of each conjugate pair is computed; a self-conjugate block is taken to
its real form, a real symmetric matrix, by summing images that irrep returns
in its real basis (irrep_matrix(real=True)).  Each image is symmetrized in
place as soon as it is built; a subset's first image becomes its block, and
the rest are summed into it.  LAPACK certifies and eigensolves the block in
its own storage, so a weight holds its block, the image being built (folded
in place by irrep) and the images a later subset reuses, and no other n x n
array: with the first gate diagonal, one subset takes about 2.1 n^2 doubles
at d = 2 (the block and what building its image takes), 1.2 n^2 for a
self-conjugate weight at d >= 3, whose images are real, and 2.3 n^2 for a
complex one (tracemalloc, n = 401, 729 and 595).

g_t0 and gap_at_scale need only the largest norm of each subset, so they run
subset_norms(certify=True), which eigensolves only the weights up to T_PROBE
and those below HEAD_DIM, where the maxima sit in practice.  Every other
block gets the ceiling theta_j (that stage's maximum of the subset, less
_CEILING_SLACK) when two Cholesky factorizations prove its norm below theta_j
(lapack.certify_norm_below), and an eigensolve otherwise: of what the failed
certificate left of the block, or, where the second factorization spent it,
of the block built again from the same images, the same bits.  A certified
block's eigensolve could not have reached the maximum, so every subset's
maximum is the same float as with eigensolves throughout.  Pass.worst, the
one reduction of subset_norms's result, refuses a maximum that is a ceiling.
"""

from __future__ import annotations

import functools
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from .errors import DomainError
from .gates import check_unitary
from .irrep import (_schur_unitary, cached_basis, check_dim_cap, gate_factors, irrep_matrix,
                    jy_frame, pattern_weights, rows_per_tile)
from .lapack import _ONE_BLAS_THREAD, _pin_blas, certify_norm_below, eigvalsh
from .weightlat import (
    Weight,
    check_scale,
    conjugate_entries,
    enumerate_nontrivial_weights,
    frobenius_schur,
    weyl_dimension,
)

if TYPE_CHECKING:  # pragma: no cover
    from .gates import GateSet

__all__ = [
    "GapReport",
    "Pass",
    "averaging_block",
    "block_operator_norm",
    "subset_norms",
    "checked_gap",
    "gap_at_scale",
    "T_PROBE",
]

T_PROBE = 3  # scale of the universality probe
# With certify, blocks of dimension below this are eigensolved exactly and
# set the ceilings (the head); at 122 no block of d = 2, t = 60 is certified
# and perfbench gtzero-k4 took 0.40 s per op, against 0.24 s at 40.
HEAD_DIM = 40
# Smallest block dimension whose weight goes to the per-weight pool; the
# smaller ones run on the calling thread.  Two threads over one, 24 copies of
# one certified weight (2 vCPUs, one BLAS thread per task, best of three):
#   d = 2, k = 4:  n = 41: 2.17, 81: 1.45, 111: 1.08, 121: 0.90, 141: 0.81
#   d = 2, k = 2:  n = 81: 1.11, 121: 1.17, 131: 1.01, 141: 0.87
#   d = 3, complex: n = 81: 1.06, 154: 0.96, 260: 0.76, 595: 0.57
#   d = 3, real:   n = 125: 1.07, 216: 1.27, 343: 0.75, 729: 0.68
POOL_MIN_DIM = 128
# How far below a subset's exact maximum its certified ceiling sits.  A block
# certified below theta has a true norm under theta, and its eigvalsh norm
# errs from that by at most p(n) u ||B|| (LAPACK's bound for dsyevr and
# zheevr, p(n) a modest function of n; averaging blocks have norm <= 1):
# under 1.2e-11 even at p(n) = 10 n, n = 10^4.  1e-9 leaves 80x headroom, so
# a certified block's computed norm could never have reached the maximum.
_CEILING_SLACK = 1e-9


@dataclass(frozen=True)
class GapReport:
    """Result of a gap computation at one scale."""

    scale: int
    gap: float
    worst_weight: Weight
    # Weight -> norm, in canonical weight order, of each eigensolved block
    # only: every weight with every_norm, else those certified are left out
    per_weight_norms: dict

    def to_json_dict(self) -> dict:
        return {
            "t": self.scale,
            "gap": self.gap,
            "worst_weight": list(self.worst_weight.entries),
            "per_weight_norms": [
                [list(w.entries), v] for w, v in self.per_weight_norms.items()
            ],
        }


def _block_sums(basis, gates, factors, phases, keeps, real: bool, take: Callable) -> list:
    """[take(j, block of keeps[j], rebuild) for each tuple of gate indices in
    keeps], in order; rebuild() builds that block again, the same bits.

    The block over keep, of the symmetric set of the gates, is (1/2|keep|)
    sum of P + P^dagger over the kept gates' images (Hermitian bit for bit).
    factors[i] and phases[i] are the checked gate_factors and the
    _diagonal_phases of gates[i], made once per pass.  A gate whose
    off-diagonal entries are exactly zero, diag(e^{i phi}), builds no image:
    its P + P^dagger is diag(2 cos <phi, pw_r>), pw the pattern weights, in
    the GT basis and in the real one alike (a real row mixes only J-partners,
    whose pattern weights are opposite).  With real (self-conjugate weights
    only), each image is irrep_matrix(real=True), so the blocks are real.
    Each image is built on first use and dropped after its last use.  A
    keep's first image becomes its block (a copy, where a later keep reuses
    it), and the rest are summed into it in the order of the keep tuple, each
    diagonal term at its place (those before the first image, summed, on
    that image's diagonal): the IEEE sums of a zero block that takes them in
    that order.  One block is alive at a time, and take owns it: it may
    overwrite it, and rebuild it from the images still held and those built
    anew.  So memory is the block, the image being built and the images that
    a later keep reuses (plus, at d = 2, the JyFrame all images of the weight
    share).  The blocks are C-ordered or have padded rows (lapack._rows).
    """
    n = basis.dim
    last_use = {i: j for j, keep in enumerate(keeps) for i in keep}
    used = [phases[i] for i in last_use]
    pw = pattern_weights(basis) if any(p is not None for p in used) else None
    frame = jy_frame(basis) if any(p is None for p in used) else None
    images = {}

    def block(j: int) -> np.ndarray:
        acc, first = None, 0.0  # first: the diagonal terms before the first image
        for i in keeps[j]:
            if phases[i] is not None:
                term = 2.0 * np.cos(pw @ phases[i])
                if acc is None:
                    first = first + term
                else:
                    np.einsum("ii->i", acc)[:] += term  # a view of the diagonal
                continue
            if i not in images:
                images[i] = _image(basis, gates[i], frame, factors[i], real)
            P = images[i] if last_use[i] > j else images.pop(i)
            if acc is None:
                acc = P.copy() if last_use[i] > j else P
                np.einsum("ii->i", acc)[:] += first
            else:
                acc += P
        if acc is None:  # diagonal gates only
            acc = np.zeros((n, n), dtype=np.float64 if real else np.complex128)
            np.einsum("ii->i", acc)[:] += first
        acc /= 2 * len(keeps[j])
        return acc

    return [take(j, block(j), functools.partial(block, j)) for j in range(len(keeps))]


def _diagonal_phases(U: np.ndarray):
    """The angles phi of U = diag(e^{i phi}) where every off-diagonal entry of
    U is exactly zero, else None."""
    D = np.diagonal(U)
    return np.angle(D) if np.array_equal(U, np.diag(D)) else None


def _normal_form(gates: list) -> list:
    """The gates conjugated by the unitary eigenbasis Z of the first, which
    becomes exactly diag(z), its eigenvalues; each other U becomes
    Z^dagger U Z.  pi(Z) is unitary, so every subset's block norms are
    unchanged.  A first gate that is already diagonal leaves the gates as
    they are.  Raises unless Z is unitary and Z diag(z) Z^dagger is the first
    gate, each to 1e-12 plus that gate's own distance from the unitary group
    (check_unitary, at most 1e-10): no eigenbasis rebuilds a non-unitary gate
    better.
    """
    first = gates[0]
    if _diagonal_phases(first) is not None:
        return gates
    tol = 1e-12 + check_unitary(first, "gate")  # diag(z) would hide a failing gate
    z, Z = _schur_unitary(first)
    Zh = Z.conj().T
    for what, E in (("be unitary", Zh @ Z - np.eye(len(Z))),
                    ("rebuild the first gate", (Z * z) @ Zh - first)):
        err = float(np.linalg.norm(E, 2))
        if not err <= tol:
            raise AssertionError(f"the first gate's eigenbasis fails to {what}: "
                                 f"{err:.3e} > {tol:.3e}")
    return [np.diag(z)] + [Zh @ U @ Z for U in gates[1:]]


def _image(basis, U: np.ndarray, frame, factors, real: bool) -> np.ndarray:
    """P + P^dagger for the image P of U, formed in place.

    Strip s:e reads only entries that no earlier strip wrote: its diagonal
    block D becomes D + D^dagger, the rest of its rows P[s:e, e:] +
    P[e:, s:e]^dagger and the columns below D their adjoint, the bits of
    P + P.conj().T either way.
    """
    P = irrep_matrix(basis, U, frame=frame, factors=factors, real=real)
    step = rows_per_tile(len(P))
    for s in range(0, len(P), step):
        e = s + step
        D = P[s:e, s:e]
        D += np.conjugate(D.T)  # a copy, since D reads itself
        if e < len(P):
            top = P[s:e, e:]
            top += P[e:, s:e].conj().T
            P[e:, s:e] = top.conj().T
    return P


def averaging_block(weight: Weight, gs: "GateSet") -> np.ndarray:
    """(1/|S|) sum_{U in S} pi_lambda(U) of a symmetric set S, Hermitian bit
    for bit (pairs enter as P + P^dagger before the real rescale)."""
    if not gs.symmetric:
        raise DomainError("averaging_block needs a symmetric gate set")
    gates = [U for _, U in gs.pairs]
    return _block_sums(cached_basis(weight), gates, [gate_factors(U) for U in gates],
                       [_diagonal_phases(U) for U in gates], [tuple(range(gs.k))], False,
                       lambda j, B, rebuild: B)[0]


def _representatives(weights: list) -> list:
    """The weights that come first in canonical (descending) order among
    {w, w.conjugate()}: one of each conjugate pair, every self-conjugate one."""
    return [w for w in weights if w.entries >= conjugate_entries(w.entries)]


class Pass(NamedTuple):
    """subset_norms's result, read through worst alone."""

    weights: list
    norms: list
    exact: list

    def worst(self, j: int, t: int) -> tuple:
        """(norm, weight): column j's largest entry over the weights up to
        scale t, and the first weight in canonical order that has it.  An exact
        one lies above every ceiling in the prefix, and so above every norm; a
        ceiling raises, since 1 - ceiling would overstate the gap."""
        rows = [a for a, w in enumerate(self.weights) if w.positive_size <= t]
        a = max(rows, key=lambda a: self.norms[a][j])  # the first of equal maxima
        if not self.exact[a][j]:
            raise AssertionError(f"the maximum of column {j} up to scale {t} is the "
                                 f"ceiling {self.norms[a][j]!r} of {self.weights[a]}")
        return self.norms[a][j], self.weights[a]


def subset_norms(
    gs: "GateSet", t: int, keeps: list, threads: int | None = None, progress=None,
    certify: bool = False,
) -> Pass:
    """Pass(weights, norms, exact) with norms[a][j] the norm of the averaging
    block of weights[a] over the pairs keeps[j] of the symmetric set gs, and
    exact[a][j] False where norms[a][j] is a certified ceiling instead.

    One pass over the nontrivial weights up to scale t: each weight builds the
    image of each pair once and forms every subset block from those images.
    Only the first of each conjugate pair is computed, and its norms are those
    of the other, whose block is the complex conjugate of its own up to a
    change of basis; self-conjugate blocks are normed in their real form.
    progress(w, norms of w, exact of w) fires on the worker as each weight
    finishes, for a conjugate pair once per member.

    With certify, an entry outside the head (the weights up to T_PROBE and
    below HEAD_DIM) is the ceiling theta_j, the head's column maximum less
    _CEILING_SLACK, where certify_norm_below proves it; each column maximum is
    the same float as without certify, at any thread count.
    """
    if not gs.symmetric:
        raise DomainError("subset_norms needs a symmetric gate set")
    check_dim_cap(gs.d, t)  # before millions of weights are enumerated
    weights = enumerate_nontrivial_weights(gs.d, t)
    gates = _normal_form([U for _, U in gs.pairs])
    factors = [gate_factors(U) for U in gates]
    phases = [_diagonal_phases(U) for U in gates]

    def run(ws: list, take: Callable) -> list:
        """[(norms, exact) of each weight of ws]; take(j, B, rebuild) -> (value,
        exact), as _block_sums calls it."""
        def one(w: Weight):
            real = frobenius_schur(w) == 1
            sums = _block_sums(cached_basis(w), gates, factors, phases, keeps, real, take)
            norms, exact = zip(*sums)
            if progress is not None:
                progress(w, norms, exact)
                if not real:
                    progress(w.conjugate(), norms, exact)
            return norms, exact

        return _map_weights(one, ws, threads, [weyl_dimension(w) for w in ws])

    reps = _representatives(weights)
    head = [not certify or w.positive_size <= T_PROBE or weyl_dimension(w) < HEAD_DIM
            for w in reps]
    first = [w for w, e in zip(reps, head) if e]
    rest = [w for w, e in zip(reps, head) if not e]
    rows = {}  # by entries, so that pairing a weight with its conjugate builds no Weight
    for w, row in zip(first, run(first, lambda j, B, rebuild: (_hermitian_norm(B), True))):
        rows[w.entries] = rows[conjugate_entries(w.entries)] = row
    if rest:
        head = Pass(first, *zip(*(rows[w.entries] for w in first)))
        ceilings = [head.worst(j, t)[0] - _CEILING_SLACK for j in range(len(keeps))]
        for w, row in zip(rest, run(rest, _bounded(ceilings))):
            rows[w.entries] = rows[conjugate_entries(w.entries)] = row
    return Pass(weights, [rows[w.entries][0] for w in weights],
                [rows[w.entries][1] for w in weights])


def _bounded(ceilings: list) -> Callable:
    """take(j, B, rebuild) for _block_sums: (ceilings[j], False) where
    certify_norm_below proves ||B|| < ceilings[j], else (||B||, True) by an
    eigensolve, of what the failed certificate left of B or, where it spent
    B, of rebuild(): B afresh, built once the spent one is dropped."""
    def take(j: int, B: np.ndarray, rebuild: Callable) -> tuple:
        proved = certify_norm_below(B, ceilings[j])
        if proved:
            return ceilings[j], False
        if proved is None:
            del B  # freed before the rebuild: _block_sums holds no other reference
            B = rebuild()
        return _hermitian_norm(B), True

    return take


def _hermitian_norm(B: np.ndarray) -> float:
    """The norm of the block B, whose storage the eigensolve overwrites: it
    reads B's upper triangle, which a failed certificate leaves as it was."""
    # perfbench/spans.py wraps avgop.block_operator_norm, unpacks (norm, info)
    norm, _info = block_operator_norm(B.T, return_info=True, overwrite_a=True)
    return norm


def checked_gap(worst_norm: float) -> float:
    """1 - worst_norm, checked to lie in [-1e-8, 1 + 1e-12] and floored at 0
    (an average of unitaries has norm <= 1): every reported gap comes from here."""
    gap = 1.0 - worst_norm
    if not -1e-8 <= gap <= 1.0 + 1e-12:
        raise AssertionError(f"gap {gap!r} outside [-1e-8, 1 + 1e-12]")
    return max(gap, 0.0)


def block_operator_norm(A: np.ndarray, return_info: bool = False, overwrite_a: bool = False):
    """Spectral norm of one Hermitian block by a dense eigensolve (LAPACK
    runs without the GIL, see lapack.eigvalsh, which overwrite_a is passed
    to).

    return_info=True returns (norm, {"method": "dense", "matvecs": 0}), the
    shape the perfbench span annotator unpacks.
    """
    A = np.asarray(A)
    n = A.shape[0]
    if A.shape != (n, n):
        raise DomainError(f"block must be square, got {A.shape}")
    val = float(np.max(np.abs(eigvalsh(A, overwrite_a=overwrite_a))))
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


def _map_weights(one: Callable, weights: list, threads: int | None, dims: list) -> list:
    """[one(w) for w in weights], on a thread pool when threads allow.

    Results come back in the order of `weights`, so reductions over them do
    not depend on the thread count.  dims holds the block dimension of each
    weight: only those of dimension >= POOL_MIN_DIM, where a second thread
    pays, go to the pool; the others run on the calling thread after it.
    Every task runs with OpenBLAS on one thread (lapack's pin), on the pool and
    serially alike: the pool is the parallelism, and one BLAS thread per task
    keeps the results bit-identical across pool sizes.
    """
    n_threads = _resolve_threads(threads)
    pooled = [i for i, n in enumerate(dims) if n >= POOL_MIN_DIM]
    with _ONE_BLAS_THREAD:
        if n_threads == 1 or len(pooled) < 2:
            return [one(w) for w in weights]
        # builds that keep the count per thread need it on each worker
        with ThreadPoolExecutor(max_workers=n_threads, initializer=_pin_blas) as pool:
            done = dict(zip(pooled, pool.map(one, [weights[i] for i in pooled])))
        return [done[i] if i in done else one(w) for i, w in enumerate(weights)]


def gap_at_scale(
    gs: "GateSet",
    t: int,
    threads: int | None = None,
    progress: Callable | None = None,
    every_norm: bool = False,
) -> GapReport:
    """gap_t(S) with per-weight norms, deterministic for fixed inputs.

    The gap needs only the worst norm, so the pass certifies the blocks that
    cannot set it (subset_norms(certify=True)), and per_weight_norms holds the
    eigensolved norms only: the head's and each failed certificate's.
    every_norm=True eigensolves every block and reports every norm; the gap and
    worst_weight, read by Pass.worst, are the same bits either way, at any
    thread count.  progress(w, value, exact) fires per weight as it finishes:
    value is its norm if exact, else its certified ceiling.
    """
    check_scale(t)
    p = subset_norms(
        gs, t, [tuple(range(gs.k))], threads,
        progress=None if progress is None else lambda w, ns, ex: progress(w, ns[0], ex[0]),
        certify=not every_norm,
    )
    worst, worst_weight = p.worst(0, t)
    per_weight = {w: ns[0] for w, ns, ex in zip(*p) if ex[0]}
    return GapReport(
        scale=t,
        gap=checked_gap(worst),
        worst_weight=worst_weight,
        per_weight_norms=per_weight,
    )
