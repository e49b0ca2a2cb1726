"""Explicit unitary irrep matrices via Gelfand-Tsetlin bases.

For a dominant sum-zero weight lambda we realize the irrep on the orthonormal
GT basis of the shifted nonnegative signature mu = lambda - lambda_d * 1 (the
shift is invisible after exponentiating a traceless algebra element, since the
weights of the shifted rep differ by a constant that multiplies tr X = 0).

Generator matrices follow the standard unitary GT formulas: the simple raising
operator E_{l,l+1} sends a pattern M to sum_k c_k(M) * (M + delta_{k,l}) with

    c_k(M)^2 = - prod_{j=1}^{l+1} (a_{j,l+1} - a_{k,l})
                 * prod_{j=1}^{l-1} (a_{j,l-1} - a_{k,l} - 1)
               / prod_{j != k}      (a_{j,l} - a_{k,l}) (a_{j,l} - a_{k,l} - 1)

where a_{k,l} = m_{k,l} - k.  Moves that break interlacing are skipped (their
numerator vanishes, but the denominator can too, so the formula must not be
evaluated there).  Lowering operators are adjoints, Cartan elements diagonal
with entries rowsum_l - rowsum_{l-1}.  One builder serves every d, in arrays
(GTBasis): patterns enumerated a row at a time, moves looked up by integer
keys, amplitudes for all patterns at once from exact integer products.

A self-conjugate irrep also carries its real structure J, a signed
permutation of the GT basis with conj(pi(U)) = J pi(U) J^T (see
_real_structure).

Group elements go through one cosine-sine factorization at every d:
U = K1 Ry(beta) K2 up to a phase, with K1, K2 in U(d-1) x U(1) and Ry(beta)
the rotation by beta/2 in the plane of the last two coordinates
(lapack.cossin, zuncsd; at d = 2 the ZYZ Euler angles).  Then

    pi(U) = pi(K1) exp(-i beta Jy) pi(K2)

with Jy that of the su(2) on the last two coordinates.  exp(-i beta Jy) is
real and comes from the eigenvectors of Jy (a JyFrame: one solve per block,
the set of patterns that share rows 1 .. d-2, from its patterns to its
eigenvectors: the SVD of a bidiagonal half where the block is a chain, as at
d = 2, else a dense eigensolve; kept with the basis at d >= 3, solved per
weight and pass from n alone at d = 2, where it holds n^2 / 2 entries).
pi(K) is diagonal at d = 2, else block diagonal over the runs of patterns
with equal row d-1, each block a phase times the image of K's U(d-1) part in
the irrep of the run's shape (its row less its last entry).  That image
depends on the gate and the shape alone: it is solved once per shape and gate
side and kept with the gate's factors (GateFactors), for every weight of a
pass; the run layout is a field of the basis.  The result is unitary to
machine precision and, because all pattern weights are integral and sum to
zero, independent of the phase convention of U up to ~1e-10.

For a self-conjugate weight, at any d, irrep_matrix(real=True) returns the
real orthogonal C pi(U) C^dagger in the real basis C with C^T C = J, built
in real arithmetic: at d = 2 by two folds with closed-form rows of C
(_real_image), at d >= 3 by one real product per pair of J-partner spans
on each side of the rotation (_real_cs_image).  Images are built and folded
in place, a slab of temporaries at a time (rows_per_tile), so an image
allocates little beyond its own n^2 entries.

A diagonal gate needs no image: the torus acts on a GT vector by its pattern
weight, so pi(diag(e^{i phi})) = diag(e^{i <phi, pw_r>}) in the GT basis,
whatever the gate's phase (pw_r sums to zero).  pattern_weights gives pw, as
(m, -m) at d = 2 and from the span layout at d >= 3.  A row of the real basis
mixes only a vector and its J-partner, whose pattern weights are opposite,
so the real image's P + P^T is diag(2 cos <phi, pw_r>) too; avgop puts its
passes in an eigenbasis of their first gate to use this.
"""

from __future__ import annotations

import cmath
import functools
import threading
from dataclasses import dataclass, field
from math import sqrt
from typing import NamedTuple

import numpy as np

from .errors import DomainError, ResourceLimitError
from .gates import check_unitary
from .lapack import bidiagonal_svd, cossin, schur
from .weightlat import Weight, enumerate_nontrivial_weights, frobenius_schur, weyl_dimension

__all__ = [
    "GTBasis",
    "GateFactors",
    "JyFrame",
    "build_basis",
    "cached_basis",
    "gate_factors",
    "jy_frame",
    "irrep_matrix",
    "pattern_weights",
    "DIM_CAP",
    "check_dim_cap",
]

DIM_CAP = 2_000_000  # refuse to build bases above this dimension
# Entries in each slab of temporaries when an image is folded or summed in
# place (256 KB of doubles): an image's temporaries are one slab, not O(n^2)
_TILE = 1 << 15


def check_dim_cap(d: int, t: int) -> None:
    """Raise ResourceLimitError if an irrep of PU(d) at scale t >= 1 has a
    dimension above DIM_CAP, without enumerating the weights where t is large.

    (t, 0, .., 0, -t) is at scale t, and at d <= 3 no weight there is larger
    (2t + 1 at d = 2; (t + 1)^3 at d = 3, by AM-GM on the Weyl formula).  At
    d >= 4 some are, and the weights are enumerated only while its dimension
    is under the cap, which holds t below 25 at d = 4.
    """
    top = weyl_dimension(Weight((t,) + (0,) * (d - 2) + (-t,)))
    if d > 3 and top <= DIM_CAP:
        top = max(map(weyl_dimension, enumerate_nontrivial_weights(d, t)))
    if top > DIM_CAP:
        raise ResourceLimitError(
            f"scale t={t} of PU({d}) has an irrep of dimension {top} > cap {DIM_CAP}")


@dataclass(frozen=True)
class GTBasis:
    """Gelfand-Tsetlin basis of one irrep, reduced to what its images read,
    in arrays: no Python object per pattern.  build_basis fills every field
    and nothing writes to one afterwards, so threads share a basis without
    locks.  At d = 2 a basis is its weight and dim alone: jy_frame makes
    all that its images read from n, per pass.

    dim: the number of GT patterns, which index the basis in descending
        lexicographic order (_patterns), a fixed convention that makes every
        downstream matrix deterministic.
    real_basis: at d >= 3 the rows of the real basis C with C^T C = J of a
        self-conjugate weight (_real_pairs), None otherwise.
    frame: at d >= 3 the JyFrame itself, solved once here; None at d = 2.
    spans, shapes, shape_of: the layout of pi(K), K in U(d-1) x U(1), at
        d >= 3; None, (), () at d = 2, where pi(K) is diagonal.  pi(K) is
        block diagonal over the runs of patterns with equal row d-1 (spans,
        a (start, stop) row each), each block a U(d-1) irrep times a phase.
        A span's row is its shape (the row minus its last entry r) shifted
        by r (1, .., 1), and its gl(d-1) images are those of the shape's own
        GT basis with r - shift added to every E_aa (_shape_generators), so
        the block is a phase times exp(i Y.G) of its shape, in every weight
        alike (_subgroup_image).  shapes holds (shape, G) for each shape of
        the weight, G its dense gl(d-1) images with E_aa the shape's pattern
        weights, and shape_of a (shape index, r - shift, pw_d) row per span.
    """

    weight: Weight
    dim: int
    real_basis: tuple | None = field(repr=False)
    frame: JyFrame | None = field(repr=False)
    spans: np.ndarray | None = field(repr=False)  # (start, stop) of each row-(d-1) run
    shapes: tuple = field(repr=False)  # (shape, gl(d-1) images G) per shape
    shape_of: np.ndarray | tuple = field(repr=False)  # (shape index, r - shift, pw_d) per span

    @property
    def d(self) -> int:
        return self.weight.d


def build_basis(weight: Weight) -> GTBasis:
    """Construct the GT basis of one weight: at d = 2 its weight and n alone
    (jy_frame makes the rest per pass); at d >= 3 its patterns (_patterns),
    their pattern weights, the amplitudes of the simple raising operators
    (_amplitudes) and the real structure (_real_structure) are built and
    checked here and dropped on return: the basis keeps only what its images
    read.  Raises ResourceLimitError if the Weyl dimension exceeds DIM_CAP
    before any pattern is materialized.
    """
    d = weight.d
    dim = weyl_dimension(weight)
    if dim > DIM_CAP:
        raise ResourceLimitError(f"irrep {weight.entries!r} has dimension {dim} > cap {DIM_CAP}")
    if d == 2:
        return GTBasis(weight=weight, dim=dim, real_basis=None, frame=None, spans=None,
                       shapes=(), shape_of=())
    shift = -weight.entries[-1]
    sig = tuple(x + shift for x in weight.entries)
    P = _patterns(sig)
    if len(P) != dim:
        raise AssertionError(f"{len(P)} GT patterns for an irrep of dimension {dim}")
    pw = _pattern_weights(P, sig) - shift  # back to the sum-zero normalization
    if np.any(pw.sum(axis=1)):
        raise AssertionError("a pattern weight does not sum to |lambda| = 0")
    amplitudes = _amplitudes(P, sig)
    real = _real_structure(P, sig, amplitudes) if frobenius_schur(weight) == 1 else None
    # E_{l,l+1}, l < d-1, act within the spans
    spans, shapes, shape_of = _subgroup_layout(P, pw, shift, amplitudes[:-1])
    m = (pw[:, d - 2] - pw[:, d - 1]) / 2
    frame = JyFrame(weight, _jy_blocks(P, pw, amplitudes[-1], m))
    real_basis = None if real is None else _real_pairs(*real, spans)
    return GTBasis(weight=weight, dim=dim, real_basis=real_basis, frame=frame, spans=spans,
                   shapes=shapes, shape_of=shape_of)


def _patterns(sig: tuple) -> np.ndarray:
    """Every GT pattern with top row sig, one per row: its rows d-1, .., 1
    (row l has l entries) flattened.

    Row by row from d-1 down and entry by entry, each partial pattern is
    repeated once per value its next entry takes between the two entries
    above it, in descending order, so the patterns come out in descending
    lexicographic order; interlacing makes each row nonincreasing.
    """
    P = np.zeros((1, 0), dtype=np.int64)
    upper = np.array([sig], dtype=np.int64)
    for l in range(len(sig) - 1, 0, -1):
        for i in range(l):
            count = upper[:, i] - upper[:, i + 1] + 1
            take = np.repeat(np.arange(len(P)), count)
            step = np.arange(take.size) - (np.cumsum(count) - count)[take]
            P = np.column_stack([P[take], upper[take, i] - step])
            upper = upper[take]
        upper = P[:, -l:]
    return P


def _rows(P: np.ndarray, sig: tuple) -> list:
    """[row 0 (empty), row 1, .., row d] of the patterns P: views of P, and
    the top row sig."""
    d = len(sig)
    inner = [P[:, (d * (d - 1) - l * (l + 1)) // 2 :][:, :l] for l in range(1, d)]
    return [P[:, :0], *inner, np.repeat(np.array([sig], dtype=np.int64), len(P), axis=0)]


def _pattern_weights(P: np.ndarray, sig: tuple) -> np.ndarray:
    """(n, d) pattern weights rowsum_l - rowsum_{l-1} of the patterns P."""
    sums = np.column_stack([row.sum(axis=1) for row in _rows(P, sig)])
    return sums[:, 1:] - sums[:, :-1]


def _amplitudes(P: np.ndarray, sig: tuple) -> tuple:
    """(rows, cols, vals) of each simple raising operator E_{l,l+1} on the
    patterns P with top row sig: E e_cols = vals e_rows, by column, then by
    raised entry (E_{l+1,l} is its transpose, E_aa diagonal in the pattern
    weights).  By the formula in the module docstring: for all patterns at
    once, one raised entry k of row l at a time.

    The move is made where it keeps interlacing, m_{k,l} + 1 <= m_{k,l+1}
    and m_{k-1,l-1}; its target is looked up among P.  Products of the
    formula's integer factors must stay below 2^53, so that sqrt(num / den)
    has the bits of exact rational arithmetic, and num >= 0 < den, so that
    the square root is real; otherwise the move raises.
    """
    d = len(sig)
    m = _rows(P, sig)
    a = [row - np.arange(1, row.shape[-1] + 1) for row in m]  # a_{j,l} = m_{j,l} - j
    out = []
    for l in range(1, d):
        src, vals, targets = [], [], []
        for k in range(l):
            ok = m[l][:, k] < m[l + 1][:, k]
            if k:
                ok &= m[l][:, k] < m[l - 1][:, k - 1]
            i = np.flatnonzero(ok)
            x = a[l][i, k, None]
            num = -_product(np.concatenate([a[l + 1][i] - x, a[l - 1][i] - x - 1], axis=1))
            F = a[l][i][:, [j for j in range(l) if j != k]] - x
            den = _product(F * (F - 1))
            if not ((num >= 0).all() and (den > 0).all()):
                raise AssertionError(f"a GT amplitude of E_{l}{l + 1} has num < 0 or den <= 0")
            targets.append(P[i])
            targets[-1][:, (d * (d - 1) - l * (l + 1)) // 2 + k] += 1  # m_{k,l} + 1
            src.append(i)
            vals.append(np.sqrt(num / den))
        cols = np.concatenate(src)
        order = np.argsort(cols, kind="stable")
        rows = _find(P, np.concatenate(targets))
        out.append((rows[order], cols[order], np.concatenate(vals)[order]))
    return tuple(out)


def _product(F: np.ndarray) -> np.ndarray:
    """The row products of the int array F in float64, which must stay below
    2^53: every partial product multiplies integers of modulus >= 1 (or 0),
    so it is exact until the product reaches 2^53, and reaches it then."""
    p = F.astype(np.float64).prod(axis=1)
    if np.abs(p).max(initial=0.0) >= 2.0**53:
        raise ResourceLimitError("a GT amplitude's numerator or denominator reaches 2^53")
    return p


def _keys(rows: np.ndarray) -> np.ndarray:
    """One int64 per row of an int array, in the rows' lexicographic order
    and equal only for equal rows: the columns as the digits of a mixed-radix
    number, the keys recoded to their ranks where a digit would overflow."""
    key, bound = np.zeros(len(rows), dtype=np.int64), 1
    for col in rows.T:
        lo = int(col.min())
        width = int(col.max()) - lo + 1
        if bound * width > 1 << 62:
            _, key = np.unique(key, return_inverse=True)
            bound = int(key.max()) + 1
        key = key * width + (col - lo)
        bound *= width
    return key


def _find(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """The position in P, whose rows descend strictly, of each row of Q;
    raises if one is missing."""
    n = len(P)
    key = _keys(np.concatenate([P, Q]))
    ascending, want = key[n - 1 :: -1], key[n:]
    pos = np.searchsorted(ascending, want).clip(max=n - 1)
    if not np.array_equal(ascending[pos], want):
        raise AssertionError("a raised or reflected GT pattern is not one of the basis")
    return n - 1 - pos


def _groups(key: np.ndarray) -> tuple:
    """(which, first): the group of each key, equal keys forming one group
    and the groups numbered in order of first use, and each group's first
    position."""
    _, first, which = np.unique(key, return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first))[which], np.sort(first)


def _real_structure(P: np.ndarray, sig: tuple, amplitudes: tuple) -> tuple:
    """(perm, sign) of the real structure J of a self-conjugate irrep.

    conj(pi(U)) = J pi(U) J^T holds iff J E_ab J^T = -E_ba on the generators
    (up to a multiple of the identity on the Cartan elements, which the
    traceless logarithm in irrep_matrix cancels).  Reflecting every row
    r -> c - reversed(r), c the top entry of the shifted signature, sends each
    pattern to the one of negated weight, so J permutes the GT basis up to
    signs.  Every GT amplitude is positive, so J E J^T = -E^T flips the sign
    along each simple raising edge; every edge adds 1 to the sum h of rows
    1 .. d-1, and every pattern but the first has an edge up, so sign =
    (-1)^(h[0] - h) with sign[0] = 1.  The result is checked on every edge.
    """
    perm = _find(P, sig[0] - np.hstack([row[:, ::-1] for row in _rows(P, sig)[-2:0:-1]]))
    h = P.sum(axis=1)
    sign = 1.0 - 2.0 * ((h[0] - h) & 1)
    _check_real_structure(amplitudes, perm, sign)
    return perm, sign


def _check_real_structure(amplitudes: tuple, perm: np.ndarray, sign: np.ndarray) -> None:
    """Raise unless J = (perm, sign) is a symmetric involution with
    J E J^T = -E^T for every simple raising operator E: J E J^T puts the
    entry v at (r, c) of E at (perm r, perm c) as sign[r] sign[c] v, so the
    mirrored positions (perm c, perm r) must be E's own, with values that
    cancel E's there."""
    n = len(perm)
    if not (np.array_equal(perm[perm], np.arange(n)) and np.array_equal(sign[perm], sign)):
        raise AssertionError("real structure is not a symmetric involution")
    for l, (rows, cols, vals) in enumerate(amplitudes, 1):
        key, mirror = rows * n + cols, perm[cols] * n + perm[rows]
        at, to = np.argsort(key), np.argsort(mirror)
        err = (float(np.abs(vals[at] + (sign[rows] * sign[cols] * vals)[to]).max(initial=0.0))
               if np.array_equal(key[at], mirror[to]) else np.inf)
        if not err <= 1e-12 * max(1.0, float(np.abs(vals).max(initial=0.0))):
            raise AssertionError(f"real structure fails on E_{l}{l + 1} by {err:.3e}")


@functools.cache
def cached_basis(weight: Weight) -> GTBasis:
    """build_basis(weight), kept for the process: about 400 bytes per weight
    at d = 2 (tracemalloc), the frame and span layout too at d >= 3."""
    return build_basis(weight)


class _RotationBlock(NamedTuple):
    """The frame of one set of patterns that share rows 1 .. d-2 (see JyFrame)."""

    even: slice | np.ndarray  # GT indices of the even rows (p even), a slice where they are strided
    odd: slice | np.ndarray  # GT indices of the odd rows
    grids: tuple  # where the (even, even), (odd, odd), (odd, even), (even, odd) parts go in R
    s_even: np.ndarray  # S_e: even rows of S, one column per eigenvalue mu >= 0
    s_odd: np.ndarray  # S_o: odd rows of S
    mu: np.ndarray  # the eigenvalues >= 0, exact


@dataclass(frozen=True)
class JyFrame:
    """The eigenvectors of Jy of the su(2) on the last two coordinates, which
    the images of one weight share.

    Jy = (E_{d-1,d} - E_{d,d-1}) / 2i.  In the GT basis D^dagger Jy D with
    D = diag(i^p), p = pw_d - min pw_d, is the real symmetric T = (E_{d-1,d} +
    E_{d,d-1}) / 2, and exp(-i beta Jy) = D exp(-i beta T) D^dagger is real:
    its entries with p_r - p_c even are those of cos(beta T) and those with
    p_r - p_c odd those of sin(beta T), times s_r s_c with s_r =
    (-1)^floor(p_r / 2), negated where p_r is even and p_c odd.  T moves only
    row d-1 of a pattern, so it is block diagonal over the sets of patterns
    that share rows 1 .. d-2 (one set at d = 2, where T is tridiagonal), and
    each block's spectrum is exactly that of Jz = (pw_{d-1} - pw_d) / 2 on it.
    T has a zero diagonal and anticommutes with diag((-1)^p), so the
    eigenvectors of -mu are those of mu with their odd rows negated, and both
    parts come from the eigenvectors of mu >= 0 alone: with S those scaled by
    s, the even-even and odd-odd entries are S_e diag(w) S_e^T and
    S_o diag(w) S_o^T, w = 2 cos(beta mu) (1 at mu = 0), and the even-odd ones
    S_e diag(2 sin(beta mu)) S_o^T.  Each block is one solve from its
    patterns and T's entries (_rotation_block).  On a chain (a tridiagonal
    block, all of T at d = 2) the parity alternates, T[even, odd] is
    bidiagonal, and its SVD gives S_e and S_o directly.

    The rotation blocks hold about sum(b^2) / 2 entries.  At d = 2 that is
    n^2 / 2, so the frame is built per weight and pass and never cached, with
    the Jz m and the real fold its images read (jy_frame).  At d >= 3 the
    sets are small (about 150 bytes of frame per pattern at d = 3, t = 8),
    and the basis keeps the frame itself (GTBasis.frame).
    """

    weight: Weight
    blocks: tuple = field(repr=False)  # _RotationBlock per set of patterns sharing rows 1 .. d-2
    m: np.ndarray | None = field(repr=False, default=None)  # d = 2: Jz, j .. -j
    fold: tuple | None = field(repr=False, default=None)  # d = 2: _real_fold(n)


def jy_frame(basis: GTBasis) -> JyFrame:
    """The JyFrame of a basis: the one it keeps at d >= 3, else one solve of
    T's chain (_rotation_block), with m and the real fold.  At d = 2 GT
    vector r has p = r, m = (n-1)/2 - r and T[r, r+1] = sqrt(k (n - k)) / 2,
    k = r + 1 (spin j's J+: half the builder's E_12 amplitude, bit for bit),
    so all of it comes from n."""
    if basis.frame is not None:
        return basis.frame
    n = basis.dim
    r = np.arange(n)
    m = (n - 1) / 2 - r
    block = _rotation_block(r, r[:-1], r[1:], 0.5 * np.sqrt(r[1:] * (n - r[1:])), m, r)
    return JyFrame(basis.weight, (block,), m, _real_fold(n))


def _jy_blocks(P: np.ndarray, pw: np.ndarray, E: tuple, m: np.ndarray) -> tuple:
    """The blocks of a d >= 3 JyFrame, one solve each (_rotation_block), for
    the patterns P with pattern weights pw, E the amplitudes of E_{d-1,d}
    and m its Jz.  T's entries are half the GT amplitudes of E; the blocks
    are the sets of patterns that share rows 1 .. d-2, in order of first use.
    """
    n, d = pw.shape
    p = pw[:, d - 1] - pw[:, d - 1].min()
    which, _ = _groups(_keys(P[:, d - 1 :]))
    idx = np.argsort(which, kind="stable")  # the patterns, set by set
    cuts = np.searchsorted(which[idx], np.arange(which.max() + 2))
    loc = np.empty(n, dtype=np.intp)
    loc[idx] = np.arange(n) - cuts[which[idx]]
    rows, cols, vals = E
    if not np.array_equal(which[rows], which[cols]):
        raise AssertionError(f"E_{d - 1}{d} moves a pattern's rows 1 .. {d - 2}")
    order = np.lexsort((cols, rows, which[rows]))  # E's entries, set by set, row-major
    ecuts = np.searchsorted(which[rows[order]], np.arange(cuts.size))
    blocks = []
    for k in range(cuts.size - 1):
        at = order[ecuts[k] : ecuts[k + 1]]
        blocks.append(_rotation_block(idx[cuts[k] : cuts[k + 1]], loc[rows[at]], loc[cols[at]],
                                      0.5 * vals[at], m, p))
    return tuple(blocks)


def _rotation_block(idx, rows, cols, vals, m: np.ndarray, p: np.ndarray) -> _RotationBlock:
    """The frame of the patterns idx, whose T has the entries vals at (rows,
    cols) (positions within idx) above the diagonal, and their mirror images:
    its GT indices split by the parity of p, its exact spectrum (that of m),
    and the eigenvectors scaled by the signs s.

    A chain's T is [[0, L], [L^T, 0]] on (F, G).  With L = U diag(sigma) V^T
    its eigenvectors are (u, +-v) / sqrt2 for +-sigma, and (u, 0) for the
    zero singular value that an odd chain's padding adds (V's column for it
    is the padding coordinate, dropped).  Any other block is solved dense.
    """
    b = idx.size
    s = (1 - (p[idx] & 2)).astype(np.float64)
    odd = (p[idx] & 1).astype(bool)
    e, o = _index(idx[~odd]), _index(idx[odd])
    exact = np.sort(m[idx])
    mu = exact[int(np.searchsorted(exact, 0.0)) :]
    off = np.zeros(b - 1)
    off[rows] = vals
    if rows.size == b - 1 and np.all(cols - rows == 1) and np.all(off != 0):
        # a chain: p alternates along it, so L = T[F, G], F its positions
        # 0, 2, .. and G 1, 3, .., is lower bidiagonal; an odd chain's L has
        # one column fewer than rows, padded with zeros to square
        diag = np.zeros((b + 1) // 2)
        diag[: b // 2] = off[0::2]
        sigma, U, Vt = bidiagonal_svd(diag, off[1::2])
        got, size_G = sigma[::-1], b - diag.size
        S_F = U[:, ::-1] * sqrt(0.5)
        S_G = Vt[::-1, :size_G].T * sqrt(0.5)
        if size_G < diag.size:  # an odd chain: sigma = 0 gives (u, 0)
            S_F[:, 0] = U[:, -1]
            S_G[:, 0] = 0.0
        Q_even, Q_odd = (S_G, S_F) if odd[0] else (S_F, S_G)
        err = float(np.abs(got - mu).max(initial=0.0)) if got.shape == mu.shape else np.inf
    else:
        T = np.zeros((b, b))
        T[rows, cols] = vals
        got, Q = np.linalg.eigh(T + T.T)
        err = float(np.abs(got - exact).max())
        Q = Q[:, b - mu.size :]
        Q_even, Q_odd = Q[~odd], Q[odd]
    if not err <= 1e-9 * b:
        raise AssertionError(f"Jy spectrum is off (pw_(d-1) - pw_d) / 2 by {err:.3e}")
    return _RotationBlock(
        e, o, (_grid(e, e), _grid(o, o), _grid(o, e), _grid(e, o)),
        s_even=np.ascontiguousarray(Q_even * s[~odd][:, None]),
        s_odd=np.ascontiguousarray(Q_odd * s[odd][:, None]),
        mu=mu,
    )


def _index(idx: np.ndarray):
    """idx as a slice where it is an increasing arithmetic progression."""
    step = int(idx[1] - idx[0]) if idx.size > 1 else 1
    if idx.size and step > 0 and np.array_equal(idx, np.arange(idx[0], idx[-1] + 1, step)):
        return slice(int(idx[0]), int(idx[-1]) + 1, step)
    return idx


def _subgroup_layout(P: np.ndarray, pw: np.ndarray, shift: int, amplitudes: tuple) -> tuple:
    """(spans, shapes, shape_of) of a d >= 3 basis, as GTBasis describes, for
    the patterns P with pattern weights pw and the amplitudes of E_{l,l+1},
    l < d-1 (_amplitudes), checked by _check_spans."""
    n, d = pw.shape
    R = P[:, : d - 1]  # row d-1
    starts = np.flatnonzero(np.r_[True, (R[1:] != R[:-1]).any(axis=1)])
    row = R[starts]
    k_of, first = _groups(_keys(row - row[:, -1:]))
    shapes = tuple(tuple(x - r[-1] for x in r) for r in row[first].tolist())
    spans = np.column_stack([starts, np.r_[starts[1:], n]])
    shape_of = np.column_stack([k_of, row[:, -1] - shift, pw[starts, d - 1]])
    gens = [_shape_generators(shape) for shape in shapes]
    _check_spans(amplitudes, pw, spans, shape_of, gens)
    return spans, tuple(zip(shapes, (G for G, _ in gens))), shape_of


@functools.lru_cache(maxsize=None)
def _shape_generators(shape: tuple) -> tuple:
    """(G, weights) of the U(q) irrep of signature shape, q = len(shape), on
    its own GT basis (_patterns): G[(a-1) q + b-1] the dense image of E_ab,
    read-only, with E_aa = diag(weights[:, a-1]) the pattern weights.  Made
    from the shape alone, so every span of the shape, in any weight, gets
    the same bits; kept for the process, like cached bases."""
    q = len(shape)
    P = _patterns(shape)
    weights = _pattern_weights(P, shape)
    b = len(P)
    G = np.zeros((q, q, b, b))
    for a in range(q):
        np.fill_diagonal(G[a, a], weights[:, a])
    for l, (rows, cols, vals) in enumerate(_amplitudes(P, shape), 1):
        G[l - 1, l, rows, cols] = vals
        G[l, l - 1] = G[l - 1, l].T
    for span in range(2, q):  # E_ac = [E_{a,c-1}, E_{c-1,c}]
        for a in range(q - span):
            c = a + span
            G[a, c] = G[a, c - 1] @ G[c - 1, c] - G[c - 1, c] @ G[a, c - 1]
            G[c, a] = G[a, c].T
    G = G.reshape(q * q, b, b)
    G.flags.writeable = False
    return G, weights


def _check_spans(amplitudes: tuple, pw: np.ndarray, spans, shape_of, gens: list) -> None:
    """Raise unless each span is the GT basis of its shape, gens[k] = (G,
    weights) for its row (k, c, pw_d) of shape_of: the span's pattern weights
    the shape's shifted by c, then pw_d, and every E_{l,l+1}, l < d-1, of
    amplitudes block diagonal over the spans with the shape's G as the
    span's block, bit for bit.

    G's other blocks are made from these (_shape_generators): the lowering
    ones are their transposes and the rest their nested commutators, so the
    simple ones and the E_aa vouch for all of G.  Each stored entry must sit
    in a span, and the entries scattered into the spans' blocks must equal
    the shapes' blocks exactly, so the shapes carry nothing the basis lacks.
    """
    n, d = pw.shape
    start, stop = spans.T
    size = np.array([len(weights) for _, weights in gens])
    k_of = shape_of[:, 0]
    b = size[k_of]
    if not (np.array_equal(stop - start, b)
            and np.array_equal(pw, _span_weights(spans, shape_of, [w for _, w in gens]))):
        raise AssertionError(f"a row-{d - 1} block is not its shape's shifted by r - shift")
    span_at = np.repeat(np.arange(len(spans)), b)
    local = np.arange(n) - start[span_at]  # each pattern's position in its span
    block = np.cumsum(b * b) - b * b  # where each span's block starts, blocks concatenated
    for l, (rows, cols, vals) in enumerate(amplitudes, 1):
        at = span_at[rows]
        if not np.array_equal(at, span_at[cols]):
            raise AssertionError(f"E_{l}{l + 1} moves a pattern's row {d - 1}")
        i = (l - 1) * (d - 1) + l  # E_{l,l+1} in G
        want = np.concatenate([gens[k][0][i].ravel() for k in k_of.tolist()])
        got = np.zeros_like(want)
        got[block[at] + local[rows] * b[at] + local[cols]] = vals
        if not np.array_equal(got, want):
            err = float(np.abs(got - want).max())
            raise AssertionError(f"E_{l}{l + 1} is not its spans' shape images (off by {err:.3e})")


def _span_weights(spans: np.ndarray, shape_of: np.ndarray, weights: list) -> np.ndarray:
    """(n, d) pattern weights of the spans laid out by shape_of, weights[k]
    those of shape k: each span's are its shape's shifted by r - shift, then
    pw_d (see GTBasis)."""
    (start, stop), (k_of, c, pw_d) = spans.T, shape_of.T
    span_at = np.repeat(np.arange(len(spans)), stop - start)
    local = np.arange(stop[-1]) - start[span_at]  # each pattern's position in its span
    offset = np.cumsum([0] + [len(w) for w in weights])
    at = offset[k_of][span_at] + local
    return np.column_stack([np.concatenate(weights)[at] + c[span_at, None], pw_d[span_at]])


def pattern_weights(basis: GTBasis) -> np.ndarray:
    """(n, d) int pattern weights of the GT basis, summing to zero: pi of a
    diagonal gate diag(e^{i phi}) is diag(e^{i <phi, pw_r>}), whatever its
    phase.  At d = 2 they are (m, -m), m = (n-1)/2 - r; at d >= 3 they come
    from the span layout, which build_basis checked against them."""
    n = basis.dim
    if basis.spans is None:
        m = (n - 1) // 2 - np.arange(n)
        return np.column_stack([m, -m])
    return _span_weights(basis.spans, basis.shape_of,
                         [_shape_generators(shape)[1] for shape, _ in basis.shapes])


@dataclass(frozen=True)
class GateFactors:
    """U = K1 Ry(beta) K2 up to a phase: K1, K2 in U(d-1) x U(1), and Ry(beta) =
    exp(beta/2 (E_{d,d-1} - E_{d-1,d})) the rotation by beta/2 in the plane
    of the last two coordinates (a cosine-sine factorization).  left and
    right are -i log K1 and -i log K2, Hermitian and block diagonal like K.
    At d >= 3, shape_images holds, for left and right, exp(i Y.G) of each
    U(d-1) shape that an image has asked for (_subgroup_image), so a pass
    that keeps its factors solves each shape once per gate side.
    """

    beta: float
    left: np.ndarray = field(repr=False)
    right: np.ndarray = field(repr=False)
    shape_images: tuple = field(repr=False, compare=False, default_factory=lambda: ({}, {}))


def gate_factors(U: np.ndarray) -> GateFactors:
    """The GateFactors of a gate, which is checked to be unitary.

    At d = 2 they are the ZYZ Euler angles of V = U / sqrt(det U):
    V = Rz(alpha) Ry(beta) Rz(gamma), Rz(phi) = diag(e^{-i phi/2}, e^{i phi/2}).
    The sign of the square root only flips the sign of V, which integer spin
    cannot see.  At beta = 0 or pi one of the arguments below is that of 0,
    and only alpha + gamma (respectively alpha - gamma) matters, which the
    formulas still get right.  At d >= 3 they come from the cosine-sine
    split (lapack.cossin), the logarithm of each U(d-1) factor from its
    complex Schur form (lapack.schur).
    """
    U = np.asarray(U, dtype=np.complex128)
    if U.ndim != 2 or U.shape[0] != U.shape[1] or U.shape[0] < 2:
        raise DomainError(f"gate must be a d x d matrix with d >= 2, got shape {U.shape}")
    check_unitary(U, "gate")
    if U.shape[0] == 2:
        V = U / np.sqrt(np.linalg.det(U))
        beta = 2.0 * np.arctan2(abs(V[1, 0]), abs(V[1, 1]))
        a11, a10 = np.angle(V[1, 1]), np.angle(V[1, 0])
        return GateFactors(beta, _rz_log(a11 + a10), _rz_log(a11 - a10))
    (k1, c1), theta, (k2, c2) = cossin(U, len(U) - 1, len(U) - 1)
    return GateFactors(2.0 * float(theta[0]), _subgroup_log(k1, c1), _subgroup_log(k2, c2))


def _rz_log(phi: float) -> np.ndarray:
    half = 0.5 * phi
    return np.diag([-half, half]).astype(np.complex128)


def _subgroup_log(k: np.ndarray, c: np.ndarray) -> np.ndarray:
    phases, Z = _schur_unitary(k)
    L = np.zeros((len(k) + 1,) * 2, dtype=np.complex128)
    L[:-1, :-1] = (Z * np.angle(phases)) @ Z.conj().T
    L[-1, -1] = np.angle(c[0, 0])
    return L


def _schur_unitary(U: np.ndarray):
    """Eigenvalues and exactly-unitary eigenvectors of a unitary matrix."""
    T, Z = schur(U)
    diag = np.diag(T)
    # normal + triangular => diagonal; anything off-diagonal is roundoff
    resid = np.abs(T - np.diag(diag)).max()
    if not resid < 1e-8:
        raise AssertionError(f"Schur factor of a unitary is not diagonal: {resid:.3e}")
    return diag / np.abs(diag), Z


def irrep_matrix(
    basis: GTBasis, U: np.ndarray, frame: JyFrame | None = None,
    factors: GateFactors | None = None, real: bool = False,
) -> np.ndarray:
    """pi_lambda(U) in the GT basis; unitary to ~1e-12, phase-convention
    independent to ~1e-10.

    The image is pi(K1) pi(Ry(beta)) pi(K2) for the factors of U: `factors`
    if given (they must be gate_factors(U), which checked U), otherwise made
    and checked for this call; and on a JyFrame: `frame` if given (it must be
    jy_frame(basis)), otherwise one built for this call.  pi(Ry(beta)) comes
    from the frame's eigenvectors of Jy, real, block by block; pi(K) is
    diagonal at d = 2 and otherwise block diagonal, one small Hermitian
    eigensolve per U(d-1) shape, kept with the factors for the next weight
    that has the shape.  The pattern weights sum to zero, so the phase that
    the factors drop is invisible.

    With real (a self-conjugate weight only), the image is the real
    orthogonal C pi(U) C^dagger in the real basis C with C^T C = J, built
    without an n x n complex array: by two folds at d = 2 (the frame's fold,
    _real_image), by real products per pair of J-partner spans at d >= 3
    (basis.real_basis, _real_cs_image).
    """
    U = np.asarray(U, dtype=np.complex128)
    if U.shape != (basis.d, basis.d):
        raise DomainError(f"gate must be {basis.d}x{basis.d}, got shape {U.shape}")
    if real and frobenius_schur(basis.weight) != 1:
        raise DomainError(f"real images need a self-conjugate weight, not {basis.weight.entries}")
    if factors is None:
        factors = gate_factors(U)
    elif factors.left.shape != U.shape:
        raise DomainError(f"factors of a {len(factors.left)}x{len(factors.left)} gate for "
                          f"d = {basis.d}")
    if frame is None:
        frame = jy_frame(basis)
    elif frame.weight != basis.weight:
        raise DomainError(f"frame of weight {frame.weight.entries} for a basis of "
                          f"{basis.weight.entries}")
    n = basis.dim
    if basis.spans is None:  # d = 2: pi(K) = diag(e^{-i alpha m})
        R = _rotation(frame, np.empty((n, n)), factors.beta)
        alpha, gamma = (float((L[1, 1] - L[0, 0]).real) for L in (factors.left, factors.right))
        if real:
            return _real_image(frame, R, alpha, gamma)
        P = np.exp(-1j * alpha * frame.m)[:, None] * R
        P *= np.exp(-1j * gamma * frame.m)
        return P
    left, right = (_subgroup_image(basis, L, table)
                   for L, table in zip((factors.left, factors.right), factors.shape_images))
    if real:
        return _real_cs_image(basis, frame, factors.beta, left, right)
    # R is built in P's real part; each span's rows of R serve only that
    # span's rows of pi(K1) R, made from a copy of them as (Re A) R + i (Im A) R
    P = np.zeros((n, n), dtype=np.complex128)
    R = _rotation(frame, P.real, factors.beta)
    spans = basis.spans.tolist()  # Python ints slice faster than numpy ones
    for (s, e), A in zip(spans, left):
        slab = np.ascontiguousarray(R[s:e])
        P[s:e].real = A.real @ slab
        P[s:e].imag = A.imag @ slab
    for (s, e), B in zip(spans, right):
        P[:, s:e] = P[:, s:e] @ B
    return P


def _rotation(frame: JyFrame, R: np.ndarray, beta: float) -> np.ndarray:
    """pi(Ry(beta)) = exp(-i beta Jy), real, written into R and returned (see
    JyFrame).  Entries outside the frame's blocks are left as they are: R
    comes zeroed unless one block covers it, as at d = 2."""
    for blk in frame.blocks:
        x = beta * blk.mu
        w = 2.0 * np.cos(x)
        w[blk.mu == 0] = 1.0
        Se, So = blk.s_even, blk.s_odd
        ee, oo, oe, eo = blk.grids
        R[ee] = (Se * w) @ Se.T
        R[oo] = (So * w) @ So.T
        X = (Se * (2.0 * np.sin(x))) @ So.T
        R[oe] = X.T
        R[eo] = np.negative(X, out=X)
    return R


def rows_per_tile(n: int) -> int:
    """Rows of an n-wide slab of _TILE entries: the step of the loops that
    fold or sum an n x n image in place, one slab of temporaries at a time
    (one step, the whole image, up to n = 181)."""
    return max(1, _TILE // n)


def _grid(rows, cols) -> tuple:
    if isinstance(rows, slice) or isinstance(cols, slice):
        return rows, cols
    return rows[:, None], cols  # the block rows x cols, as np.ix_ gives it


def _real_fold(n: int) -> tuple:
    """(a, b, probe) of the real basis of dimension n at d = 2, for _real_image;
    made with the frame, once per weight and pass (jy_frame).

    At d = 2 the real structure is J e_r = (-1)^r e_r', r' = n - 1 - r, and
    the rows of C are conj(rho_r) h_r^T with h_r = a_r e_r + b_r e_r' real and
    rho_r in {1, i}: for r above the middle a_r = b_r = (-1)^r / sqrt2 and
    rho_r = i^(r mod 2), below it a_r = -b_r = 1 / sqrt2 and rho_r =
    i^(1 - r mod 2), and at the middle j a = (-1)^j, b = 0, rho = i^(j mod 2)
    (the J-odd fixed point of an odd j is on the i side).  These are the rows
    of _real_form_map for this J.  probe is a fixed unit vector.
    """
    r = np.arange(n)
    a = np.where(r < n // 2, (-1.0) ** r, 1.0) * sqrt(0.5)
    b = np.where(r < n // 2, a, -a)
    a[n // 2], b[n // 2] = (-1.0) ** (n // 2), 0.0
    return a, b, _probe(n)


def _probe(n: int) -> np.ndarray:
    """A fixed unit vector of dimension n for the orthogonality probe of a
    real image; any will do, and this one has no symmetry in r <-> n-1-r."""
    probe = np.cos(1.0 + 2.0 * np.arange(n))
    return probe / np.linalg.norm(probe)


def _real_image(frame: JyFrame, R: np.ndarray, alpha: float, gamma: float) -> np.ndarray:
    """C pi(U) C^dagger at d = 2, pi(U) = D(alpha) R D(gamma), D(phi) =
    diag(e^{-i phi m}), in real arithmetic, folded in place in R; m and the
    fold (a, b, probe) are the frame's.

    R = pi(Ry(beta)) is real and commutes with J, so H^T R H (H the columns
    h_r) vanishes where rho_k != rho_l: it is R_+ (+) R_-, the blocks on the
    J-even and J-odd vectors, and C R C^dagger equals it.  rho* H^T D(phi)
    H rho is the real M(phi) with cos(phi m_r) on the diagonal and
    -sin(phi m_r) at (r, r').  So the image is M(alpha) H^T R H M(gamma),
    and H M(gamma) has the column cos(gamma m_l) h_l + sin(gamma m_l) h_l',
    which puts A_l on e_l and B_l on e_l': two folds of R against its
    reversal, O(n^2), the first row by row and the second column by column,
    a slab at a time.  The probe checks that the result is orthogonal on a
    fixed vector and that its trace is that of pi(U), whose imaginary part
    (R's J-symmetry) must vanish.
    """
    a, b, probe = frame.fold
    x = np.multiply.outer((gamma, -alpha, alpha + gamma), frame.m)
    c, s = np.cos(x), np.sin(x)
    # (A, B) of H M(gamma) in row 0, of H M(-alpha) = (M(alpha) H^T)^T in row 1
    A = a * c[:2] + b[::-1] * s[:2]
    B = b * c[:2] + a[::-1] * s[:2]
    r = np.diagonal(R)
    trace, imag = r @ c[2], r @ s[2]  # before the folds overwrite R
    step = rows_per_tile(len(R))
    for i in range(0, len(R), step):  # Y = R A + R[:, ::-1] B, row by row
        Y = R[i : i + step]
        T = Y[:, ::-1] * B[0]
        Y *= A[0]
        Y += T
    for i in range(0, len(R), step):  # Q = A Y + B Y[::-1], column by column
        Q = R[:, i : i + step]
        T = Q[::-1] * B[1, :, None]
        Q *= A[1, :, None]
        Q += T
    _check_probe(R, probe, abs(np.trace(R) - trace), abs(imag))
    return R


def _check_probe(O: np.ndarray, probe: np.ndarray, *errs: float) -> None:
    """Raise unless the real image O is orthogonal on the probe and every
    other error given is roundoff too."""
    y = O @ probe
    err = max((abs(y @ y - 1.0), *errs))
    if not err <= 1e-9:
        raise AssertionError(f"real image fails its probe by {err:.3e}")


def _real_form_map(perm: np.ndarray, sign: np.ndarray) -> tuple:
    """(u, v, alpha, beta) with row k of C equal to alpha[k] e_u[k] +
    beta[k] e_v[k], for the unitary C with C^T C = J, J e_i = sign[i]
    e_perm[i].

    J is a symmetric signed permutation with J^2 = I: a fixed point with sign s
    gets the row phi e_i, a swapped pair i < q with common sign s the rows
    phi (e_i + e_q)/sqrt2 and i phi (e_i - e_q)/sqrt2, with phi^2 = s.
    """
    k = np.arange(len(perm))
    phi = np.where(sign > 0, 1.0 + 0j, 1j)
    fixed = perm == k
    r = np.where(fixed, 1.0, np.sqrt(0.5)) * phi
    first = k < perm
    alpha = np.where(first | fixed, r, 1j * r)
    beta = np.where(fixed, 0.0, np.where(first, r, -1j * r))
    return np.minimum(k, perm), np.maximum(k, perm), alpha, beta


def _real_pairs(perm: np.ndarray, sign: np.ndarray, spans: np.ndarray) -> tuple:
    """(pairs, probe), the real basis of a self-conjugate weight at d >= 3 as
    _real_cs_image reads it; probe is a fixed unit vector.

    J maps each span onto a span of the same shape (it reflects row d-1),
    so the rows of C (_real_form_map) on a span s and its partner J(s) mix
    only their GT vectors.  pairs holds (idx, parts, at, vals) for each set
    s u J(s), in order of its first span: idx its GT indices, span by span;
    parts the index of s, and of J(s) where it is another span; and the
    nonzeros of C restricted to idx x idx, vals at the flat positions at.
    """
    start, stop = spans.T
    span_at = np.repeat(np.arange(len(spans)), stop - start)
    partner = span_at[perm[start]]
    if not np.array_equal(span_at[perm], partner[span_at]):  # J is an involution, checked
        raise AssertionError("the real structure does not map spans onto spans")
    u, v, alpha, beta = _real_form_map(perm, sign)
    loc = np.empty(len(perm), dtype=np.intp)  # each GT index's position in its set's idx
    pairs = []
    for i, p in enumerate(partner.tolist()):
        if p < i:
            continue
        parts = (i,) if p == i else (i, p)
        idx = np.concatenate([np.arange(start[k], stop[k]) for k in parts])
        r = loc[idx] = np.arange(idx.size)
        C = np.zeros((idx.size, idx.size), dtype=np.complex128)
        C[r, loc[u[idx]]] = alpha[idx]
        C[r, loc[v[idx]]] += beta[idx]  # 0 on a fixed point's row
        at = np.flatnonzero(C)
        pairs.append((idx, parts, at, C.ravel()[at]))
    return tuple(pairs), _probe(len(perm))


def _real_cs_image(basis: GTBasis, frame: JyFrame, beta: float, left: list,
                   right: list) -> np.ndarray:
    """C pi(U) C^dagger at d >= 3, pi(U) = pi(K1) R pi(K2) with R =
    pi(Ry(beta)) and left, right the span blocks of pi(K1), pi(K2), in real
    arithmetic, folded in place in R.

    C pi(K) C^dagger is real (pi(K) meets conj(pi(K)) = J pi(K) J^T like
    any image) and block diagonal over the sets s u J(s) of real_basis.  R
    is real and commutes with J, so C R C^dagger is real too, and equals
    G R G^T for the real G = Re C + Im C: each row of C is 1, i or -1 times
    a real row, and the entries between rows of phase 1 and i vanish.  So
    the image is L R Rr with L = (C pi(K1) C^dagger) G and Rr =
    G^T (C pi(K2) C^dagger), block diagonal like C pi(K) C^dagger: one
    real product per set on R's rows, then one on its columns.  Each
    set's C pi(K) C^dagger is checked to be real (imaginary part at most
    1e-10), and the result orthogonal on a fixed probe vector.  Where
    n doubles are a multiple of 4096 B the result is a view of an array whose
    rows are one cache line longer.
    """
    pairs, probe = basis.real_basis
    n = basis.dim
    # rows 4096 B apart map a column onto a few cache sets (n = 512 at
    # (7, 0, -7)), which made the column pass over twice as slow: pad them a line
    pad = 8 if n % 512 == 0 else 0
    R = _rotation(frame, np.zeros((n, n + pad))[:, :n], beta)
    cols = []
    for idx, parts, at, vals in pairs:
        C = np.zeros((idx.size, idx.size), dtype=np.complex128)
        np.put(C, at, vals)
        G = C.real + C.imag
        ML, MR = _pair_blocks(C, [(left[k], right[k]) for k in parts])
        R[idx] = (ML @ G) @ R[idx]
        cols.append(G.T @ MR)
    for (idx, _, _, _), Rr in zip(pairs, cols):
        R[:, idx] = R[:, idx] @ Rr
    _check_probe(R, probe)
    return R


def _pair_blocks(C: np.ndarray, blocks: list) -> np.ndarray:
    """C X C^dagger for X the block diagonal of the left and of the right
    blocks, (left, right) per span, checked to be real: conj(X) = J X J^T,
    which every pi(K) meets, makes it so."""
    if len(blocks) == 1:
        X = np.stack(blocks[0])
    else:
        b = len(blocks[0][0])
        X = np.zeros((2, *C.shape), dtype=np.complex128)
        X[:, :b, :b], X[:, b:, b:] = blocks
    M = C @ X @ C.conj().T
    imag = float(np.abs(M.imag).max())
    if not imag <= 1e-10:
        raise AssertionError(f"a real-form pair block keeps an imaginary part {imag:.3e} > 1e-10")
    return M.real


_SHAPE_LOCK = threading.Lock()  # serializes the filling of GateFactors.shape_images


def _subgroup_image(basis: GTBasis, L: np.ndarray, table: dict) -> list:
    """The diagonal blocks of pi(K), K = exp(i L), one per span.

    With Y = L[:-1, :-1] and phi = L[-1, -1], the block of a span of shape G,
    offset r - shift and last weight pw_d is e^{i ((r - shift) tr Y + phi
    pw_d)} exp(i Y.G), Y.G = sum_ab Y_ab G_ab.  table maps each shape to
    exp(i Y.G) for this L: a shape missing from it is solved here, under a
    lock so that threads sharing L solve it once, and the entry depends on
    Y and the shape alone, whichever weight or thread asks first.
    """
    Y, phi = L[:-1, :-1], float(L[-1, -1].real)
    if any(shape not in table for shape, _ in basis.shapes):
        with _SHAPE_LOCK:
            for shape, G in basis.shapes:
                if shape not in table:
                    H = (Y.ravel() @ G.reshape(len(G), -1)).reshape(G.shape[1:])
                    w, W = np.linalg.eigh(H)
                    table[shape] = (W * np.exp(1j * w)) @ W.conj().T
    images = [table[shape] for shape, _ in basis.shapes]
    tr = float(np.trace(Y).real)
    return [images[k] * cmath.exp(1j * (c * tr + pw_d * phi))
            for k, c, pw_d in basis.shape_of.tolist()]
