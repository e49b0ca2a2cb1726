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
with entries rowsum_l - rowsum_{l-1}.

A self-conjugate irrep also carries its real structure J, a signed
permutation of the GT basis with conj(pi(U)) = J pi(U) J^T (see
_real_structure).

Group elements are produced in one of two ways.  For d >= 3, U is
eigendecomposed, its eigenphases centered to sum zero (the canonical traceless
logarithm), the logarithm pushed through the algebra representation and
re-exponentiated with a Hermitian eigensolve.  For d = 2 the weight (j, -j) is
the spin-j irrep of SO(3): U / sqrt(det U) = Rz(alpha) Ry(beta) Rz(gamma), and

    pi(U) = diag(e^{-i alpha m}) d^j(beta) diag(e^{-i gamma m})

with m the Jz eigenvalue of each GT vector and d^j(beta) = exp(-i beta Jy)
taken from the eigenbasis of Jy (a JyFrame, built once per weight by a
tridiagonal eigensolve).  Either way the result is unitary to machine
precision and, because all pattern weights are integral and sum-zero kills
the overall phase, independent of the phase convention of U up to ~1e-10.
"""

from __future__ import annotations

import threading
import warnings
from dataclasses import dataclass, field
from math import sqrt

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .errors import DomainError, ResourceLimitError
from .gates import check_unitary
from .weightlat import Weight, frobenius_schur, weyl_dimension

__all__ = [
    "GTBasis",
    "JyFrame",
    "build_basis",
    "cached_basis",
    "jy_frame",
    "irrep_matrix",
    "algebra_image",
    "weyl_character",
    "DIM_CAP",
]

DIM_CAP = 2_000_000  # refuse to build bases above this dimension


@dataclass(frozen=True)
class GTBasis:
    """Gelfand-Tsetlin basis of one irrep.

    patterns: tuple of GT patterns; a pattern is a tuple of rows, rows[l-1]
        of length l, rows[-1] the shifted signature.  Order is lexicographic
        descending on the flattened rows, a fixed convention that makes every
        downstream matrix deterministic.
    generator_images: {(a, b): sparse matrix} for the Cartan elements (a, a)
        and the simple raising/lowering pairs (l, l+1), (l+1, l).
    real_structure: (perm, sign) for a self-conjugate weight, with
        J e_i = sign[i] e_perm[i] the real structure; None otherwise.
    """

    weight: Weight
    patterns: tuple
    generator_images: dict
    shift: int
    pattern_weights: np.ndarray = field(repr=False)  # (dim, d) int, unshifted
    real_structure: tuple | None = field(repr=False, default=None)
    _full_images: dict = field(repr=False, default_factory=dict)

    @property
    def dim(self) -> int:
        return len(self.patterns)

    @property
    def d(self) -> int:
        return self.weight.d


def _enumerate_patterns(sig: tuple) -> list:
    """All GT patterns with top row sig, descending lex on (row_{d-1},...,row_1)."""
    d = len(sig)
    patterns = []

    def descend(rows):
        upper = rows[-1]
        l = len(upper) - 1
        if l == 0:
            patterns.append(tuple(reversed(rows)))
            return
        choices = [range(upper[i], max(upper[i + 1] - 1, -1), -1) for i in range(l)]

        def rec(prefix, i):
            if i == l:
                descend(rows + [tuple(prefix)])
                return
            for v in choices[i]:
                # nonincreasing within the row follows from interlacing with
                # the row above; guard kept as a cheap defensive check
                assert not prefix or v <= prefix[-1]
                rec(prefix + [v], i + 1)

        rec([], 0)

    descend([tuple(sig)])
    return patterns


def _pattern_weight(pattern: tuple, d: int) -> tuple:
    rs = [sum(pattern[l]) for l in range(d)]
    return tuple(rs[0:1] + [rs[l] - rs[l - 1] for l in range(1, d)])


def build_basis(weight: Weight, dim_cap: int = DIM_CAP) -> GTBasis:
    """Construct the GT basis and generator images for one weight.

    Raises ResourceLimitError if the Weyl dimension exceeds dim_cap before
    any pattern is materialized.
    """
    d = weight.d
    dim = weyl_dimension(weight)
    if dim > dim_cap:
        raise ResourceLimitError(
            f"irrep {weight.entries!r} has dimension {dim} > cap {dim_cap}"
        )
    shift = -weight.entries[-1]
    sig = tuple(x + shift for x in weight.entries)

    patterns = _enumerate_patterns(sig)
    assert len(patterns) == dim
    index = {p: i for i, p in enumerate(patterns)}

    pw = np.empty((dim, d), dtype=np.int64)
    for i, p in enumerate(patterns):
        pw[i] = _pattern_weight(p, d)
    pw -= shift  # back to the sum-zero normalization
    assert np.all(pw.sum(axis=1) == 0)  # every pattern weight sums to |lambda| = 0

    images: dict = {}
    up = [0] * dim  # up[i]: a pattern that a simple raising operator sends i to
    # Cartan elements: diagonal in the GT basis, integer entries
    for a in range(1, d + 1):
        diag = (pw[:, a - 1] + shift).astype(np.float64)
        images[(a, a)] = sp.diags(diag, format="csr", dtype=np.complex128)

    # simple raising operators, then adjoints
    for l in range(1, d):
        rows_i, cols_i, vals = [], [], []
        for i, p in enumerate(patterns):
            row = p[l - 1]
            for k in range(l):
                bumped = row[:k] + (row[k] + 1,) + row[k + 1 :]
                target = p[: l - 1] + (bumped,) + p[l:]
                j = index.get(target)
                if j is None:
                    continue  # interlacing broken, amplitude is zero
                akl = row[k] - (k + 1)
                num = 1
                for jj in range(l + 1):
                    num *= p[l][jj] - (jj + 1) - akl
                for jj in range(l - 1):
                    num *= p[l - 2][jj] - (jj + 1) - akl - 1
                num = -num
                den = 1
                for jj in range(l):
                    if jj == k:
                        continue
                    ajl = row[jj] - (jj + 1)
                    den *= (ajl - akl) * (ajl - akl - 1)
                assert den != 0 and num >= 0, (p, k, num, den)
                rows_i.append(j)
                cols_i.append(i)
                vals.append(sqrt(num / den))
                up[i] = j
        images[(l, l + 1)] = sp.csr_matrix(
            (np.asarray(vals, dtype=np.complex128), (rows_i, cols_i)), shape=(dim, dim)
        )
        images[(l + 1, l)] = images[(l, l + 1)].conj().T.tocsr()

    basis = GTBasis(
        weight=weight,
        patterns=tuple(patterns),
        generator_images=images,
        shift=shift,
        pattern_weights=pw,
        real_structure=(
            _real_structure(patterns, index, up, images)
            if frobenius_schur(weight) == 1 else None
        ),
    )
    _fill_nonsimple(basis)
    return basis


def _real_structure(patterns: list, index: dict, up: list, images: dict) -> tuple:
    """(perm, sign) of the real structure J of a self-conjugate irrep.

    conj(pi(U)) = J pi(U) J^T holds iff J E_ab J^T = -E_ba on the generators
    (up to a multiple of the identity on the Cartan elements, which the
    traceless logarithm in irrep_matrix cancels).  Reflecting every row
    r -> c - reversed(r), c the top entry of the shifted signature, sends each
    pattern to the one of negated weight, so J permutes the GT basis up to
    signs.  Every GT amplitude is positive, so J E J^T = -E^T flips the sign
    along each simple raising edge; a pattern raises only to an earlier one
    (raising increases the sort key), so one ascending sweep from sign[0] = 1
    fixes every sign.  The result is checked on every edge.
    """
    c = patterns[0][-1][0]
    perm = np.array(
        [index[tuple(tuple(c - x for x in reversed(r)) for r in p)] for p in patterns],
        dtype=np.intp,
    )
    sign = [1.0] * len(patterns)
    for i in range(1, len(patterns)):
        sign[i] = -sign[up[i]]
    sign = np.asarray(sign)
    _check_real_structure(images, perm, sign)
    return perm, sign


def _check_real_structure(images: dict, perm: np.ndarray, sign: np.ndarray) -> None:
    """Raise unless J = (perm, sign) is a symmetric involution with
    J E J^T = -E^T for every simple raising operator E."""
    n = len(perm)
    if not (np.array_equal(perm[perm], np.arange(n)) and np.array_equal(sign[perm], sign)):
        raise AssertionError("real structure is not a symmetric involution")
    J = sp.csr_matrix((sign, (perm, np.arange(n))), shape=(n, n))
    for (a, b), E in images.items():
        if b != a + 1:
            continue
        err = abs(J @ E @ J.T + E.T).max()
        if not err <= 1e-12 * max(1.0, abs(E).max()):
            raise AssertionError(f"real structure fails on E_{a}{b} by {err:.3e}")


def _fill_nonsimple(basis: GTBasis) -> None:
    """Derive E_ab for |a-b| > 1 from nested commutators; store all pairs."""
    d = basis.d
    full = basis._full_images
    full.update(basis.generator_images)
    for span in range(2, d):
        for a in range(1, d - span + 1):
            b = a + span
            e_ab = full[(a, b - 1)] @ full[(b - 1, b)] - full[(b - 1, b)] @ full[(a, b - 1)]
            full[(a, b)] = e_ab.tocsr()
            full[(b, a)] = e_ab.conj().T.tocsr()


_CACHE: dict = {}
_CACHE_LOCK = threading.Lock()


def cached_basis(weight: Weight) -> GTBasis:
    """Thread-safe basis cache: lock-free reads, single-writer insertion."""
    key = weight.entries
    basis = _CACHE.get(key)
    if basis is not None:
        return basis
    built = build_basis(weight)
    with _CACHE_LOCK:
        return _CACHE.setdefault(key, built)


def algebra_image(basis: GTBasis, X: np.ndarray) -> np.ndarray:
    """d(pi)(X) for an arbitrary gl(d) element X, as a dense matrix."""
    d = basis.d
    X = np.asarray(X, dtype=np.complex128)
    if X.shape != (d, d):
        raise DomainError(f"algebra element must be {d}x{d}, got {X.shape}")
    acc = None
    for (a, b), mat in basis._full_images.items():
        coeff = X[a - 1, b - 1]
        if coeff == 0:
            continue
        term = mat.multiply(coeff)
        acc = term if acc is None else acc + term
    if acc is None:
        return np.zeros((basis.dim, basis.dim), dtype=np.complex128)
    return np.asarray(acc.todense())


@dataclass(frozen=True)
class JyFrame:
    """Eigenvectors of Jy for one d = 2 weight, shared by the images of its gates.

    In the GT basis Jy is tridiagonal with zero diagonal, and T = D^dagger Jy D
    with D = diag(i^r) is real symmetric.  exp(-i beta Jy) = D exp(-i beta T)
    D^dagger is real (the Wigner d^j(beta)), so its entries with r - c even
    are those of cos(beta T) and those with r - c odd those of sin(beta T),
    times i^(r-c) or -i^(r-c+1): s_r s_c with s_r = (-1)^floor(r/2), negated
    where r is even and c odd.  T anticommutes with diag((-1)^r), so the
    eigenvector of -mu is that of mu with its odd rows negated, and both
    parts come from the eigenvectors of mu = 0 .. j alone: with S those
    scaled by s, the even-even and odd-odd entries are S_e diag(w) S_e^T and
    S_o diag(w) S_o^T, w = 2 cos(beta mu) (1 at mu = 0), and the even-odd
    ones S_e diag(2 sin(beta mu)) S_o^T.  even and odd hold about n^2 / 2
    entries together, so a frame is built per use and never cached.
    """

    m: np.ndarray  # Jz eigenvalue of each GT vector, (pw_1 - pw_2) / 2
    even: np.ndarray = field(repr=False)  # S_e: even rows of S, ((n + 1) / 2, j + 1)
    odd: np.ndarray = field(repr=False)  # S_o: odd rows of S, ((n - 1) / 2, j + 1)
    mu: np.ndarray = field(repr=False)  # 0 .. j


def jy_frame(basis: GTBasis) -> JyFrame:
    """The JyFrame of a d = 2 basis, by a tridiagonal eigensolve.

    The off-diagonal of T is half the simple raising amplitudes, read off the
    GT raising operator.  Its spectrum is exactly -j .. j; the computed one is
    checked against that and replaced by it.
    """
    if basis.d != 2:
        raise DomainError(f"a Jy frame needs d = 2, got d = {basis.d}")
    n = basis.dim
    E = basis.generator_images[(1, 2)]
    if E.nnz != n - 1:
        raise AssertionError(f"raising operator has {E.nnz} entries, not {n - 1}")
    # divide and conquer: at n = 1019 its Q is orthogonal to 4e-15, the
    # default MRRR driver's to 8e-13, for about 1.2x the time
    mu, Q = scipy.linalg.eigh_tridiagonal(
        np.zeros(n), 0.5 * E.diagonal(1).real, lapack_driver="stevd"
    )
    j = (n - 1) // 2
    err = float(np.abs(mu - np.arange(-j, j + 1)).max())
    if not err <= 1e-9 * n:
        raise AssertionError(f"Jy spectrum is off -j..j by {err:.3e}")
    S = Q[:, j:] * (1 - (np.arange(n) & 2))[:, None]
    pw = basis.pattern_weights
    return JyFrame(
        m=(pw[:, 0] - pw[:, 1]) / 2,
        even=np.ascontiguousarray(S[0::2]),
        odd=np.ascontiguousarray(S[1::2]),
        mu=np.arange(j + 1.0),
    )


def irrep_matrix(basis: GTBasis, U: np.ndarray, frame: JyFrame | None = None) -> np.ndarray:
    """pi_lambda(U) in the GT basis; unitary to ~1e-12, phase-convention
    independent to ~1e-10.

    At d = 2 the image comes from the Euler angles of U on a JyFrame: `frame`
    if given (it must be jy_frame(basis)), otherwise one built for this call.
    At d >= 3 `frame` must be None, and U is eigendecomposed by a complex
    Schur factorization (exactly unitary eigenvectors even for degenerate
    spectra), its eigenphases centered to the traceless logarithm X0, and
    exp(d(pi)(X0)) evaluated by a Hermitian eigensolve of -i d(pi)(X0).
    """
    U = np.asarray(U, dtype=np.complex128)
    if U.shape != (basis.d, basis.d):
        raise DomainError(f"gate must be {basis.d}x{basis.d}, got shape {U.shape}")
    check_unitary(U, "gate")
    if basis.d == 2:
        if frame is None:
            frame = jy_frame(basis)
        elif frame.m.size != basis.dim:
            raise DomainError(f"frame of dimension {frame.m.size} for a basis of {basis.dim}")
        return _euler_image(frame, U)
    if frame is not None:
        raise DomainError(f"a Jy frame applies to d = 2 only, got d = {basis.d}")
    if basis.dim == 1:
        return np.ones((1, 1), dtype=np.complex128)
    return _exp_image(basis, U)


def _euler_image(frame: JyFrame, U: np.ndarray) -> np.ndarray:
    """diag(e^{-i alpha m}) d^j(beta) diag(e^{-i gamma m}) for the ZYZ Euler
    angles of V = U / sqrt(det U) in SU(2): V = Rz(alpha) Ry(beta) Rz(gamma),
    Rz(phi) = diag(e^{-i phi/2}, e^{i phi/2}).  The sign of the square root
    only flips the sign of V, which integer spin cannot see.  At beta = 0 or
    pi one of the arguments below is that of 0, and only alpha + gamma
    (respectively alpha - gamma) matters, which the formulas still get right.
    """
    V = U / np.sqrt(np.linalg.det(U))
    beta = 2.0 * np.arctan2(abs(V[1, 0]), abs(V[1, 1]))
    a11, a10 = np.angle(V[1, 1]), np.angle(V[1, 0])
    x = beta * frame.mu
    w = 2.0 * np.cos(x)
    w[0] = 1.0
    Se, So = frame.even, frame.odd
    n = frame.m.size
    d = np.empty((n, n))
    d[0::2, 0::2] = (Se * w) @ Se.T
    d[1::2, 1::2] = (So * w) @ So.T
    X = (Se * (2.0 * np.sin(x))) @ So.T
    d[1::2, 0::2] = X.T
    np.negative(X, out=d[0::2, 1::2])
    P = np.exp(-1j * (a11 + a10) * frame.m)[:, None] * d
    P *= np.exp(-1j * (a11 - a10) * frame.m)
    return P


def _exp_image(basis: GTBasis, U: np.ndarray) -> np.ndarray:
    """The eigendecomposition path of irrep_matrix, for a checked gate U; at
    d = 2 the independent reference for _euler_image."""
    T, Z = _schur_unitary(U)
    theta = np.angle(T)
    theta = theta - theta.mean()
    X0 = (Z * (1j * theta)) @ Z.conj().T

    H = -1j * algebra_image(basis, X0)
    H = 0.5 * (H + H.conj().T)
    w, W = np.linalg.eigh(H)
    return (W * np.exp(1j * w)) @ W.conj().T


def _schur_unitary(U: np.ndarray):
    """Eigenvalues and exactly-unitary eigenvectors of a unitary matrix."""
    T, Z = scipy.linalg.schur(U, output="complex")
    diag = np.diag(T)
    # normal + triangular => diagonal; anything off-diagonal is roundoff
    resid = np.abs(T - np.diag(diag)).max()
    if not resid < 1e-8:
        raise AssertionError(f"Schur factor of a unitary is not diagonal: {resid:.3e}")
    return diag / np.abs(diag), Z


def weyl_character(weight: Weight, phases) -> complex:
    """Character of the irrep at a group element with the given eigenphases.

    Ratio of alternants det(x_i^{lambda_j + d - j}) / det(x_i^{d - j}) with
    x_i = exp(i phi_i).  Near-coincident phases (circular gap < 1e-8) make the
    ratio 0/0; we then warn and fall back to averaging two symmetrically
    perturbed evaluations, which is accurate to O(h^2) with h = 1e-5.
    """
    lam = weight.entries
    d = weight.d
    phases = np.asarray(phases, dtype=np.float64)
    if phases.shape != (d,):
        raise DomainError(f"need {d} phases, got shape {phases.shape}")

    x = np.exp(1j * phases)
    dists = [abs(x[i] - x[j]) for i in range(d) for j in range(i + 1, d)]
    if min(dists) >= 1e-8:
        return _alternant_ratio(lam, phases)

    warnings.warn(
        f"near-coincident eigenphases (gap {min(dists):.2e}); using perturbed evaluation",
        stacklevel=2,
    )
    if max(dists) < 1e-8:
        # fully degenerate torus element: chi = dim * exp(i |lambda| phi) = dim
        return complex(weyl_dimension(weight))
    # step size balances the h^2 truncation error against roundoff in the
    # alternant, whose denominator shrinks like h^(#clustered pairs)
    p = sum(1 for dd in dists if dd < 1e-3)
    h = (2.3e-16) ** (1.0 / (p + 2))
    ramp = np.arange(d, dtype=np.float64)
    ramp -= ramp.mean()
    plus = _alternant_ratio(lam, phases + h * ramp)
    minus = _alternant_ratio(lam, phases - h * ramp)
    return 0.5 * (plus + minus)


def _alternant_ratio(lam, phases) -> complex:
    d = len(lam)
    expo_num = np.array([lam[j] + d - 1 - j for j in range(d)], dtype=np.float64)
    expo_den = np.arange(d - 1, -1, -1, dtype=np.float64)
    num = np.linalg.det(np.exp(1j * np.outer(phases, expo_num)))
    den = np.linalg.det(np.exp(1j * np.outer(phases, expo_den)))
    return complex(num / den)
