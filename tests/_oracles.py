"""Independent oracles and test-only helpers that the tests compare the
library against.

check_generator_relations verifies the gl(d) commutation relations of a GT
basis's generator images; frobenius_schur_montecarlo estimates the
Frobenius-Schur indicator from characters of Haar samples.  build_block_operator
holds every averaging block at one scale, and convergence_profile powers them;
b_coefficient is the per-irrep mixing coefficient of the diameter estimate,
and gap_bound_from_b sums those coefficients into a gap bound.  subset_squares
builds one removal subset of the squared set, the reference for the one-pass
subset table of g_t0.  algebra_image is d(pi) of a gl(d) element as a dense
matrix, and exp_image the image of a gate by the eigendecomposition of its
logarithm's image, the reference for irrep_matrix at every d.
spectral_norm is the largest singular value of a block, Hermitian or not, and
squared_blocks_gap the gap of the convolution square from explicit B^dagger B
products.  lps_exact_norms gives the block norms of the
Lubotzky-Phillips-Sarnak V-gates at small j in exact arithmetic.
brute_force_scan and brute_force_net are empirical_net's scan without the
trace-bound prune: an eigensolve for every (word, target) pair, over whole
BFS levels that extend_level builds in one piece.
weyl_character is the character of an irrep from the eigenphases of a group
element, by the Weyl character formula.  pu_distance is the projective
distance between two unitaries, from the eigenphases of g^dagger h.
basis_arrays gives the patterns, pattern weights, amplitudes and real
structure that build_basis makes and drops, from the builder's own
functions, and generator_images every E_ab of a basis as a sparse matrix,
rebuilt from them.  reference_basis is the tuple-based GT construction, pattern
by pattern, that the array builder of gapforge.irrep must reproduce bit for
bit, and reference_shape_generators its shape images.  to_real_form takes a
complex image to the real basis C with C^T C = J by the O(n^2) index map of
C's rows, the reference for irrep_matrix(real=True).
copy_certificate is the norm certificate on a work copy of the block, both
signs from its lower triangle, the reference for
gapforge.lapack.certify_norm_below, which works in the block's own storage.
"""

import functools
import math
import warnings
from dataclasses import dataclass
from math import sqrt

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from gapforge.avgop import averaging_block
from gapforge.constants import C_CHORD
from gapforge.errors import DomainError
from gapforge.gates import (
    GateSet,
    NetEstimate,
    _BATCH,
    _haar_unitary,
    _projective_distance,
    check_unitary,
    squared_set,
)
from gapforge.lapack import _ETA, _U, _finite, _potrf
from gapforge.irrep import (
    GTBasis,
    JyFrame,
    _amplitudes,
    _pattern_weights,
    _patterns,
    _real_fold,
    _real_form_map,
    _real_structure,
    _probe,
    _rotation_block,
    _schur_unitary,
)
from gapforge.weightlat import (
    Weight,
    check_scale,
    enumerate_nontrivial_weights,
    frobenius_schur,
    weyl_dimension,
)


def basis_arrays(weight: Weight) -> dict:
    """What build_basis(weight) builds from and drops, by the builder's own
    functions: the shift -lambda_d, the patterns, their pattern weights in
    the sum-zero normalization, the amplitudes of each E_{l,l+1} and the
    real structure (None unless the weight is self-conjugate)."""
    shift = -weight.entries[-1]
    sig = tuple(x + shift for x in weight.entries)
    P = _patterns(sig)
    amplitudes = _amplitudes(P, sig)
    real = _real_structure(P, sig, amplitudes) if frobenius_schur(weight) == 1 else None
    return {"shift": shift, "patterns": P, "pattern_weights": _pattern_weights(P, sig) - shift,
            "amplitudes": amplitudes, "real_structure": real}


def generator_images(basis: GTBasis) -> dict:
    """{(a, b): E_ab} of a basis as sparse matrices, from its basis_arrays:
    the Cartan elements diagonal in the shifted pattern weights, the simple
    pairs from the amplitudes, E_ab for |a - b| > 1 from nested commutators."""
    n, d = basis.dim, basis.d
    arrays = basis_arrays(basis.weight)
    shifted = arrays["pattern_weights"] + arrays["shift"]
    full = {(a, a): sp.diags(shifted[:, a - 1].astype(np.float64), format="csr",
                             dtype=np.complex128) for a in range(1, d + 1)}
    for l, (rows, cols, vals) in enumerate(arrays["amplitudes"], 1):
        full[(l, l + 1)] = sp.csr_matrix((vals.astype(np.complex128), (rows, cols)), shape=(n, n))
        full[(l + 1, l)] = full[(l, l + 1)].conj().T.tocsr()
    for span in range(2, d):
        for a in range(1, d - span + 1):
            b = a + span
            e_ab = full[(a, b - 1)] @ full[(b - 1, b)] - full[(b - 1, b)] @ full[(a, b - 1)]
            full[(a, b)] = e_ab.tocsr()
            full[(b, a)] = e_ab.conj().T.tocsr()
    return full


def check_generator_relations(basis: GTBasis, tol: float = 1e-10) -> float:
    """Max violation of [E_ab, E_cd] = delta_bc E_ad - delta_da E_cb over all
    generator pairs; raises AssertionError above tol.  Returns the residual."""
    full = generator_images(basis)
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
        worst = max(spectral_norm(P) for P in powers.values())
        profile.append(float(worst))
        for w in powers:
            powers[w] = powers[w] @ op.blocks[w]
    return profile


def b_coefficient(weight: Weight, eps: float, ell: float) -> float:
    """Per-irrep mixing coefficient (sqrt(2 (1 - i/d)) - C ||lambda||_1 eps) / ell,
    i the Frobenius-Schur indicator and d the dimension of weight's irrep."""
    one_norm = weight.one_norm
    if one_norm <= 0:
        raise DomainError("b_coefficient needs a nontrivial weight")
    top = math.sqrt(2.0 * (1.0 - frobenius_schur(weight) / weyl_dimension(weight)))
    cap = top / (C_CHORD * one_norm)
    if not (0.0 < eps < 1.0 and eps <= cap):
        raise DomainError(
            f"eps must satisfy 0 < eps <= {cap:.6g} (and < 1), got {eps}"
        )
    if ell <= 0:
        raise DomainError(f"ell must be positive, got {ell}")
    return (top - C_CHORD * one_norm * eps) / ell


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


def algebra_image(basis: GTBasis, X: np.ndarray) -> np.ndarray:
    """d(pi)(X) for an arbitrary gl(d) element X, as a dense matrix."""
    d = basis.d
    X = np.asarray(X, dtype=np.complex128)
    if X.shape != (d, d):
        raise DomainError(f"algebra element must be {d}x{d}, got {X.shape}")
    acc = None
    for (a, b), mat in generator_images(basis).items():
        coeff = X[a - 1, b - 1]
        if coeff == 0:
            continue
        term = mat.multiply(coeff)
        acc = term if acc is None else acc + term
    if acc is None:
        return np.zeros((basis.dim, basis.dim), dtype=np.complex128)
    return np.asarray(acc.todense())


def exp_image(basis: GTBasis, U: np.ndarray) -> np.ndarray:
    """pi(U) by the eigendecomposition of U, the independent reference for
    irrep_matrix at every d: U's eigenphases centered to the traceless
    logarithm X0 (exactly unitary eigenvectors from a complex Schur form,
    even for degenerate spectra), and exp(d(pi)(X0)) by a Hermitian
    eigensolve of -i d(pi)(X0)."""
    T, Z = _schur_unitary(U)
    theta = np.angle(T)
    theta = theta - theta.mean()
    X0 = (Z * (1j * theta)) @ Z.conj().T

    H = -1j * algebra_image(basis, X0)
    H = 0.5 * (H + H.conj().T)
    w, W = np.linalg.eigh(H)
    return (W * np.exp(1j * w)) @ W.conj().T


def to_real_form(form: tuple, P: np.ndarray) -> np.ndarray:
    """Re(C P C^dagger) for C = (u, v, alpha, beta) from irrep._real_form_map,
    in O(n^2); P is overwritten.

    conj(P) = J P J^T makes C P C^dagger real; the discarded imaginary part
    is checked to be roundoff.  C's rows mix the rows of P pair by pair, so
    Y = C P is folded in place, a slab of pairs at a time; the columns of
    Y C^dagger go a slab at a time into the real result.
    """
    u, v, alpha, beta = form
    lead = np.flatnonzero(u == np.arange(len(u)))  # each u once, ascending
    step = max(1, (1 << 15) // len(P))
    for i in range(0, lead.size, step):
        first = lead[i : i + step]
        X, Z = P[first], P[v[first]]  # rows closed under the pairing
        for k in (first, v[first]):
            Y = X * alpha[k, None]
            Y += Z * beta[k, None]
            P[k] = Y
    H = np.empty(P.shape)
    for i in range(0, len(P), step):
        cols = slice(i, i + step)
        Y = P[:, u[cols]]
        Y *= alpha[cols].conj()
        T = P[:, v[cols]]
        T *= beta[cols].conj()
        Y += T
        imag = float(np.abs(Y.imag).max())
        if not imag <= 1e-10:
            raise AssertionError(f"real form keeps an imaginary part {imag:.3e} > 1e-10")
        H[:, cols] = Y.real
    return H


def spectral_norm(A: np.ndarray) -> float:
    """Largest singular value of A by a dense SVD."""
    return float(scipy.linalg.svdvals(A)[0])


def squared_blocks_gap(gs, t: int) -> float:
    """Gap of the convolution square at scale t: 1 - max ||B^dagger B|| over
    the explicit products of build_block_operator's blocks."""
    blocks = build_block_operator(gs, t).blocks.values()
    return 1.0 - max(spectral_norm(B.conj().T @ B) for B in blocks)


def lps_exact_norms(jmax: int) -> dict:
    """{j: the largest |eigenvalue| of the LPS V-gates' averaging block} for
    j = 1 .. jmax, in exact arithmetic (sympy, imported only by this call).

    The six gates (I +- 2i sigma_a) / sqrt5 act on the homogeneous
    polynomials of degree 2j in (x, y) by p(v) -> p(G^T v); in the monomial
    basis x^(2j-m) y^m this is similar to pi_j.  Dropping the 1/sqrt5 scales
    the image by 5^j, so each block is 1/(6 5^j) times a Gaussian-integer
    matrix.  Its characteristic polynomial is factored over Q; a linear
    factor gives an exact rational root, any other factor its real roots to
    50 digits (mpmath, through sympy's nroots)."""
    import sympy
    from sympy.polys.domains import QQ, QQ_I
    from sympy.polys.matrices import DomainMatrix

    x, y, lam = sympy.symbols("x y lam")
    i = sympy.I
    sigma = ([[0, 1], [1, 0]], [[0, -i], [i, 0]], [[1, 0], [0, -1]])
    gates = [[[int(r == c) + sign * 2 * i * s[r][c] for c in range(2)] for r in range(2)]
             for s in sigma for sign in (1, -1)]
    out = {}
    for j in range(1, jmax + 1):
        n = 2 * j + 1
        total = [[QQ_I.zero] * n for _ in range(n)]
        for (a, b), (c, d) in gates:
            X = sympy.Poly(a * x + c * y, x, y, domain=QQ_I)
            Y = sympy.Poly(b * x + d * y, x, y, domain=QQ_I)
            for m in range(n):
                for (_, ey), coef in (X ** (n - 1 - m) * Y ** m).terms():
                    total[ey][m] += coef
        block = DomainMatrix(total, (n, n), QQ_I) * QQ_I.convert(sympy.Rational(1, 6 * 5**j))
        coeffs = block.charpoly()
        # similar to a Hermitian block: the characteristic polynomial is real
        assert all(c.y == 0 for c in coeffs)
        charpoly = sympy.Poly([QQ.to_sympy(c.x) for c in coeffs], lam)
        roots = []
        for factor, _ in charpoly.factor_list()[1]:
            if factor.degree() == 1:
                roots.append(-factor.nth(0) / factor.nth(1))
            else:
                roots += factor.nroots(n=50, maxsteps=200)
        out[j] = max(abs(r) for r in roots)
    return out


def brute_force_scan(words, targets, best) -> None:
    """best[s] = min(best[s], min_w D(w, target_s)), every pair eigensolved."""
    for s in range(targets.shape[0]):
        M = np.einsum("nba,bc->nac", words.conj(), targets[s])
        dist = _projective_distance(np.angle(np.linalg.eigvals(M)))
        best[s] = np.minimum(best[s], dist.min())


def extend_level(level_mats, level_last, mats, k):
    """The next BFS level in one piece: every non-backtracking letter
    appended to every word of the level, letter by letter."""
    n_letters = mats.shape[0]
    out_mats = []
    out_last = []
    for letter in range(n_letters):
        keep = level_last != (letter + k) % n_letters
        prod = np.einsum("nab,bc->nac", level_mats[keep], mats[letter])
        out_mats.append(prod)
        out_last.append(np.full(prod.shape[0], letter))
    return np.concatenate(out_mats), np.concatenate(out_last)


def brute_force_net(gs: GateSet, length: int, eps: float, samples: int,
                    seed: int = 0) -> NetEstimate:
    """empirical_net for samples >= 1 by brute_force_scan over each level."""
    mem = gs.symmetrized().members()
    mats = np.stack([U for _, U in mem])
    rng = np.random.default_rng(seed)
    targets = np.stack([_haar_unitary(gs.d, rng) for _ in range(samples)])
    best = np.full(samples, np.inf)
    level_mats = np.eye(gs.d, dtype=np.complex128)[None, :, :]
    level_last = np.array([-1])
    brute_force_scan(level_mats, targets, best)
    for _ in range(length):
        level_mats, level_last = extend_level(level_mats, level_last, mats, gs.k)
        for lo in range(0, level_mats.shape[0], _BATCH):
            brute_force_scan(level_mats[lo : lo + _BATCH], targets, best)
    return NetEstimate(
        length=length,
        eps=float(eps),
        samples=samples,
        covered_fraction=float(np.mean(best <= eps)),
        max_observed_distance=float(best.max()),
    )


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


def pu_distance(g: np.ndarray, h: np.ndarray) -> float:
    """Projective distance between two unitaries."""
    g = np.asarray(g, dtype=np.complex128)
    h = np.asarray(h, dtype=np.complex128)
    if g.shape != h.shape or g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise DomainError(f"need equal square matrices, got {g.shape} and {h.shape}")
    for M in (g, h):
        check_unitary(M, "pu_distance argument")
    psi = np.angle(np.linalg.eigvals(g.conj().T @ h))
    return float(_projective_distance(psi))


def _enumerate_patterns(sig: tuple) -> list:
    """All GT patterns with top row sig, as tuples of rows (rows[l-1] of
    length l), descending lex on (row_{d-1},...,row_1)."""
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
                assert not prefix or v <= prefix[-1]
                rec(prefix + [v], i + 1)

        rec([], 0)

    descend([tuple(sig)])
    return patterns


def _pattern_weight(pattern: tuple, d: int) -> tuple:
    rs = [sum(pattern[l]) for l in range(d)]
    return tuple(rs[0:1] + [rs[l] - rs[l - 1] for l in range(1, d)])


def _raising(patterns: list, index: dict, l: int) -> tuple:
    """(rows, cols, vals) of the simple raising operator E_{l,l+1} on the GT
    patterns (index: pattern -> position), column by column, in exact
    integer arithmetic up to the one square root."""
    rows_i, cols_i, vals = [], [], []
    for i, p in enumerate(patterns):
        row = p[l - 1]
        for k in range(l):
            bumped = row[:k] + (row[k] + 1,) + row[k + 1 :]
            j = index.get(p[: l - 1] + (bumped,) + p[l:])
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
                if jj != k:
                    ajl = row[jj] - (jj + 1)
                    den *= (ajl - akl) * (ajl - akl - 1)
            assert den != 0 and num >= 0, (p, k, num, den)
            rows_i.append(j)
            cols_i.append(i)
            vals.append(sqrt(num / den))
    return rows_i, cols_i, vals


def _flat(pattern: tuple) -> list:
    """A tuple pattern in the layout of irrep._patterns: rows d-1 .. 1."""
    return [x for row in reversed(pattern[:-1]) for x in row]


@functools.lru_cache(maxsize=None)
def reference_shape_generators(shape: tuple) -> tuple:
    """(G, weights) of irrep._shape_generators, from the tuple construction."""
    q = len(shape)
    patterns = _enumerate_patterns(shape)
    index = {p: i for i, p in enumerate(patterns)}
    b = len(patterns)
    weights = np.array([_pattern_weight(p, q) for p in patterns], dtype=np.int64)
    G = np.zeros((q, q, b, b))
    for a in range(q):
        np.fill_diagonal(G[a, a], weights[:, a])
    for l in range(1, q):
        rows_i, cols_i, vals = _raising(patterns, index, l)
        G[l - 1, l, rows_i, cols_i] = vals
        G[l, l - 1] = G[l - 1, l].T
    for span in range(2, q):
        for a in range(q - span):
            c = a + span
            G[a, c] = G[a, c - 1] @ G[c - 1, c] - G[c - 1, c] @ G[a, c - 1]
            G[c, a] = G[a, c].T
    return G.reshape(q * q, b, b), weights


def reference_basis(weight: Weight) -> dict:
    """The fields of build_basis(weight) and its basis_arrays but the shift,
    by pattern: patterns enumerated recursively as tuples and looked up in a
    dict, amplitudes pattern by pattern in Python integers, the real
    structure's signs by a sweep along raising edges, the Jy sets, the spans
    and the J-partner spans of the real basis grouped pattern by pattern.  At
    d >= 3 the frame is solved from the Jy sets by irrep._rotation_block,
    one call per set on its raw arguments (idx, rows, cols, vals, m, p).  At
    d = 2 it also gives what jy_frame derives per pass: the couplings
    T[r, r+1], m, the chain's arguments to _rotation_block (jy_blocks) and
    the real fold."""
    d = weight.d
    shift = -weight.entries[-1]
    sig = tuple(x + shift for x in weight.entries)
    patterns = _enumerate_patterns(sig)
    n = len(patterns)
    index = {p: i for i, p in enumerate(patterns)}
    pw = np.array([_pattern_weight(p, d) for p in patterns], dtype=np.int64) - shift
    amplitudes, up = [], [0] * n
    for l in range(1, d):
        rows_i, cols_i, vals = _raising(patterns, index, l)
        for j, i in zip(rows_i, cols_i):
            up[i] = j
        amplitudes.append((np.asarray(rows_i, dtype=np.intp), np.asarray(cols_i, dtype=np.intp),
                           np.asarray(vals, dtype=np.float64)))
    real = None
    if frobenius_schur(weight) == 1:
        c = sig[0]
        perm = np.array(
            [index[tuple(tuple(c - x for x in reversed(r)) for r in p)] for p in patterns],
            dtype=np.intp)
        sign = [1.0] * n
        for i in range(1, n):
            sign[i] = -sign[up[i]]
        real = perm, np.asarray(sign)
    m = (pw[:, d - 2] - pw[:, d - 1]) / 2
    real_basis = None

    p = pw[:, d - 1] - pw[:, d - 1].min()
    sets: dict = {}
    for i, pattern in enumerate(patterns):
        sets.setdefault(pattern[: d - 2], []).append(i)
    sets = [np.asarray(idx) for idx in sets.values()]
    which, loc = np.empty(n, dtype=np.intp), np.empty(n, dtype=np.intp)
    for k, idx in enumerate(sets):
        which[idx], loc[idx] = k, np.arange(idx.size)
    rows_i, cols_i, vals = amplitudes[-1]
    E = sp.csr_matrix((vals.astype(np.complex128), (rows_i, cols_i)), shape=(n, n)).tocoo()
    order = np.argsort(which[E.row], kind="stable")
    cuts = np.searchsorted(which[E.row[order]], np.arange(len(sets) + 1))
    jy_blocks = []
    for k, idx in enumerate(sets):
        at = order[cuts[k] : cuts[k + 1]]
        jy_blocks.append((idx, loc[E.row[at]], loc[E.col[at]], 0.5 * E.data[at].real, m, p))

    spans, shapes, shape_of = None, (), ()
    if d == 2:  # one set, E's entries row by row: T[r, r+1]
        assert E.row.tolist() == list(range(n - 1)) and E.col.tolist() == list(range(1, n))
    else:
        rows = [pattern[d - 2] for pattern in patterns]
        starts = [i for i in range(n) if i == 0 or rows[i] != rows[i - 1]]
        spans = list(zip(starts, starts[1:] + [n]))
        first_use, shape_of = {}, []
        for s, _ in spans:
            shape = tuple(x - rows[s][-1] for x in rows[s])
            shape_of.append((first_use.setdefault(shape, len(first_use)),
                             rows[s][-1] - shift, int(pw[s, d - 1])))
        shapes = tuple((shape, reference_shape_generators(shape)[0]) for shape in first_use)
        if real is not None:
            real_basis = _reference_real_pairs(real, spans)
        spans = np.array(spans, dtype=np.intp)
        shape_of = np.array(shape_of, dtype=np.int64)
    frame = None
    if d > 2:
        frame = JyFrame(weight, tuple(_rotation_block(*block) for block in jy_blocks))
    fields = {
        "patterns": np.array([_flat(p) for p in patterns], dtype=np.int64),
        "pattern_weights": pw,
        "amplitudes": tuple(amplitudes),
        "real_structure": real,
        "real_basis": real_basis,
        "frame": frame,
        "spans": spans,
        "shapes": shapes,
        "shape_of": shape_of,
    }
    if d == 2:
        fields.update(couplings=0.5 * E.data.real, m=m, jy_blocks=tuple(jy_blocks),
                      fold=_real_fold(n))
    return fields


def _reference_real_pairs(real: tuple, spans: list) -> tuple:
    """GTBasis.real_basis at d >= 3, span by span: each span with the span
    that holds the reflection of its first pattern, and C (the rows of
    irrep._real_form_map) on their GT indices, entry by entry."""
    perm = real[0]
    u, v, alpha, beta = _real_form_map(*real)
    span_of = {i: k for k, (s, e) in enumerate(spans) for i in range(s, e)}
    pairs = []
    for k, (s, _) in enumerate(spans):
        q = span_of[int(perm[s])]
        if q < k:
            continue
        parts = (k,) if q == k else (k, q)
        idx = [i for part in parts for i in range(*spans[part])]
        pos = {g: a for a, g in enumerate(idx)}
        C = np.zeros((len(idx), len(idx)), dtype=np.complex128)
        for a, g in enumerate(idx):
            assert span_of[int(perm[g])] in parts
            C[a, pos[int(u[g])]] = alpha[g]
            C[a, pos[int(v[g])]] += beta[g]
        at = np.flatnonzero(C)
        pairs.append((np.array(idx, dtype=np.intp), parts, at, C.ravel()[at]))
    return tuple(pairs), _probe(len(perm))


def copy_certificate(B: np.ndarray, theta: float) -> bool:
    """True only if ||B||_2 < theta is proved for the Hermitian B read from its
    lower triangle: theta I - B and theta I + B, shifted down as
    certify_norm_below shifts them, both pass dpotrf or zpotrf in one
    row-major work array, one sign at a time.  B is not modified."""
    B = np.asarray(B)
    n = B.shape[0]
    if B.shape != (n, n):
        raise ValueError(f"expected a square matrix, got shape {B.shape}")
    _finite(B)
    cplx = np.iscomplexobj(B)
    m = 2 * n + 4 if cplx else n + 1
    W = theta + float(np.abs(np.diagonal(B).real).max(initial=0.0))
    s = 2.0 * (m * n + 1) * _U * W + 4.0 * n * (2.0 * m + W) * _ETA
    if not 0.0 < s < theta:
        return False
    G = np.empty((n, n), dtype=np.complex128 if cplx else np.float64)
    diag = G.ravel()[:: n + 1]
    for sign in (-1.0, 1.0):
        np.multiply(B, sign, out=G)  # exact
        diag += theta - s
        if not _potrf(G):
            return False
    return True
