"""Gate sets in PU(d): I/O, sampling, distances, and empirical net checks.

A gate set is stored as k labelled special-unitary pairs; when the set is
symmetric the inverses are implied members, so |S| = 2k.  Determinants are
normalized away with the principal d-th root, which is harmless in PU(d).

The metric is the projective unitary distance
    D(g, h) = min_theta max_j 2 |sin((theta - psi_j) / 2)|,
psi_j the eigenphases of g^dagger h.  The inner minimax over the circle is
attained at the midpoint of the minimal covering arc of the eigenphases, so
D = 2 sin((2 pi - G) / 4) in closed form, G the largest circular gap.

empirical_net needs, per Haar target, only the nearest enumerated word, and
the trace bounds D from below without an eigensolve.  If the eigenphases of
M = W^dagger T lie in a minimal arc of half-width a centred at c, then
Re(e^{-ic} tr M) = sum_j cos(psi_j - c) >= d cos a, so with D = 2 sin(a / 2)
    D^2 = 2 - 2 cos a >= 2 - 2 |tr M| / d,
with equality at d = 2.  |tr(W^dagger T)| = |<vec W, vec T>|, so one complex
GEMM bounds a whole chunk of (word, target) pairs.  Each target first takes
the exact D of its smallest-bound word; only words whose squared bound is
within a rounding slack of the lowered best then get an exact D.  A pruned
word has a computed D above best, so the minimum runs over the same
floating-point values as an eigensolve of every pair, and is bit-identical.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, replace
from math import pi

import numpy as np

from .errors import DomainError, GateFileError, ResourceLimitError
from .weightlat import check_d

__all__ = [
    "GateSet",
    "NetEstimate",
    "make_gateset",
    "check_unitary",
    "load_gateset",
    "dump_gateset",
    "save_gateset",
    "haar_random_gateset",
    "squared_set",
    "empirical_net",
]

UNITARY_TOL = 1e-10  # gates must be unitary to this accuracy
REPAIR_TOL = 1e-6  # polar-decomposition repair window for file input
DET_SKIP_TOL = 1e-12  # skip det normalization when already special unitary

WORD_CAP = 10_000_000  # default cap on enumerated words in empirical nets
_BATCH = 65536  # (word, target) pairs per distance-scan chunk
# Squared-units slack of the trace-bound prune.  The computed bound and the
# computed D^2 each sit within about d^2 * 1e-16 of their exact values (a
# d^2-term dot product of unit-size entries; the eigenphases of a unitary,
# D <= 2), together under 1e-13 up to d = 30.  1e-9 leaves 1e4x headroom, so
# no word whose computed D could reach best is pruned.
_PRUNE_SLACK = 1e-9


@dataclass(frozen=True, eq=False)
class GateSet:
    """k labelled gates in SU(d); symmetric sets include implicit inverses."""

    d: int
    pairs: tuple  # ((label, matrix), ...), matrices read-only (d, d) complex
    symmetric: bool = True

    @property
    def k(self) -> int:
        return len(self.pairs)

    @property
    def size(self) -> int:
        # multiset size of S; {U, U^-1} counts two members even when U^2 = 1
        return 2 * self.k if self.symmetric else self.k

    def members(self):
        """(label, matrix) for every member of S, inverses included."""
        out = [(lab, U) for lab, U in self.pairs]
        if self.symmetric:
            out += [(lab + "^-1", U.conj().T) for lab, U in self.pairs]
        return out

    def labels(self) -> list:
        return [lab for lab, _ in self.pairs]

    def symmetrized(self) -> "GateSet":
        return self if self.symmetric else replace(self, symmetric=True)


def check_unitary(U: np.ndarray, what: str, error: type = DomainError,
                  tol: float = UNITARY_TOL) -> float:
    """||U^dagger U - I||_2 of a square matrix; raises `error` above tol."""
    err = float(np.linalg.norm(U.conj().T @ U - np.eye(U.shape[0]), 2))
    if err > tol:
        raise error(f"{what} is not unitary: ||U*U - I|| = {err:.3e} > {tol:g}")
    return err


def _normalize_gate(U: np.ndarray, d: int, label: str, repair: bool) -> np.ndarray:
    U = np.asarray(U, dtype=np.complex128)
    if U.shape != (d, d):
        raise GateFileError(f"gate {label!r}: expected shape ({d}, {d}), got {U.shape}")
    tol = REPAIR_TOL if repair else UNITARY_TOL
    if check_unitary(U, f"gate {label!r}", GateFileError, tol) > UNITARY_TOL:
        # inside the repair window: polar projection onto the unitary group
        W, _, Vh = np.linalg.svd(U)
        U = W @ Vh
    det = np.linalg.det(U)
    if abs(det - 1.0) > DET_SKIP_TOL:
        # principal d-th root keeps the projective class and the branch stable
        U = U * np.exp(-np.log(det) / d)
    U = np.ascontiguousarray(U)
    U.setflags(write=False)
    return U


def make_gateset(d, pairs, symmetric=True, repair=False) -> GateSet:
    """Validate and normalize raw (label, matrix) pairs into a GateSet."""
    check_d(d)
    if len(pairs) < 1:
        raise DomainError("gate set needs at least one gate")
    labels = [lab for lab, _ in pairs]
    if len(set(labels)) != len(labels):
        raise GateFileError(f"duplicate gate labels: {labels!r}")
    norm_pairs = tuple(
        (str(lab), _normalize_gate(U, d, str(lab), repair)) for lab, U in pairs
    )
    return GateSet(d=d, pairs=norm_pairs, symmetric=bool(symmetric))


@dataclass(frozen=True)
class NetEstimate:
    """Empirical covering report for words of length <= `length`."""

    length: int
    eps: float
    samples: int
    covered_fraction: float
    max_observed_distance: float


def dump_gateset(gs: GateSet) -> str:
    """The gate-file text of gs: indented JSON, sorted keys, repr floats."""
    doc = {
        "d": gs.d,
        "symmetric": gs.symmetric,
        "gates": [
            {
                "label": lab,
                "matrix": [[[float(z.real), float(z.imag)] for z in row] for row in U],
            }
            for lab, U in gs.pairs
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def save_gateset(gs: GateSet, path) -> None:
    with open(path, "w") as fh:
        fh.write(dump_gateset(gs))


def load_gateset(path, repair: bool = False) -> GateSet:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise GateFileError(f"cannot read gate file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise GateFileError(f"gate file {path} is not valid JSON: {exc}") from exc
    try:
        d = int(doc["d"])
        symmetric = bool(doc.get("symmetric", True))
        raw = []
        for g in doc["gates"]:
            mat = np.array(
                [[complex(re, im) for re, im in row] for row in g["matrix"]],
                dtype=np.complex128,
            )
            raw.append((g["label"], mat))
    except (KeyError, TypeError, ValueError) as exc:
        raise GateFileError(f"gate file {path} has malformed fields: {exc}") from exc
    return make_gateset(d, raw, symmetric=symmetric, repair=repair)


def _haar_unitary(d: int, rng) -> np.ndarray:
    """Haar-distributed U(d) sample (QR with phase correction)."""
    Z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    Q, R = np.linalg.qr(Z / np.sqrt(2.0))
    ph = np.diag(R) / np.abs(np.diag(R))
    return Q * ph


def haar_random_gateset(d: int, k: int, seed: int, symmetric: bool = True) -> GateSet:
    if k < 1:
        raise DomainError(f"need k >= 1 gates, got {k}")
    rng = np.random.default_rng(seed)
    pairs = [(f"g{i + 1}", _haar_unitary(d, rng)) for i in range(k)]
    return make_gateset(d, pairs, symmetric=symmetric)


def _projective_distance(psi: np.ndarray) -> np.ndarray:
    """D from eigenphases psi of g^dagger h along the last axis:
    2 sin((2 pi - G) / 4), G the largest circular gap between the phases."""
    psi = np.sort(np.mod(psi, 2.0 * pi), axis=-1)
    gaps = np.diff(psi, axis=-1)
    wrap = 2.0 * pi - (psi[..., -1] - psi[..., 0])
    G = np.maximum(gaps.max(axis=-1, initial=0.0), wrap)
    return 2.0 * np.sin(np.clip((2.0 * pi - G) / 4.0, 0.0, 0.5 * pi))


def squared_set(gs: GateSet) -> GateSet:
    """The set of squared gates {U_i^2} with inherited symmetry."""
    pairs = tuple((lab + "^2", _freeze(U @ U)) for lab, U in gs.pairs)
    return GateSet(d=gs.d, pairs=pairs, symmetric=gs.symmetric)


def _freeze(M: np.ndarray) -> np.ndarray:
    M = np.ascontiguousarray(M)
    M.setflags(write=False)
    return M


def _word_count(n_letters: int, length: int) -> int:
    """Words of length <= `length` with no immediate inverse backtracking."""
    total = 1
    level = 1
    for step in range(1, length + 1):
        level = n_letters * level if step == 1 else (n_letters - 1) * level
        total += level
    return total


def empirical_net(
    gs: GateSet,
    length: int,
    eps: float,
    samples: int,
    seed: int = 0,
    word_cap: int = WORD_CAP,
) -> NetEstimate:
    """Covering check: fraction of Haar samples within eps of a word of
    length <= `length` over the symmetric set.

    Words are enumerated breadth-first with immediate-inverse pruning, so the
    word list is free of the trivial g g^-1 cancellations but may still repeat
    group elements for sets with relations.
    """
    if eps <= 0:
        raise DomainError(f"eps must be positive, got {eps}")
    if length < 0:
        raise DomainError(f"word length must be >= 0, got {length}")
    if samples < 0:
        raise DomainError(f"samples must be >= 0, got {samples}")

    mem = gs.symmetrized().members()
    mats = np.stack([U for _, U in mem])
    n_letters = len(mem)
    k = gs.k
    n_words = _word_count(n_letters, length)
    if n_words > word_cap:
        raise ResourceLimitError(
            f"{n_words} words of length <= {length} exceed the cap {word_cap}; "
            f"reduce the length or raise word_cap"
        )

    if samples == 0:
        warnings.warn("empirical_net called with samples=0; nothing to measure")
        return NetEstimate(length, float(eps), 0, 1.0, 0.0)

    rng = np.random.default_rng(seed)
    targets = np.stack([_haar_unitary(gs.d, rng) for _ in range(samples)])
    best = np.full(samples, np.inf)

    # BFS over words; level arrays carry (word matrix, last letter index)
    d = gs.d
    level_mats = np.eye(d, dtype=np.complex128)[None, :, :]
    level_last = np.array([-1])
    _scan_words(level_mats, targets, best)
    for _ in range(length):
        next_mats, next_last = _extend_level(level_mats, level_last, mats, k)
        if next_mats.shape[0] == 0:
            break
        _scan_words(next_mats, targets, best)
        level_mats, level_last = next_mats, next_last

    covered = float(np.mean(best <= eps))
    return NetEstimate(
        length=length,
        eps=float(eps),
        samples=samples,
        covered_fraction=covered,
        max_observed_distance=float(best.max()),
    )


def _extend_level(level_mats, level_last, mats, k):
    """Append every non-backtracking letter to every word in the level."""
    n_letters = mats.shape[0]
    out_mats = []
    out_last = []
    for letter in range(n_letters):
        inverse_letter = (letter + k) % n_letters
        keep = level_last != inverse_letter
        if not np.any(keep):
            continue
        prod = np.einsum("nab,bc->nac", level_mats[keep], mats[letter])
        out_mats.append(prod)
        out_last.append(np.full(prod.shape[0], letter))
    if not out_mats:
        return np.empty((0,) + level_mats.shape[1:], dtype=np.complex128), np.empty(0, int)
    return np.concatenate(out_mats), np.concatenate(out_last)


def _trace_bound_sq(words, targets) -> np.ndarray:
    """(words, targets) array of 2 - 2 |tr(W^dagger T)| / d <= D(W, T)^2,
    one complex GEMM: tr(W^dagger T) = <vec W, vec T>."""
    n, d = words.shape[0], words.shape[-1]
    tr = words.reshape(n, d * d).conj() @ targets.reshape(-1, d * d).T
    return 2.0 - (2.0 / d) * np.abs(tr)


def _pair_distances(words, targets) -> np.ndarray:
    """D(words[i], targets[i]) by an eigensolve of each W^dagger T."""
    M = np.einsum("nba,nbc->nac", words.conj(), targets)
    return _projective_distance(np.angle(np.linalg.eigvals(M)))


def _scan_words(words, targets, best) -> None:
    """Tighten best[s] = min(best[s], min_w D(w, target_s)) over the words.

    Chunks of at most _BATCH (word, target) pairs.  In each, every target
    first takes the exact D of its smallest-bound word; then only the words
    whose trace bound can reach the lowered best get an exact D.
    """
    step = max(1, _BATCH // targets.shape[0])
    for lo in range(0, words.shape[0], step):
        chunk = words[lo : lo + step]
        bound_sq = _trace_bound_sq(chunk, targets)
        first = bound_sq.argmin(axis=0)
        np.minimum(best, _pair_distances(chunk[first], targets), out=best)
        w, s = np.nonzero(bound_sq <= best * best + _PRUNE_SLACK)
        np.minimum.at(best, s, _pair_distances(chunk[w], targets[s]))
