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
GEMM bounds a whole chunk of (word, target) pairs.  A pair gets an exact D
only if its squared bound is within a rounding slack of the target's best:
first each target's smallest-bound word, then the other words against the
lowered best.  A pruned pair has a computed D above best, so the minimum runs
over the same floating-point values as an eigensolve of every pair, and is
bit-identical, in whatever order the words are scanned.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, replace
from math import inf, pi

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
# Squared-units slack of the trace-bound prune.  The bound computed from the
# overlap |tr(W^dagger T)| and the computed D^2 each sit within about
# d^2 * 1e-16 of their exact values (a d^2-term dot product of unit-size
# entries; the eigenphases of a unitary, D <= 2), together under 1e-13 up to
# d = 30.  1e-9 leaves 1e4x headroom, so no word whose computed D could reach
# best is pruned.
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
    """||U^dagger U - I||_2 of a square matrix; raises `error` above tol or
    on a non-finite entry."""
    if not np.isfinite(U).all():
        raise error(f"{what} has a non-finite entry")
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
    return _freeze(U)


def make_gateset(d, pairs, symmetric=True, repair=False) -> GateSet:
    """Validate and normalize raw (label, matrix) pairs into a GateSet; the
    labels are stored as str, and must differ as str."""
    check_d(d)
    if type(symmetric) is not bool:  # "false" would be truthy
        raise DomainError(f"symmetric must be True or False, got {symmetric!r}")
    if len(pairs) < 1:
        raise DomainError("gate set needs at least one gate")
    labels = [str(lab) for lab, _ in pairs]
    if len(set(labels)) != len(labels):
        raise GateFileError(f"duplicate gate labels: {labels!r}")
    norm_pairs = tuple((lab, _normalize_gate(U, d, lab, repair))
                       for lab, (_, U) in zip(labels, pairs))
    return GateSet(d=d, pairs=norm_pairs, symmetric=symmetric)


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
        d, symmetric = doc["d"], doc.get("symmetric", True)
        if type(d) is not int:  # not a float such as 2.7, nor a bool
            raise TypeError(f"d must be a JSON integer, got {d!r}")
        if type(symmetric) is not bool:
            raise TypeError(f"symmetric must be true or false, got {symmetric!r}")
        raw = []
        for g in doc["gates"]:
            if type(g["label"]) is not str:
                raise TypeError(f"a gate label must be a JSON string, got {g['label']!r}")
            mat = np.array(
                [[complex(re, im) for re, im in row] for row in g["matrix"]],
                dtype=np.complex128,
            )
            raw.append((g["label"], mat))
    except (KeyError, TypeError, ValueError) as exc:
        raise GateFileError(f"gate file {path} has malformed fields: {exc}") from exc
    return make_gateset(d, raw, symmetric=symmetric, repair=repair)


def _haar_unitaries(d: int, n: int, rng) -> np.ndarray:
    """n Haar-distributed U(d) samples, shape (n, d, d): QR with phase
    correction.  One draw of n (real, imaginary) pairs and one stacked QR
    take the same random stream, bit for bit, as n draws of one."""
    g = rng.standard_normal((n, 2, d, d))
    Q, R = np.linalg.qr((g[:, 0] + 1j * g[:, 1]) / np.sqrt(2.0))
    diag = np.diagonal(R, axis1=-2, axis2=-1)
    return Q * (diag / np.abs(diag))[:, None, :]


def _haar_unitary(d: int, rng) -> np.ndarray:
    """One Haar-distributed U(d) sample."""
    return _haar_unitaries(d, 1, rng)[0]


def haar_random_gateset(d: int, k: int, seed: int, symmetric: bool = True) -> GateSet:
    if k < 1:
        raise DomainError(f"need k >= 1 gates, got {k}")
    if seed < 0:  # numpy's generators refuse it with a ValueError
        raise DomainError(f"seed must be >= 0, got {seed}")
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


def _word_count(n_letters: int, length: int, cap: float = inf) -> int:
    """Words of length <= `length` with no immediate inverse backtracking,
    counted level by level until the total passes `cap`."""
    if n_letters == 2:  # two words per level
        return 1 + 2 * length
    total, level = 1, n_letters
    for _ in range(length):
        total += level
        if total > cap:
            break
        level *= n_letters - 1
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

    Every word of length <= `length` over the 2k letters with no letter next
    to its inverse is enumerated, depth first: free of the trivial g g^-1
    cancellations, but it may still repeat group elements for sets with
    relations.  The Haar targets come from one draw of the seeded generator.
    A word's one-letter extensions are made in windows of _BATCH // samples
    words at most, and each window is scanned and then extended before the
    next window of its level is made, so one window per level is held, for
    any length.  In each window a (word, target) pair gets an exact D only if
    its trace bound can still lower the target's best (module docstring);
    the result is that of an exact D for every pair, bit for bit.
    """
    if not eps > 0:  # NaN too
        raise DomainError(f"eps must be positive, got {eps}")
    if eps == inf:
        raise DomainError(f"eps must be finite, got {eps}")
    if length < 0:
        raise DomainError(f"word length must be >= 0, got {length}")
    if samples < 0:
        raise DomainError(f"samples must be >= 0, got {samples}")
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    if word_cap < 0:
        raise DomainError(f"word_cap must be >= 0, got {word_cap}")

    mem = gs.symmetrized().members()
    mats = np.stack([U for _, U in mem])
    n_letters = len(mem)
    if _word_count(n_letters, length, word_cap) > word_cap:
        raise ResourceLimitError(f"the words of length <= {length} number more than the "
                                 f"cap {word_cap}; reduce the length or raise word_cap")

    if samples == 0:
        warnings.warn("empirical_net called with samples=0; nothing to measure")
        return NetEstimate(length, float(eps), 0, 1.0, 0.0)

    rng = np.random.default_rng(seed)
    targets = _haar_unitaries(gs.d, samples, rng)
    best = np.full(samples, np.inf)

    # depth first: a stack of (windows of words, last letters) iterators, one per level
    step = max(1, _BATCH // samples)
    inverse = (np.arange(n_letters) + gs.k) % n_letters
    stack = [iter([(np.eye(gs.d, dtype=np.complex128)[None], np.array([-1]))])]
    while stack:
        window = next(stack[-1], None)
        if window is None:
            stack.pop()
            continue
        _scan_words(window[0], targets, best)
        if len(stack) <= length:  # the window's words are shorter than `length`
            stack.append(_extensions(*window, mats, inverse, step))

    covered = float(np.mean(best <= eps))
    return NetEstimate(
        length=length,
        eps=float(eps),
        samples=samples,
        covered_fraction=covered,
        max_observed_distance=float(best.max()),
    )


def _extensions(words, last, mats, inverse, step):
    """Yield the non-backtracking one-letter extensions of `words`, letter by
    letter, as (words, last letters) windows of at most `step` that share one
    buffer: each window must be used up before the next is asked for."""
    out = np.empty((min(words.shape[0] * len(inverse), step),) + words.shape[1:],
                   dtype=np.complex128)
    out_last = np.empty(out.shape[0], dtype=np.intp)
    pos = 0  # out[:pos] is made
    for letter, inv in enumerate(inverse):
        (rows,) = np.nonzero(last != inv)
        while rows.size:
            take = min(rows.size, out.shape[0] - pos)
            np.einsum("nab,bc->nac", words[rows[:take]], mats[letter],
                      out=out[pos : pos + take])
            out_last[pos : pos + take] = letter
            rows, pos = rows[take:], pos + take
            if pos == out.shape[0]:
                yield out, out_last
                pos = 0
    if pos:
        yield out[:pos], out_last[:pos]


def _trace_overlaps(targets, words) -> np.ndarray:
    """(targets, words) array of |tr(W^dagger T)| = |<vec T^*, vec W^*>|,
    one complex GEMM; D(W, T)^2 >= 2 - 2 |tr(W^dagger T)| / d."""
    n, d = words.shape[0], words.shape[-1]
    return np.abs(targets.reshape(-1, d * d).conj() @ words.reshape(n, d * d).T)


def _pair_distances(words, targets) -> np.ndarray:
    """D(words[i], targets[i]) by an eigensolve of each W^dagger T."""
    M = np.einsum("nba,nbc->nac", words.conj(), targets)
    return _projective_distance(np.angle(np.linalg.eigvals(M)))


def _scan_words(words, targets, best) -> None:
    """Tighten best[s] = min(best[s], min_w D(w, target_s)) over the words.

    Chunks of at most _BATCH (word, target) pairs.  In each, a target first
    takes the exact D of its largest-overlap word, if that word's bound can
    reach its best; then only the other words whose bound can reach the
    lowered best get an exact D.
    """
    n_targets, d = targets.shape[0], targets.shape[-1]
    rows = np.arange(n_targets)
    step = max(1, _BATCH // n_targets)

    def reach():
        # 2 - 2 overlap / d <= best^2 + slack: the overlap a word needs
        return 0.5 * d * (2.0 - best * best - _PRUNE_SLACK)

    for lo in range(0, words.shape[0], step):
        chunk = words[lo : lo + step]
        overlap = _trace_overlaps(targets, chunk)
        first = overlap.argmax(axis=1)
        (s,) = np.nonzero(overlap[rows, first] >= reach())
        if s.size:
            best[s] = np.minimum(best[s], _pair_distances(chunk[first[s]], targets[s]))
            overlap[s, first[s]] = -np.inf  # their exact D is in best already
        s, w = np.divmod(np.flatnonzero(overlap >= reach()[:, None]), chunk.shape[0])
        if s.size:
            np.minimum.at(best, s, _pair_distances(chunk[w], targets[s]))
