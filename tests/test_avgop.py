import dataclasses
import itertools
import json
import os
import subprocess
import sys
import tempfile
import textwrap
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    BlockOperator,
    build_block_operator,
    convergence_profile,
    exp_image,
    lps_exact_norms,
    spectral_norm,
    squared_blocks_gap,
)
import gapforge.avgop
from gapforge.avgop import (
    POOL_MIN_DIM,
    GapReport,
    _block_sums,
    _bounded,
    _diagonal_phases,
    _hermitian_norm,
    _map_weights,
    _normal_form,
    averaging_block,
    block_operator_norm,
    gap_at_scale,
    subset_norms,
)
from gapforge.cli import main
from gapforge.errors import DomainError
from gapforge.gates import (
    GateSet,
    _haar_unitary,
    haar_random_gateset,
    make_gateset,
    save_gateset,
    squared_set,
)
from gapforge.bounds import g_t0
from gapforge.irrep import JyFrame, cached_basis, gate_factors, irrep_matrix, pattern_weights
from gapforge.lapack import _blas_thread_setters
from gapforge.weightlat import Weight, enumerate_nontrivial_weights, frobenius_schur


def diag_pair(phi=np.pi / 2):
    th = np.exp(1j * np.array([phi, -phi]))
    return make_gateset(2, [("z", np.diag(th))])


class TestAveragingBlock:
    def test_identity_set(self):
        gs = make_gateset(2, [("e", np.eye(2, dtype=complex))])
        B = averaging_block(Weight((1, -1)), gs)
        assert np.allclose(B, np.eye(3), atol=1e-12)

    def test_diag_pair_adjoint(self):
        # {Z, Z^-1} on the adjoint: phases {pi, 0, -pi} average to diag(-1, 1, -1)
        B = averaging_block(Weight((1, -1)), diag_pair())
        assert np.allclose(B, np.diag([-1.0, 1.0, -1.0]), atol=1e-10)

    def test_hermitian_bit_for_bit(self, haar_pair_d2):
        B = averaging_block(Weight((2, -2)), haar_pair_d2)
        assert np.array_equal(B, B.conj().T)

    def test_norm_at_most_one(self, haar_pair_d3):
        for w in enumerate_nontrivial_weights(3, 2):
            B = averaging_block(w, haar_pair_d3)
            assert block_operator_norm(B) <= 1.0 + 1e-8

    def test_asymmetric_average(self):
        # a one-sided set's block is not Hermitian, and its norm is not one
        # eigvalsh could give, so it is refused
        gs = make_gateset(2, [("u", _haar_unitary(2, np.random.default_rng(3)))],
                          symmetric=False)
        with pytest.raises(DomainError, match="needs a symmetric gate set"):
            averaging_block(Weight((1, -1)), gs)


class TestBlockNorm:
    def test_dense_hermitian(self):
        A = np.diag([0.3, -0.9, 0.5])
        assert block_operator_norm(A) == pytest.approx(0.9)

    def test_dense_general(self):
        # non-Hermitian blocks are normed by the test oracle's SVD
        A = np.array([[0.0, 2.0], [0.0, 0.0]])
        assert spectral_norm(A) == pytest.approx(2.0)

    def test_real_515_block_matches_numpy(self):
        # squared seed-1729 pair, weight (257, -257): a 515x515 averaging block
        sq = squared_set(haar_random_gateset(2, 2, seed=1729))
        B = averaging_block(Weight((257, -257)), sq)
        assert B.shape == (515, 515)
        want = np.linalg.norm(B, 2)
        assert block_operator_norm(B) == pytest.approx(want, abs=1e-12)

    def test_rejects_nonsquare(self):
        with pytest.raises(DomainError):
            block_operator_norm(np.zeros((2, 3)))


class TestGapAtScale:
    def test_identity_set_gap_zero(self):
        gs = make_gateset(2, [("e", np.eye(2, dtype=complex))])
        rep = gap_at_scale(gs, 3)
        assert rep.gap == pytest.approx(0.0, abs=1e-12)

    def test_commuting_diagonal_gap_zero(self):
        th = np.exp(1j * np.array([0.4, -0.4]))
        gs = make_gateset(2, [("a", np.diag(th)), ("b", np.diag(th**3))])
        rep = gap_at_scale(gs, 4)
        # every block keeps the invariant vector of zero-weight patterns
        assert rep.gap == pytest.approx(0.0, abs=1e-10)

    def test_haar_pair_positive_gap(self, haar_pair_d2):
        rep = gap_at_scale(haar_pair_d2, 5, every_norm=True)
        assert 0.0 < rep.gap < 1.0
        assert set(rep.per_weight_norms) == set(enumerate_nontrivial_weights(2, 5))
        assert rep.per_weight_norms[rep.worst_weight] == pytest.approx(1 - rep.gap)

    def test_monotone_in_scale(self, haar_pair_d2):
        gaps = [gap_at_scale(haar_pair_d2, t).gap for t in (1, 3, 6, 9)]
        assert all(a >= b - 1e-12 for a, b in zip(gaps, gaps[1:]))

    def test_conjugation_invariance(self, haar_pair_d2):
        W = _haar_unitary(2, np.random.default_rng(123))
        conj = make_gateset(
            2, [(lab, W @ U @ W.conj().T) for lab, U in haar_pair_d2.pairs]
        )
        a = gap_at_scale(haar_pair_d2, 4)
        b = gap_at_scale(conj, 4)
        assert a.gap == pytest.approx(b.gap, abs=1e-8)

    def test_needs_symmetric(self):
        gs = make_gateset(2, [("u", _haar_unitary(2, np.random.default_rng(5)))],
                          symmetric=False)
        with pytest.raises(DomainError, match="symmetric"):
            gap_at_scale(gs, 2)
        rep = gap_at_scale(gs.symmetrized(), 2)
        # a single pair never mixes, so the gap is 0 up to roundoff
        assert rep.gap == pytest.approx(0.0, abs=1e-10)

    def test_scale_validation(self, haar_pair_d2):
        with pytest.raises(DomainError):
            gap_at_scale(haar_pair_d2, 0)

    def test_thread_count_invariance(self, haar_pair_d2, haar_pair_d3, monkeypatch):
        monkeypatch.setattr(gapforge.avgop, "POOL_MIN_DIM", 1)  # every weight on the pool
        haar_set_d4 = haar_random_gateset(4, 2, seed=1729)
        # with the default head, and with certificates on every block above
        # the probe's scales (head bar 1)
        for head_dim in (gapforge.avgop.HEAD_DIM, 1):
            monkeypatch.setattr(gapforge.avgop, "HEAD_DIM", head_dim)
            for gs, t in ((haar_pair_d2, 6), (haar_pair_d3, 4), (haar_set_d4, 3)):
                a = gap_at_scale(gs, t, threads=1)
                b = gap_at_scale(gs, t, threads=4)
                assert a.gap == b.gap  # identical code path per block, exact match
                assert a.per_weight_norms == b.per_weight_norms
                assert a.worst_weight == b.worst_weight

    def test_one_subgroup_solve_per_shape_and_gate_side(self, haar_pair_d3, monkeypatch):
        # the U(2) images are the complex eigensolves (the frames' are real);
        # a d = 3, t = 8 pass runs one per distinct shape per side of a gate
        shapes = {shape for w in enumerate_nontrivial_weights(3, 8)
                  for shape, _ in cached_basis(w).shapes}
        assert len(shapes) == 17
        calls = []
        eigh = np.linalg.eigh

        def counted(a, *args, **kwargs):
            if np.iscomplexobj(a):
                calls.append(a.shape)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        for threads in (1, 2):
            calls.clear()
            gap_at_scale(haar_pair_d3, 8, threads=threads)
            assert 0 < len(calls) <= len(shapes) * 2 * haar_pair_d3.k

    def test_report_serialization(self, haar_pair_d2):
        rep = gap_at_scale(haar_pair_d2, 2)
        doc = rep.to_json_dict()
        assert doc["t"] == 2
        assert doc["worst_weight"] == list(rep.worst_weight.entries)
        assert len(doc["per_weight_norms"]) == 2

    def test_gateset_order_invariance(self):
        u1 = _haar_unitary(2, np.random.default_rng(31))
        u2 = _haar_unitary(2, np.random.default_rng(32))
        a = gap_at_scale(make_gateset(2, [("a", u1), ("b", u2)]), 4)
        b = gap_at_scale(make_gateset(2, [("b", u2), ("a", u1)]), 4)
        assert a.gap == pytest.approx(b.gap, abs=1e-13)


class TestCertifiedGap:
    """gap_at_scale certifies the blocks that cannot set the worst norm;
    every_norm=True eigensolves them all.  Both give the same gap bits."""

    @pytest.mark.parametrize("case, certified, fallbacks", [
        ("d3", 18, 0),  # d = 3, t = 8: 18 of 24 representative weights certified
        ("d4", 7, 0),  # d = 4, t = 4
        ("lps", 32, 99),  # t = 150: the maximum, at j = 114, is in the tail
    ])
    def test_bit_identical_to_every_norm(self, case, certified, fallbacks, monkeypatch,
                                         haar_pair_d3, lps_gates):
        gs, t = {"d3": (haar_pair_d3, 8), "d4": (haar_random_gateset(4, 2, seed=1729), 4),
                 "lps": (lps_gates, 150)}[case]
        want = gap_at_scale(gs, t, every_norm=True)
        tried, certify = [], gapforge.avgop.certify_norm_below
        monkeypatch.setattr(gapforge.avgop, "certify_norm_below",
                            lambda B, theta: tried.append(certify(B, theta)) or tried[-1])
        got = gap_at_scale(gs, t)
        assert (tried.count(True), len(tried) - tried.count(True)) == (certified, fallbacks)
        # theta I + B failed after theta I - B passed: B rebuilt for the eigensolve
        assert tried.count(None) == {"d3": 0, "d4": 0, "lps": 28}[case]
        assert got.gap == want.gap
        assert got.worst_weight == want.worst_weight
        if case == "lps":
            assert got.worst_weight == Weight((114, -114))
        # the report holds only eigensolved norms, each the bits of the exact pass
        assert len(got.per_weight_norms) < len(want.per_weight_norms)
        assert all(want.per_weight_norms[w] == v for w, v in got.per_weight_norms.items())
        assert list(got.per_weight_norms) == [w for w in want.per_weight_norms
                                              if w in got.per_weight_norms]

    def test_progress_flags_ceilings(self, haar_pair_d3):
        # d = 3, t = 4: (4, 0, -4) and (4, -1, -3) are certified; the conjugate
        # (3, 1, -4) of the second reports its ceiling too
        fired, flags = {}, {}
        weights, norms, exact = subset_norms(
            haar_pair_d3, 4, [(0, 1)], certify=True,
            progress=lambda w, ns, ex: flags.setdefault(w, (ns, ex)))
        assert {w: (tuple(ns), ex) for w, ns, ex in zip(weights, norms, exact)} == flags
        rep = gap_at_scale(haar_pair_d3, 4,
                           progress=lambda w, v, ex: fired.setdefault(w, (v, ex)))
        below = {w.entries for w, (_, ex) in fired.items() if not ex}
        assert below == {(4, 0, -4), (4, -1, -3), (3, 1, -4)}
        assert set(rep.per_weight_norms) == {w for w, (_, ex) in fired.items() if ex}
        assert all(rep.per_weight_norms[w] == v for w, (v, ex) in fired.items() if ex)
        top = 1.0 - rep.gap
        assert all(v < top for v, ex in fired.values() if not ex)


class TestSubsetNorms:
    def test_needs_symmetric(self):
        # a one-sided set is refused, not silently read as its symmetrization
        gs = haar_random_gateset(2, 2, seed=3, symmetric=False)
        with pytest.raises(DomainError, match="symmetric"):
            subset_norms(gs, 3, [(0, 1)])
        _, norms, _ = subset_norms(gs.symmetrized(), 3, [(0, 1)])
        rep = gap_at_scale(gs.symmetrized(), 3, every_norm=True)
        assert [ns[0] for ns in norms] == list(rep.per_weight_norms.values())

    @pytest.mark.parametrize("d, k, t", [(2, 2, 5), (2, 3, 4), (3, 2, 3), (3, 3, 2),
                                         (4, 2, 2), (4, 3, 1)])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_matches_averaging_block_norms(self, d, k, t, threads):
        # conjugate rows are copies and self-conjugate rows come from the real
        # form; both agree with the complex GT-basis block of their own weight
        gs = haar_random_gateset(d, k, seed=1729)
        keeps = [tuple(range(k))] + list(itertools.combinations(range(k), 2))
        weights, norms, _ = subset_norms(gs, t, keeps, threads=threads)
        assert weights == enumerate_nontrivial_weights(d, t)
        for w, row in zip(weights, norms):
            for keep, got in zip(keeps, row):
                sub = GateSet(d=d, pairs=tuple(gs.pairs[i] for i in keep), symmetric=True)
                want = block_operator_norm(averaging_block(w, sub))
                assert got == pytest.approx(want, abs=1e-13)

    def test_images_and_bases_of_one_weight_per_conjugate_pair(self, monkeypatch,
                                                                haar_pair_d3):
        images, lookups, fired = [], [], []
        real_image, real_lookup = irrep_matrix, cached_basis
        monkeypatch.setattr(
            gapforge.avgop, "irrep_matrix",
            lambda b, U, **kw: images.append(b.weight) or real_image(b, U, **kw),
        )
        monkeypatch.setattr(gapforge.avgop, "cached_basis",
                            lambda w: lookups.append(w) or real_lookup(w))
        rep = gap_at_scale(haar_pair_d3, 4, every_norm=True,
                           progress=lambda w, v, exact: fired.append((w, v, exact)))
        weights = enumerate_nontrivial_weights(3, 4)
        n_self = sum(frobenius_schur(w) for w in weights)
        n_canonical = (len(weights) + n_self) // 2
        # the first gate, diagonal in the pass's normal form, builds no image
        assert len(images) == (haar_pair_d3.k - 1) * n_canonical
        assert len(lookups) == n_canonical
        for w in lookups:  # each the first of its pair in canonical order
            assert weights.index(w) <= weights.index(w.conjugate())
        # progress still fires once for every weight, conjugates included
        assert sorted(w.entries for w, _, _ in fired) == sorted(w.entries for w in weights)
        assert all(exact and rep.per_weight_norms[w] == v for w, v, exact in fired)

    def test_cached_bases_hold_no_dense_square_array(self):
        # at d = 2 each pass builds a Jy frame per weight (dense, n^2 / 2); it
        # must go with the weight, not into the basis cache (1.4 GB over all
        # weights at t0).  At d = 3 the basis keeps its frame, which is small
        cached = {}
        for d, t in ((2, 12), (3, 5)):
            gs = haar_random_gateset(d, 3, seed=1729)
            weights, _, _ = subset_norms(gs, t, [(0, 1, 2), (0, 1)])
            reps = gapforge.avgop._representatives(weights)  # the weights a pass looks up
            misses = cached_basis.cache_info().misses
            cached[d] = [cached_basis(w) for w in reps]
            assert cached_basis.cache_info().misses == misses  # the pass cached each one

        def dense_squares(obj, n):
            if isinstance(obj, np.ndarray):
                return [obj.shape] if obj.ndim == 2 and obj.shape[0] == obj.shape[1] == n else []
            if isinstance(obj, JyFrame):
                return ["JyFrame"]
            if isinstance(obj, dict):
                obj = list(obj.values())
            if isinstance(obj, (list, tuple)):
                return [x for item in obj for x in dense_squares(item, n)]
            return []

        def held_bytes(obj):  # each buffer once: the frame's grids are views
            stack, buffers = [obj], {}
            while stack:
                x = stack.pop()
                if isinstance(x, np.ndarray):
                    base = x if x.base is None else x.base
                    buffers[id(base)] = base.nbytes
                elif isinstance(x, JyFrame):
                    stack.append(x.blocks)
                elif isinstance(x, (list, tuple)):
                    stack.extend(x)
            return sum(buffers.values())

        for b in cached[2]:
            fields = [getattr(b, f.name) for f in dataclasses.fields(b)]
            assert dense_squares(fields, b.dim) == [], b.weight
        for b in cached[3]:
            assert isinstance(b.frame, JyFrame)
            assert held_bytes(b.frame) <= 300 * b.dim, b.weight
            fields = [getattr(b, f.name) for f in dataclasses.fields(b) if f.name != "frame"]
            assert dense_squares(fields + [b.frame.blocks], b.dim) == [], b.weight

    def test_second_d3_pass_solves_no_frame(self, monkeypatch):
        # at d >= 3 the frame is solved with the basis, once per process
        gs = haar_random_gateset(3, 2, seed=1729)
        subset_norms(gs, 4, [(0, 1)])
        calls = []
        solve = gapforge.irrep._rotation_block
        monkeypatch.setattr(gapforge.irrep, "_rotation_block",
                            lambda *a: calls.append(1) or solve(*a))
        first = subset_norms(gs, 4, [(0, 1)])
        assert calls == []
        cached_basis.cache_clear()
        assert subset_norms(gs, 4, [(0, 1)]) == first and calls  # fresh bases do solve

    @pytest.mark.parametrize("d, t", [(2, 6), (3, 3)])
    def test_passes_write_nothing_into_cached_bases(self, d, t):
        # build_basis returns a finished basis: a pass reads its fields and
        # replaces or adds to none of them (fresh bases, that no pass has used)
        cached_basis.cache_clear()
        gs = haar_random_gateset(d, 3, seed=1729)
        reps = gapforge.avgop._representatives(enumerate_nontrivial_weights(d, t))
        bases = [cached_basis(w) for w in reps]

        def snapshot(b):
            fields = {f.name: getattr(b, f.name) for f in dataclasses.fields(b)}
            items = {name: list(v.items()) for name, v in fields.items() if isinstance(v, dict)}
            return fields, items

        before = [snapshot(b) for b in bases]
        subset_norms(gs, t, [(0, 1, 2), (0, 1)], threads=2)
        for b, (fields, items) in zip(bases, before):
            now, now_items = snapshot(b)
            assert all(now[name] is value for name, value in fields.items()), b.weight
            for name, pairs in items.items():
                assert len(now_items[name]) == len(pairs), (b.weight, name)
                assert all(k is k2 and v is v2 for (k, v), (k2, v2) in zip(pairs, now_items[name]))

    def test_self_conjugate_images_are_real(self, monkeypatch):
        # irrep returns each self-conjugate image in its real basis, at every
        # d, and every other image complex; the first gate, diagonal in the
        # pass's normal form, builds none
        dtypes = []
        real_image = irrep_matrix

        def image(b, U, **kw):
            P = real_image(b, U, **kw)
            dtypes.append((b.weight, P.dtype))
            return P

        monkeypatch.setattr(gapforge.avgop, "irrep_matrix", image)
        subset_norms(haar_random_gateset(2, 3, seed=1729), 12, [(0, 1, 2), (0, 1)], threads=1)
        assert len(dtypes) == 2 * 12 and {dt for _, dt in dtypes} == {np.dtype(np.float64)}
        dtypes.clear()
        subset_norms(haar_random_gateset(3, 2, seed=1729), 3, [(0, 1)], threads=1)
        kinds = {(frobenius_schur(w), dt) for w, dt in dtypes}
        assert kinds == {(1, np.dtype(np.float64)), (0, np.dtype(np.complex128))}

    def test_real_form_rejects_a_complex_remainder(self):
        # a U(2) shape image times e^{0.3i} breaks conj(pi(K)) = J pi(K) J^T
        # on every pair of J-partner spans of that shape
        b = cached_basis(Weight((1, 0, -1)))
        U = _haar_unitary(3, np.random.default_rng(4))
        assert irrep_matrix(b, U, real=True).dtype == np.float64
        for side in (0, 1):
            f = gate_factors(U)
            irrep_matrix(b, U, factors=f, real=True)  # fills both shape tables
            table = f.shape_images[side]
            shape = next(iter(table))
            table[shape] = table[shape] * np.exp(0.3j)
            with pytest.raises(AssertionError, match="imaginary part"):
                irrep_matrix(b, U, factors=f, real=True)

    def test_real_form_check_survives_python_O(self):
        # the same corruption, for every U(2) shape of (2, 0, -2), under -O
        script = textwrap.dedent("""
            import numpy as np
            from gapforge.gates import _haar_unitary
            from gapforge.irrep import cached_basis, gate_factors, irrep_matrix
            from gapforge.weightlat import Weight

            assert False, "assert statements must be stripped here"
            b = cached_basis(Weight((2, 0, -2)))
            U = _haar_unitary(3, np.random.default_rng(4))
            f = gate_factors(U)
            irrep_matrix(b, U, factors=f, real=True)
            left = f.shape_images[0]
            for shape in left:
                left[shape] = left[shape] * np.exp(0.3j)
            try:
                irrep_matrix(b, U, factors=f, real=True)
            except AssertionError as exc:
                print(exc)
        """)
        env = {**os.environ, "PYTHONPATH": str(Path(gapforge.avgop.__file__).resolve().parents[1])}
        proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("a real-form pair block keeps an imaginary part")


def _repeated_eigenvalue_d3() -> np.ndarray:
    V = _haar_unitary(3, np.random.default_rng(31))
    return (V * np.exp(1j * np.array([0.7, 0.7, -1.4]))) @ V.conj().T


# (name, first gate, second gate) of the degenerate first gates
_IX, _IZ = np.array([[0, 1j], [1j, 0]]), np.diag([1j, -1j])
DEGENERATE_FIRST = {
    "identity": (np.eye(2), None),
    "iZ": (_IZ, None),
    "iX-iZ": (_IX, _IZ),  # a finite group: gap 0
    "repeated-d3": (_repeated_eigenvalue_d3(), None),
}


class TestNormalForm:
    """subset_norms runs in the eigenbasis of its set's first gate: that gate
    is diag(e^{i phi}) and adds diag(2 cos <phi, pw>) to each block, with no
    image; every other gate is conjugated and imaged as before."""

    # d = 2, 3 and 4, each d >= 3 with a self-conjugate weight and a complex one
    @pytest.mark.parametrize("entries", [(5, -5), (2, 0, -2), (2, -1, -1), (3, 1, -2, -2),
                                         (1, 0, 0, -1), (2, 0, -1, -1)])
    def test_diagonal_gate_is_twice_its_cosines(self, entries):
        # P + P^dagger of a diagonal gate, of any phase, in the GT basis and,
        # where the weight is self-conjugate, in the real one
        w = Weight(entries)
        b = cached_basis(w)
        pw = pattern_weights(b)
        assert pw.shape == (b.dim, w.d) and not pw.sum(axis=1).any()
        rng = np.random.default_rng(sum(entries) + 17 * len(entries))
        for real in (False, True)[: 1 + frobenius_schur(w)]:
            for _ in range(3):
                phi = rng.uniform(-np.pi, np.pi, w.d)
                P = irrep_matrix(b, np.diag(np.exp(1j * phi)), real=real)
                want = np.diag(2.0 * np.cos(pw @ phi))
                assert np.abs(P + P.conj().T - want).max() <= 1e-13

    @pytest.mark.parametrize("entries, real", [((7, -7), True), ((7, -7), False),
                                                ((2, 0, -2), True), ((3, -1, -2), False)])
    def test_block_sums_match_every_image(self, entries, real):
        # a diagonal gate among imaged ones sums to the block of its image
        b = cached_basis(Weight(entries))
        D = np.diag(np.exp(1j * np.linspace(0.3, -0.9, b.d)))
        U = _haar_unitary(b.d, np.random.default_rng(5))
        gates = [D, U]
        factors = [gate_factors(V) for V in gates]
        (B,) = _block_sums(b, gates, factors, [_diagonal_phases(V) for V in gates], [(0, 1)],
                           real, lambda j, B, rebuild: B)
        want = sum(P + P.conj().T for P in (irrep_matrix(b, V, factors=f, real=real)
                                           for V, f in zip(gates, factors))) / 4
        assert B.dtype == (np.float64 if real else np.complex128)
        assert np.abs(B - want).max() <= 1e-13

    @pytest.mark.parametrize("entries, real", [((7, -7), True), ((3, -1, -2), False)])
    def test_rebuilt_blocks_keep_their_bits(self, entries, real):
        # keeps that share images, a diagonal gate first, last and alone: each
        # block is the zero-started sum in keep order, whether its first image
        # is taken over or copied, and rebuild() gives the same bits while
        # later keeps still hold the images they reuse
        b = cached_basis(Weight(entries))
        rng = np.random.default_rng(9)
        D = np.diag(np.exp(1j * rng.uniform(-np.pi, np.pi, b.d)))
        gates = [D, _haar_unitary(b.d, rng), _haar_unitary(b.d, rng)]
        factors = [gate_factors(V) for V in gates]
        phases = [_diagonal_phases(V) for V in gates]
        keeps = [(0, 1, 2), (1, 2), (2, 1, 0), (0,), (1,)]
        images = [None] + [irrep_matrix(b, V, factors=f, real=real)
                           for V, f in zip(gates[1:], factors[1:])]
        got = _block_sums(b, gates, factors, phases, keeps, real,
                          lambda j, B, rebuild: (B.copy(), B.fill(np.nan), rebuild()))
        pw = pattern_weights(b)
        for keep, (B, _, again) in zip(keeps, got):
            want = np.zeros_like(B)
            for i in keep:
                if i == 0:
                    want.flat[:: b.dim + 1] += 2.0 * np.cos(pw @ phases[0])
                else:
                    want += images[i] + images[i].conj().T
            assert np.array_equal(B, want / (2 * len(keep)))
            assert np.array_equal(again, B)

    @pytest.mark.parametrize("name", sorted(DEGENERATE_FIRST))
    def test_gaps_match_every_image_and_any_basis(self, name):
        # gap_at_scale and g_t0 against blocks that averaging_block builds
        # gate by gate, on the set as given and on the set conjugated by a
        # Haar unitary (no gate diagonal there), and against the conjugated
        # set's own pass
        first, second = DEGENERATE_FIRST[name]
        d = len(first)
        rng = np.random.default_rng(len(name))
        if second is None:
            second = _haar_unitary(d, rng)
        gs = make_gateset(d, [("a", first), ("b", second)])
        W = _haar_unitary(d, rng)
        turned = make_gateset(d, [(lab, W.conj().T @ U @ W) for lab, U in gs.pairs])
        assert all(gapforge.avgop._diagonal_phases(U) is None for _, U in turned.pairs)
        t = 6 if d == 2 else 3
        rep = gap_at_scale(gs, t, every_norm=True)
        for w, norm in rep.per_weight_norms.items():
            for ref in (gs, turned):
                assert norm == pytest.approx(block_operator_norm(averaging_block(w, ref)),
                                             rel=0, abs=1e-12)
        assert rep.gap == pytest.approx(gap_at_scale(turned, t).gap, rel=0, abs=1e-12)
        sq = squared_set(turned)
        worst = max(block_operator_norm(averaging_block(w, sq))
                    for w in enumerate_nontrivial_weights(d, t))
        g, _ = g_t0(gs, t_override=t, check_universality=False)
        g_turned, _ = g_t0(turned, t_override=t, check_universality=False)
        assert g == pytest.approx(max(1.0 - worst, 0.0) ** 2 / 4, rel=0, abs=1e-12)
        assert g == pytest.approx(g_turned, rel=0, abs=1e-12)
        if name == "iX-iZ":
            assert rep.gap == g == 0.0

    @pytest.mark.parametrize("diagonal_first", [True, False])
    def test_gates_reach_gate_factors(self, monkeypatch, diagonal_first):
        # a first gate that is already diagonal leaves every gate as it is,
        # bit for bit; otherwise the first reaches gate_factors diagonal
        seen = []
        real = gapforge.avgop.gate_factors
        monkeypatch.setattr(gapforge.avgop, "gate_factors",
                            lambda U: seen.append(U) or real(U))
        gs = haar_random_gateset(3, 3, seed=8)
        if diagonal_first:
            D = np.diag(np.exp(1j * np.array([0.4, 1.1, -1.5])))
            gs = make_gateset(3, [("d", D)] + list(gs.pairs[1:]))
        gap_at_scale(gs, 2)
        assert len(seen) == gs.k
        if diagonal_first:
            for got, (_, U) in zip(seen, gs.pairs):
                assert got.dtype == U.dtype and got.tobytes() == U.tobytes()
        else:
            assert gapforge.avgop._diagonal_phases(seen[0]) is not None
            assert all(gapforge.avgop._diagonal_phases(U) is None for U in seen[1:])

    def test_phases_once_per_gate_per_pass(self, monkeypatch):
        # each gate's diagonal test runs once per pass, next to its
        # gate_factors (plus the normal form's own), not once per weight
        calls = []
        real = gapforge.avgop._diagonal_phases
        monkeypatch.setattr(gapforge.avgop, "_diagonal_phases",
                            lambda U: calls.append(U) or real(U))
        gs = haar_random_gateset(2, 4, seed=1729)
        subset_norms(gs, 20, [(0, 1, 2, 3), (1, 2, 3)], threads=1, certify=True)
        assert len(calls) == 1 + gs.k

    def test_gate_off_unitary_within_the_check_is_accepted(self):
        # make_gateset accepts a gate 5e-11 off the unitary group; no
        # eigenbasis rebuilds it better, so the normal form allows that too
        rng = np.random.default_rng(12)
        E = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        U = _haar_unitary(2, rng) + 5e-11 * E / np.linalg.norm(E, 2)
        gs = make_gateset(2, [("u", U), ("v", _haar_unitary(2, rng))])
        rep = gap_at_scale(gs, 4, every_norm=True)
        for w, norm in rep.per_weight_norms.items():
            assert norm == pytest.approx(block_operator_norm(averaging_block(w, gs)),
                                         rel=0, abs=1e-9)

    def test_eigenbasis_checks_survive_python_O(self):
        # an eigenbasis that is not unitary, and eigenvalues that do not
        # rebuild the first gate, each by 1e-9, raise under -O
        script = textwrap.dedent("""
            import numpy as np
            import gapforge.avgop
            from gapforge.gates import haar_random_gateset

            assert False, "assert statements must be stripped here"
            schur = gapforge.avgop._schur_unitary
            gs = haar_random_gateset(3, 2, seed=1729)
            for bend in (lambda z, Z: (z, Z * (1 + 1e-9)),
                         lambda z, Z: (z * np.exp(1e-9j), Z)):
                gapforge.avgop._schur_unitary = lambda U: bend(*schur(U))
                try:
                    gapforge.avgop.gap_at_scale(gs, 2)
                except AssertionError as exc:
                    print(exc)
        """)
        env = {**os.environ, "PYTHONPATH": str(Path(gapforge.avgop.__file__).resolve().parents[1])}
        proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("the first gate's eigenbasis fails to be unitary")
        assert lines[1].startswith("the first gate's eigenbasis fails to rebuild the first gate")


class TestLargeBlocks:
    """The values and the memory of blocks above n = 200, where the images,
    the real form and the symmetrized sums work a slab at a time."""

    def test_lps_norms_at_t150(self, lps_gates):
        # a theorem bounds every block; the maximum sits at j = 114 (n = 229)
        bound = 2.0 * np.sqrt(5.0) / 6.0
        norms = gap_at_scale(lps_gates, 150, every_norm=True).per_weight_norms
        assert max(norms.values()) <= bound
        assert max(norms.values()) >= bound - 1e-4
        for j, want in ((1, 1 / 15), (2, 37 / 75), (3, 43 / 75)):
            assert norms[Weight((j, -j))] == pytest.approx(want, abs=2e-15)

    def test_lps_norms_match_exact_arithmetic(self, lps_gates):
        # characteristic polynomials over Q(i) of the j <= 6 blocks
        sympy = pytest.importorskip("sympy")
        exact = lps_exact_norms(6)
        for j, want in ((1, (1, 15)), (2, (37, 75)), (3, (43, 75))):
            assert exact[j] == sympy.Rational(*want)
        norms = gap_at_scale(lps_gates, 6, every_norm=True).per_weight_norms
        assert len(norms) == 6
        for j, want in exact.items():
            assert norms[Weight((j, -j))] == pytest.approx(float(want), abs=1e-14)

    def test_d3_norms_match_blocks_of_the_exp_path(self, haar_pair_d3):
        # (5, 0, -5), n = 216, in the real form; (6, -1, -5), n = 260, complex
        norms = gap_at_scale(haar_pair_d3, 6, every_norm=True).per_weight_norms
        for entries in ((5, 0, -5), (6, -1, -5)):
            b = cached_basis(Weight(entries))
            assert b.dim > 200
            P = sum(exp_image(b, U) for _, U in haar_pair_d3.pairs)
            want = np.abs(np.linalg.eigvalsh((P + P.conj().T) / 4)).max()
            assert norms[Weight(entries)] == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("entries, real", [((100, -100), True), ((100, -100), False),
                                                ((6, 0, -6), True), ((6, -1, -5), False)])
    def test_blocks_are_sums_of_p_plus_p_dagger_bit_for_bit(self, entries, real,
                                                            haar_pair_d2, haar_pair_d3):
        # each image is symmetrized in place, strip by strip (n > 181: several)
        gs = haar_pair_d2 if len(entries) == 2 else haar_pair_d3
        b = cached_basis(Weight(entries))
        gates = [U for _, U in gs.pairs]
        factors = [gate_factors(U) for U in gates]
        (B,) = _block_sums(b, gates, factors, [_diagonal_phases(V) for V in gates], [(0, 1)],
                           real, lambda j, B, rebuild: B)
        want = 0.0
        for U, f in zip(gates, factors):
            P = irrep_matrix(b, U, factors=f, real=real)
            want = want + (P + P.conj().T)
        assert b.dim > 181
        assert np.array_equal(B, want / 4)
        assert np.array_equal(B, B.conj().T)

    @pytest.mark.parametrize("entries, theta, proved, budget", [
        ((8, 0, -8), None, None, 1.5),  # n = 729, real form, eigensolved
        ((8, -1, -7), None, None, 2.75),  # n = 595, complex
        ((200, -200), 0.95, True, 2.4),  # n = 401, certified
        ((8, -1, -7), 0.95, True, 2.75),
        # theta I - B passes and theta I + B fails: rebuilt, then eigensolved
        ((200, -200), 0.8624, None, 2.4),
        ((7, -1, -6), 0.859, None, 2.75),  # n = 405, complex
    ])
    def test_block_memory_budget(self, entries, theta, proved, budget, monkeypatch,
                                 haar_pair_d2, haar_pair_d3):
        # what one weight's block and norm allocate, in n^2 doubles, with the
        # gates in a pass's normal form (one image, which becomes the block)
        w = Weight(entries)
        gs = squared_set(haar_pair_d2) if w.d == 2 else haar_pair_d3
        b = cached_basis(w)
        gates = _normal_form([U for _, U in gs.pairs])
        factors = [gate_factors(U) for U in gates]
        seen, certify = [], gapforge.avgop.certify_norm_below
        monkeypatch.setattr(gapforge.avgop, "certify_norm_below",
                            lambda B, theta: seen.append(certify(B, theta)) or seen[-1])

        take = (_bounded([theta]) if theta is not None
                else lambda j, B, rebuild: (_hermitian_norm(B), True))
        args = (b, gates, factors, [_diagonal_phases(V) for V in gates], [(0, 1)],
                frobenius_schur(w) == 1, take)
        _block_sums(*args)  # solves the gates' U(d-1) shapes, kept with the factors
        tracemalloc.start()
        try:
            ((norm, exact),) = _block_sums(*args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert seen == ([] if theta is None else [proved] * 2)
        assert (norm, exact) == (theta, False) if proved else exact and 0.8 < norm < 0.9
        assert peak <= budget * 8 * b.dim ** 2, f"{peak / (8 * b.dim ** 2):.2f} n^2 doubles"


@pytest.mark.skipif(not _blas_thread_setters(), reason="no OpenBLAS thread setter")
@pytest.mark.parametrize("threads", [1, 2])
def test_tasks_run_on_one_blas_thread(threads):
    setters = _blas_thread_setters()
    before = [set_threads(2) for set_threads in setters]
    try:
        # each setter returns the count it replaces: 1 inside a task
        seen = _map_weights(lambda w: [s(1) for s in setters], [0, 1, 2], threads,
                            [POOL_MIN_DIM] * 3)
        assert seen == [[1] * len(setters)] * 3
        assert [set_threads(2) for set_threads in setters] == [2] * len(setters)
    finally:
        for set_threads, n in zip(setters, before):
            set_threads(n)


def test_small_blocks_run_on_the_calling_thread():
    caller = threading.get_ident()

    def task(w):
        return w, threading.get_ident() == caller

    big, small = POOL_MIN_DIM, POOL_MIN_DIM - 1
    got = _map_weights(task, list(range(5)), 2, [big, small, big, 3, big])
    assert got == [(0, False), (1, True), (2, False), (3, True), (4, False)]
    # a pool for one task does not pay: it runs on the calling thread too
    assert _map_weights(task, [0, 1], 2, [big, small]) == [(0, True), (1, True)]
    assert _map_weights(task, [0, 1], 1, [big, big]) == [(0, True), (1, True)]


@pytest.mark.skipif(not _blas_thread_setters(), reason="no OpenBLAS thread setter")
def test_overlapping_passes_share_one_blas_pin():
    # the count is process-wide: passes from several caller threads must all
    # run pinned, and the count must come back once the last one ends
    setters = _blas_thread_setters()
    before = [set_threads(2) for set_threads in setters]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    seen = []

    def task(w):
        time.sleep(0.001)
        seen.append([s(1) for s in setters])

    def caller():
        for _ in range(5):
            _map_weights(task, list(range(4)), 2, [POOL_MIN_DIM] * 4)

    callers = [threading.Thread(target=caller) for _ in range(4)]
    try:
        for c in callers:
            c.start()
        for c in callers:
            c.join(timeout=60)
        assert not any(c.is_alive() for c in callers)
        assert seen == [[1] * len(setters)] * (4 * 5 * 4)
        assert [set_threads(2) for set_threads in setters] == [2] * len(setters)
    finally:
        sys.setswitchinterval(interval)
        for set_threads, n in zip(setters, before):
            set_threads(n)


class TestBlockOperator:
    def test_keys_are_all_nontrivial_weights(self, haar_pair_d2):
        op = build_block_operator(haar_pair_d2, 4)
        assert isinstance(op, BlockOperator)
        assert set(op.blocks) == set(enumerate_nontrivial_weights(2, 4))
        assert op.scale == 4


def cli_convolution_square(gs, t, threads=1) -> dict:
    """The document of `gap --convolution-square` on gs at scale t, less the
    config echo (its temporary path and thread count)."""
    with tempfile.TemporaryDirectory() as tmp:
        gates, out = os.path.join(tmp, "gates.json"), os.path.join(tmp, "gap.json")
        save_gateset(gs, gates)
        assert main(["gap", "--gates", gates, "--t", str(t), "--convolution-square",
                     "--threads", str(threads), "--no-progress", "--out", out]) == 0
        with open(out) as fh:
            doc = json.load(fh)
    del doc["config"]
    return doc


def check_against_squared_blocks(gs, t) -> dict:
    """The CLI's convolution-square gap against 1 - max ||B^dagger B|| over the
    oracle's blocks B, and the sandwich gap_sq >= gap >= gap_sq / 2."""
    doc = cli_convolution_square(gs, t)
    gap_sq = squared_blocks_gap(gs, t)
    assert doc["convolution_square_gap"] == pytest.approx(gap_sq, abs=1e-12)
    assert doc["sandwich_residual"] <= 1e-12
    assert gap_sq >= doc["gap"] - 1e-12 and doc["gap"] >= 0.5 * gap_sq - 1e-12
    return doc


class TestConvolutionSquare:
    def test_sandwich(self, haar_pair_d2, haar_pair_d3):
        for gs, t in ((haar_pair_d2, 4), (haar_pair_d3, 3)):
            doc = check_against_squared_blocks(gs, t)
            assert doc == cli_convolution_square(gs, t, threads=2)

    def test_identity_set(self):
        gs = make_gateset(2, [("e", np.eye(2, dtype=complex))])
        doc = check_against_squared_blocks(gs, 2)
        assert doc["convolution_square_gap"] == pytest.approx(0.0, abs=1e-12)


class TestConvergenceProfile:
    def test_profile_decay(self, haar_pair_d2):
        rep = gap_at_scale(haar_pair_d2, 3)
        prof = convergence_profile(haar_pair_d2, 3, 6)
        assert len(prof) == 6
        # nonincreasing, bounded by the (1 - gap)^ell envelope
        assert all(a >= b - 1e-12 for a, b in zip(prof, prof[1:]))
        for ell, val in enumerate(prof, start=1):
            assert val <= (1.0 - rep.gap) ** ell + 1e-9

    def test_trivial_bound(self, haar_pair_d2):
        prof = convergence_profile(haar_pair_d2, 2, 3)
        assert all(0.0 <= v <= 1.0 + 1e-12 for v in prof)

    def test_validation(self, haar_pair_d2):
        with pytest.raises(DomainError):
            convergence_profile(haar_pair_d2, 2, 0)


# -- hypothesis properties -----------------------------------------------------


@settings(max_examples=10)
@given(st.integers(0, 10_000), st.integers(1, 4))
def test_gap_in_range_property(seed, t):
    gs = haar_random_gateset(2, 2, seed=seed)
    rep = gap_at_scale(gs, t, every_norm=True)
    assert -1e-8 <= rep.gap <= 1.0
    for norm in rep.per_weight_norms.values():
        assert norm <= 1.0 + 1e-8


@settings(max_examples=8)
@given(st.integers(0, 10_000))
def test_sandwich_property(seed):
    # the two-sided comparison between gap and squared-operator gap holds for
    # any symmetric set, mixing or not (single pairs are the degenerate case)
    check_against_squared_blocks(haar_random_gateset(2, 1, seed=seed), 2)
