import dataclasses
import os
import subprocess
import sys
import textwrap
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import scipy.linalg
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gapforge
import gapforge.avgop
import gapforge.bounds
from gapforge.errors import DomainError, ResourceLimitError
from gapforge.gates import _haar_unitary, haar_random_gateset, squared_set
from gapforge.irrep import (
    _amplitudes,
    _keys,
    _patterns,
    _product,
    _real_form_map,
    _shape_generators,
    build_basis,
    cached_basis,
    check_dim_cap,
    gate_factors,
    irrep_matrix,
    jy_frame,
)
from gapforge.weightlat import Weight, enumerate_nontrivial_weights, weyl_dimension

from _oracles import (
    algebra_image,
    basis_arrays,
    check_generator_relations,
    exp_image,
    frobenius_schur_montecarlo,
    generator_images,
    reference_basis,
    reference_shape_generators,
    to_real_form,
    weyl_character,
)


def rand_unitary(d, seed):
    return _haar_unitary(d, np.random.default_rng(seed))


def su_basis(d):
    """Orthonormal (Frobenius) Hermitian traceless basis of su(d)."""
    out = []
    for a in range(d):
        for b in range(a + 1, d):
            X = np.zeros((d, d), dtype=complex)
            X[a, b] = X[b, a] = 1 / np.sqrt(2)
            out.append(X)
            Y = np.zeros((d, d), dtype=complex)
            Y[a, b] = -1j / np.sqrt(2)
            Y[b, a] = 1j / np.sqrt(2)
            out.append(Y)
    for a in range(1, d):
        Z = np.zeros((d, d), dtype=complex)
        Z[:a, :a] = np.eye(a)
        Z[a, a] = -a
        Z /= np.sqrt(a * (a + 1))
        out.append(Z)
    return out


class TestBasisStructure:
    def test_trivial_weight(self):
        b = build_basis(Weight((0, 0)))
        assert b.dim == 1

    def test_adjoint_su2(self):
        b = build_basis(Weight((1, -1)))
        assert b.dim == 3
        full = generator_images(b)
        cartan = (full[(1, 1)] - full[(2, 2)]).todense()
        assert sorted(np.real(np.diag(cartan)).tolist()) == [-2.0, 0.0, 2.0]

    def test_dims_match_weyl(self):
        for w in enumerate_nontrivial_weights(3, 3):
            assert build_basis(w).dim == weyl_dimension(w)

    def test_pattern_weights_sum_zero(self):
        pw = basis_arrays(Weight((2, 0, -2)))["pattern_weights"]
        assert pw.shape == (27, 3) and np.all(pw.sum(axis=1) == 0)

    def test_dim_cap(self, monkeypatch):
        def no_patterns(sig):
            raise AssertionError("a pattern was made above the cap")

        monkeypatch.setattr(gapforge.irrep, "DIM_CAP", 1000)
        monkeypatch.setattr(gapforge.irrep, "_patterns", no_patterns)
        with pytest.raises(ResourceLimitError, match="> cap 1000"):
            build_basis(Weight((30, 0, 0, -30)))

    @pytest.mark.parametrize("d, t_max", [(2, 30), (3, 30), (4, 10)])
    def test_dim_cap_of_a_scale_is_its_largest_weight(self, d, t_max, monkeypatch):
        for t in range(1, t_max + 1):
            top = max(map(weyl_dimension, enumerate_nontrivial_weights(d, t)))
            monkeypatch.setattr(gapforge.irrep, "DIM_CAP", top)
            check_dim_cap(d, t)
            monkeypatch.setattr(gapforge.irrep, "DIM_CAP", top - 1)
            with pytest.raises(ResourceLimitError, match=f"dimension {top} > cap {top - 1}"):
                check_dim_cap(d, t)

    def test_scale_above_the_cap_is_refused_before_enumerating(self, monkeypatch):
        def no_weights(d, t):
            raise AssertionError("weights were enumerated above the cap")

        monkeypatch.setattr(gapforge.avgop, "enumerate_nontrivial_weights", no_weights)
        monkeypatch.setattr(gapforge.irrep, "enumerate_nontrivial_weights", no_weights)
        gs = haar_random_gateset(2, 2, seed=1729)
        with pytest.raises(ResourceLimitError, match="dimension 2000003 > cap"):
            gapforge.avgop.gap_at_scale(gs, 1_000_001)
        with pytest.raises(ResourceLimitError, match="scale t=3609492 "):
            gapforge.bounds.g_t0(gs, eps0=1e-4)
        with pytest.raises(ResourceLimitError, match="scale t=100000 of PU\\(4\\)"):
            gapforge.avgop.gap_at_scale(haar_random_gateset(4, 2, seed=1729), 100_000)

    @pytest.mark.parametrize(
        "entries",
        [(1, -1), (3, -3), (1, 0, -1), (2, -1, -1), (2, 0, -2), (1, 0, 0, -1), (2, 1, -1, -2)],
    )
    def test_commutation_relations(self, entries):
        assert check_generator_relations(build_basis(Weight(entries)), tol=1e-10) <= 1e-10

    def test_cached_basis_identity(self):
        assert cached_basis(Weight((2, -2))) is cached_basis(Weight((2, -2)))


def _assert_same(got, want, where=""):
    """Bit for bit: arrays of one dtype, shape and bytes; tuples, lists,
    dataclasses and other values element by element."""
    if isinstance(got, np.ndarray) or isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray) and isinstance(want, np.ndarray), where
        assert (got.dtype, got.shape) == (want.dtype, want.shape), where
        assert got.tobytes() == want.tobytes(), where
    elif dataclasses.is_dataclass(want):
        assert type(got) is type(want), where
        for f in dataclasses.fields(want):
            _assert_same(getattr(got, f.name), getattr(want, f.name), f"{where}.{f.name}")
    elif isinstance(want, (tuple, list)):
        assert type(got) is type(want) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_same(g, w, f"{where}[{i}]")
    else:
        assert type(got) is type(want) and got == want, where


class TestArrayBuilder:
    """build_basis against the tuple construction it replaced, its checks
    under python -O, the memory a cached basis holds and the d = 2 basis
    that is its weight and n alone."""

    @pytest.mark.parametrize("d, t", [(2, 40), (3, 6), (4, 3)])
    def test_fields_match_the_tuple_builder_bit_for_bit(self, d, t):
        # every field of the basis but its weight and dim, and the arrays
        # that build_basis makes and drops, by the builder's own functions;
        # a d = 2 basis keeps no couplings, m, Jy chain or fold
        # (jy_frame makes them from n)
        for w in enumerate_nontrivial_weights(d, t):
            b = build_basis(w)
            got = {**basis_arrays(w), **{f.name: getattr(b, f.name) for f in dataclasses.fields(b)}}
            want = reference_basis(w)
            assert set(got) - set(want) == {"weight", "dim", "shift"}
            assert set(want) - set(got) == (
                {"couplings", "m", "jy_blocks", "fold"} if d == 2 else set())
            assert b.dim == len(want["patterns"]) == weyl_dimension(w)
            for name in set(got) & set(want):
                _assert_same(got[name], want[name], f"{w.entries}.{name}")

    def test_d2_frame_inputs_match_the_tuple_builder_bit_for_bit(self, monkeypatch):
        # jy_frame derives m, the chain's arguments to _rotation_block and
        # the real fold from n alone, per pass; they must be what the
        # reference builds from the patterns
        seen = []
        solve = gapforge.irrep._rotation_block
        monkeypatch.setattr(gapforge.irrep, "_rotation_block",
                            lambda *a: seen.append(a) or solve(*a))
        for j in range(1, 61):
            b = build_basis(Weight((j, -j)))
            seen.clear()
            frame = jy_frame(b)
            want = reference_basis(b.weight)
            _assert_same(tuple(seen), want["jy_blocks"], str(j))
            _assert_same(frame.m, want["m"], f"{j}.m")
            _assert_same(frame.fold, want["fold"], f"{j}.fold")

    def test_shape_generators_match_the_tuple_builder(self):
        for shape in [(1, 0), (4, 0), (2, 1, 0), (3, 1, 0), (2, 2, 1, 0)]:
            _assert_same(_shape_generators(shape), reference_shape_generators(shape), str(shape))

    def test_keys_order_rows_past_int64(self):
        # 40 digits of base 10 overflow int64: the keys recode to ranks
        rows = np.random.default_rng(5).integers(0, 10, size=(500, 40))
        rows[250:] = rows[:250]  # every row twice
        key = _keys(rows)
        order = np.lexsort(rows.T[::-1])
        assert np.all(np.diff(key[order]) >= 0)
        same = np.all(rows[order][1:] == rows[order][:-1], axis=1)
        assert np.array_equal(np.diff(key[order]) == 0, same)

    def test_amplitude_factors_must_stay_exact(self):
        assert _product(np.array([[-(2**26), 2**26], [2**40, 0]])).tolist() == [-(2**52), 0]
        for F in ([[2**26, 2**27]], [[2**40, 2**40]]):  # 2^53, and past int64
            with pytest.raises(ResourceLimitError, match="2\\^53"):
                _product(np.array(F))

    def test_build_checks_survive_python_O(self):
        # a pattern below its range gives a negative amplitude square, where
        # a vectorized sqrt would return NaN; a wrong count must raise too
        # (d = 3: a d = 2 basis builds no patterns)
        script = textwrap.dedent("""
            from gapforge import irrep
            from gapforge.weightlat import Weight

            assert False, "assert statements must be stripped here"
            patterns = irrep._patterns
            bad = patterns((2, 1, 0))
            bad[4, 2] = -2  # m_11 of (2, 0 | 0), below its range 0 .. 2
            irrep._patterns = lambda sig: bad
            try:
                irrep.build_basis(Weight((1, 0, -1)))
            except AssertionError as exc:
                print("raised:", exc)
            irrep._patterns = patterns
            irrep.weyl_dimension = lambda w: 9
            try:
                irrep.build_basis(Weight((1, 0, -1)))
            except AssertionError as exc:
                print("raised:", exc)
        """)
        env = {**os.environ, "PYTHONPATH": str(Path(gapforge.__file__).resolve().parents[1])}
        proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "raised: a GT amplitude of E_12 has num < 0 or den <= 0",
            "raised: 8 GT patterns for an irrep of dimension 9",
        ]

    def test_cached_bases_hold_at_most_512_bytes_per_weight(self):
        # a d = 2 basis is its weight and n, whatever n is: the same bound at
        # small and at large j (this measured 350-375 bytes per weight)
        for low in (1, 2001):
            cached_basis.cache_clear()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                for j in range(low, low + 120):
                    cached_basis(Weight((j, -j)))
                held = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
            assert held <= 512 * 120, (low, held / 120)

    def test_d2_couplings_are_the_builders_bit_for_bit(self):
        # jy_frame's T[r, r+1] = sqrt(k (n - k)) / 2, k = r + 1, is half the
        # builder's E_12 amplitude: the same integer numerator over 1.0
        for j in [*range(1, 601), 1559]:
            n = 2 * j + 1
            sig = (2 * j, 0)
            rows, cols, vals = _amplitudes(_patterns(sig), sig)[0]
            k = np.arange(1, n)
            assert np.array_equal(rows, k - 1) and np.array_equal(cols, k), j
            _assert_same(0.5 * np.sqrt(k * (n - k)), 0.5 * vals, str(j))

    def test_d2_build_makes_no_patterns_amplitudes_or_real_structure(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a d = 2 basis built GT data")

        for name in ("_patterns", "_amplitudes", "_real_structure"):
            monkeypatch.setattr(gapforge.irrep, name, refuse)
        for j in (1, 2, 60, 1559):
            b = build_basis(Weight((j, -j)))
            assert (b.dim, b.real_basis, b.frame, b.spans, b.shapes, b.shape_of) == (
                2 * j + 1, None, None, None, (), ())
            if j <= 60:  # the frame and the image come from n alone
                irrep_matrix(b, rand_unitary(2, j), real=True)


class TestRealStructure:
    @pytest.mark.parametrize(
        "entries",
        [(1, -1), (4, -4), (1, 0, -1), (2, 0, -2), (1, 0, 0, -1), (1, 1, -1, -1),
         (2, 1, -1, -2)],
    )
    def test_signed_permutation_conjugates_images(self, entries):
        b = build_basis(Weight(entries))
        perm, sign = basis_arrays(Weight(entries))["real_structure"]
        n = b.dim
        J = np.zeros((n, n))
        J[perm, np.arange(n)] = sign
        assert sorted(perm) == list(range(n))
        assert set(sign) <= {-1.0, 1.0}
        assert np.array_equal(J, J.T)
        assert np.array_equal(J @ J, np.eye(n))
        for seed in (1, 2):
            P = irrep_matrix(b, rand_unitary(b.d, seed))
            assert np.abs(P.conj() - J @ P @ J.T).max() <= 1e-12

    def test_complex_weight_has_none(self):
        assert basis_arrays(Weight((2, -1, -1)))["real_structure"] is None
        assert build_basis(Weight((2, -1, -1))).real_basis is None

    def test_corrupted_sign_raises_under_optimize(self):
        # the edge-by-edge check on J must survive python -O
        script = textwrap.dedent("""
            from gapforge.irrep import (
                _amplitudes, _check_real_structure, _patterns, _real_structure)

            assert False, "assert statements must be stripped here"
            sig = (4, 2, 0)  # the weight (2, 0, -2), shifted
            P = _patterns(sig)
            amplitudes = _amplitudes(P, sig)
            perm, sign = _real_structure(P, sig, amplitudes)
            _check_real_structure(amplitudes, perm, sign)
            for i in (0, 9, 13):  # 9 is a fixed point of perm
                bad = sign.copy()
                bad[i] = -bad[i]
                try:
                    _check_real_structure(amplitudes, perm, bad)
                except AssertionError as exc:
                    print("raised:", exc)
        """)
        src = str(Path(gapforge.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.count("raised: real structure") == 3


class TestCasimir:
    def test_adjoint_casimir_matches_structure_constants(self):
        # su(3) Casimir of the GT-built (1,0,-1) rep vs the same invariant on
        # the adjoint rep built directly from structure constants
        basis = build_basis(Weight((1, 0, -1)))
        gens = su_basis(3)

        cas_gt = np.zeros((basis.dim, basis.dim), dtype=complex)
        for T in gens:
            img = algebra_image(basis, T)
            cas_gt += img @ img
        scal_gt = cas_gt[0, 0].real
        assert np.allclose(cas_gt, scal_gt * np.eye(basis.dim), atol=1e-10)

        n = len(gens)
        ad = np.zeros((n, n, n), dtype=complex)  # ad[k][l, j] = <T_l, [T_k, T_j]>
        for k, Tk in enumerate(gens):
            for j, Tj in enumerate(gens):
                comm = Tk @ Tj - Tj @ Tk
                for l, Tl in enumerate(gens):
                    ad[k][l, j] = np.trace(Tl.conj().T @ comm)
        cas_ad = sum(ad[k] @ ad[k] for k in range(n))
        scal_ad = cas_ad[0, 0].real
        assert np.allclose(cas_ad, scal_ad * np.eye(n), atol=1e-10)

        # both are the adjoint irrep, so the invariants agree
        assert scal_gt == pytest.approx(scal_ad, abs=1e-10)

    def test_gl_casimir_scalar(self):
        # sum_ab E_ab E_ba must be a scalar on any irrep (Schur), with value
        # sum_i m_i (m_i + d + 1 - 2i) on the shifted signature
        for entries in [(1, -1), (2, 0, -2), (1, 1, -2)]:
            b = build_basis(Weight(entries))
            d = b.d
            full = generator_images(b)
            cas = np.zeros((b.dim, b.dim), dtype=complex)
            for a in range(1, d + 1):
                for c in range(1, d + 1):
                    cas += (full[(a, c)] @ full[(c, a)]).todense()
            sig = tuple(x - entries[-1] for x in entries)
            want = sum(m * (m + d + 1 - 2 * (i + 1)) for i, m in enumerate(sig))
            assert np.allclose(cas, want * np.eye(b.dim), atol=1e-10)


class TestIrrepMatrix:
    def test_identity(self):
        b = build_basis(Weight((1, -1)))
        assert np.allclose(irrep_matrix(b, np.eye(2)), np.eye(3), atol=1e-12)

    def test_torus_adjoint_spectrum(self):
        # diag(e^{i phi}, e^{-i phi}) acts on the adjoint with phases 2phi, 0, -2phi
        b = build_basis(Weight((1, -1)))
        phi = 0.37
        U = np.diag([np.exp(1j * phi), np.exp(-1j * phi)])
        P = irrep_matrix(b, U)
        got = np.sort(np.angle(np.linalg.eigvals(P)))
        want = np.sort([2 * phi, 0.0, -2 * phi])
        assert np.allclose(got, want, atol=1e-10)

    def test_adjoint_against_conjugation_action(self):
        # pi_(1,0,-1)(U) is unitarily equivalent to X -> U X U^dagger on
        # traceless matrices; compare characters, which are basis-free
        b = build_basis(Weight((1, 0, -1)))
        for seed in range(6):
            U = rand_unitary(3, seed)
            got = np.trace(irrep_matrix(b, U))
            want = abs(np.trace(U)) ** 2 - 1.0
            assert got == pytest.approx(want, abs=1e-8)

    @pytest.mark.parametrize("entries", [(1, -1), (4, -4), (2, -1, -1), (2, 0, -2), (1, 0, 0, -1)])
    def test_unitarity_and_homomorphism(self, entries):
        b = build_basis(Weight(entries))
        d = b.d
        U = rand_unitary(d, 11)
        V = rand_unitary(d, 12)
        PU = irrep_matrix(b, U)
        PV = irrep_matrix(b, V)
        PUV = irrep_matrix(b, U @ V)
        n = b.dim
        assert np.linalg.norm(PU.conj().T @ PU - np.eye(n), 2) <= 1e-8
        assert np.linalg.norm(PU @ PV - PUV, 2) <= 1e-6
        Pinv = irrep_matrix(b, U.conj().T)
        assert np.linalg.norm(Pinv - PU.conj().T, 2) <= 1e-6

    def test_projective_phase_invariance(self):
        for entries in [(2, 0, -2), (3, -3)]:
            b = build_basis(Weight(entries))
            U = rand_unitary(b.d, 4)
            U = U / np.linalg.det(U) ** (1 / b.d)
            # at d = 2 the principal sqrt(det) jumps at theta = pi/2, and from
            # there to theta near pi the Euler path factors -U where theta = 0
            # factors U
            for theta in (0.1, 2.0, np.pi / 3, 2 * np.pi / 3, np.pi / 2 - 1e-9,
                          np.pi / 2 + 1e-9, np.pi - 1e-9, np.pi, np.pi + 1e-9):
                P1 = irrep_matrix(b, U)
                P2 = irrep_matrix(b, np.exp(1j * theta) * U)
                assert np.linalg.norm(P1 - P2, 2) <= 1e-10

    def test_character_matches_weyl(self):
        for entries, d in [((1, -1), 2), ((2, -2), 2), ((1, 0, -1), 3), ((2, -1, -1), 3)]:
            b = build_basis(Weight(entries))
            U = rand_unitary(d, 21)
            phases = np.angle(np.linalg.eigvals(U))
            got = np.trace(irrep_matrix(b, U))
            want = weyl_character(Weight(entries), phases)
            # the character of the projective rep picks up the centering phase,
            # which is trivial here because |lambda| = 0
            assert got == pytest.approx(want, abs=1e-6)

    def test_rejects_nonunitary(self):
        b = build_basis(Weight((1, -1)))
        with pytest.raises(DomainError):
            irrep_matrix(b, np.array([[1.0, 0.1], [0.0, 1.0]]))

    @settings(max_examples=15)
    @given(st.integers(0, 10_000))
    def test_unitary_output_property(self, seed):
        b = cached_basis(Weight((3, -3)))
        U = rand_unitary(2, seed)
        P = irrep_matrix(b, U)
        assert np.linalg.norm(P.conj().T @ P - np.eye(b.dim), 2) <= 1e-8


def _degenerate_su2_gates() -> list:
    """Gates whose ZYZ Euler angles degenerate (beta = 0 or pi, or a second
    row with an entry 0 or 1 in modulus), plus a nearly diagonal one."""
    h = 1 / np.sqrt(2)
    e = np.exp(0.7j)
    b = 1e-9
    return [
        np.eye(2), -np.eye(2),
        np.diag([e, e.conjugate()]),                        # beta = 0
        np.array([[0, e], [-e.conjugate(), 0]]),            # beta = pi
        np.array([[0, 1], [1, 0]]),                         # Pauli X
        np.array([[0, -1j], [1j, 0]]),                      # Pauli Y
        np.diag([1.0, -1.0]),                               # Pauli Z
        np.array([[h, h], [h, -h]]),                        # Hadamard
        np.array([[np.cos(b), -np.sin(b)], [np.sin(b), np.cos(b)]]) @ np.diag([e, 1 / e]),
    ]


class TestEulerImage:
    """The d = 2 image path against the eigendecomposition path."""

    def test_matches_exp_path_up_to_j60(self):
        gates = [rand_unitary(2, seed) for seed in (31, 32)] + _degenerate_su2_gates()
        worst = 0.0
        for j in range(1, 61):
            b = cached_basis(Weight((j, -j)))
            frame = jy_frame(b)
            for U in gates:
                U = np.asarray(U, dtype=np.complex128)
                got = irrep_matrix(b, U, frame=frame)
                worst = max(worst, float(np.abs(got - exp_image(b, U)).max()))
        assert worst <= 1e-12

    def test_frame_built_on_the_fly_is_the_same(self):
        b = cached_basis(Weight((7, -7)))
        U = rand_unitary(2, 5)
        assert np.array_equal(irrep_matrix(b, U), irrep_matrix(b, U, frame=jy_frame(b)))

    def test_frame_spectrum(self):
        b = cached_basis(Weight((4, -4)))
        frame = jy_frame(b)
        (block,) = frame.blocks  # T is one tridiagonal block at d = 2
        assert block.mu.tolist() == list(range(5))
        assert frame.m.tolist() == list(range(4, -5, -1))  # descending GT order
        assert np.arange(9)[block.even].tolist() == [0, 2, 4, 6, 8]
        assert np.arange(9)[block.odd].tolist() == [1, 3, 5, 7]
        assert (block.s_even.shape, block.s_odd.shape) == ((5, 5), (4, 5))
        assert b.spans is None  # K is diagonal at d = 2

    def test_frame_rejected_where_it_does_not_apply(self):
        b3 = cached_basis(Weight((1, 0, -1)))
        b2 = cached_basis(Weight((2, -2)))
        # a conjugate weight has the dimension but not the frame
        b21 = cached_basis(Weight((2, -1, -1)))
        with pytest.raises(DomainError):
            irrep_matrix(b21, rand_unitary(3, 1), frame=jy_frame(cached_basis(Weight((1, 1, -2)))))
        with pytest.raises(DomainError):
            irrep_matrix(b3, rand_unitary(3, 1), frame=jy_frame(b2))
        with pytest.raises(DomainError):
            irrep_matrix(b2, rand_unitary(2, 1), frame=jy_frame(cached_basis(Weight((3, -3)))))

    def test_checks_the_gate(self):
        b = cached_basis(Weight((2, -2)))
        frame = jy_frame(b)
        with pytest.raises(DomainError):
            irrep_matrix(b, np.array([[1.0, 0.1], [0.0, 1.0]]), frame=frame)
        with pytest.raises(DomainError):
            irrep_matrix(b, np.eye(3), frame=frame)

    @pytest.mark.skipif(
        not os.environ.get("GAPFORGE_FULL_SCALE"),
        reason="about 35 s; set GAPFORGE_FULL_SCALE=1 to cross-check up to j = 509",
    )
    def test_matches_exp_path_up_to_j509(self):
        sq = squared_set(haar_random_gateset(2, 2, seed=1729))
        worst = worst_real = 0.0
        for j in range(495, 510):
            b = build_basis(Weight((j, -j)))  # uncached: 15 bases of dim ~1000
            frame = jy_frame(b)
            form = _real_form_map(*basis_arrays(b.weight)["real_structure"])
            for _, U in sq.pairs:
                want = exp_image(b, U)
                worst = max(worst, float(np.abs(irrep_matrix(b, U, frame=frame) - want).max()))
                real = irrep_matrix(b, U, frame=frame, real=True)
                worst_real = max(worst_real,
                                 float(np.abs(real - to_real_form(form, want)).max()))
        print(f"max |euler - exp| over j = 495..509: {worst:.3e}, real form {worst_real:.3e}")
        assert worst <= 1e-12
        assert worst_real <= 3e-13


class TestRealImage:
    """Images in the real basis: at d = 2 built there, against the complex
    image taken there by the real-form map; at d >= 3 that map's."""

    def test_matches_the_real_form_map_up_to_j60(self):
        # odd and even j; Haar gates, and beta = 0 and beta = pi among the others
        gates = [rand_unitary(2, seed) for seed in (51, 52)] + _degenerate_su2_gates()
        worst = 0.0
        for j in range(1, 61):
            b = cached_basis(Weight((j, -j)))
            frame = jy_frame(b)
            form = _real_form_map(*basis_arrays(b.weight)["real_structure"])
            for U in gates:
                U = np.asarray(U, dtype=np.complex128)
                got = irrep_matrix(b, U, frame=frame, real=True)
                assert got.dtype == np.float64
                want = to_real_form(form, irrep_matrix(b, U, frame=frame))
                worst = max(worst, float(np.abs(got - want).max()))
        assert worst <= 1e-13

    @pytest.mark.parametrize("entries", [(1, 0, -1), (2, 0, -2), (1, 0, 0, -1), (2, 0, 0, -2),
                                         (8, 0, -8)])
    def test_matches_the_real_form_of_the_exp_path_at_d3_d4(self, entries):
        # (8, 0, -8), n = 729, is gap-d3's largest weight; the middle span of
        # (2, 0, 0, -2) is its own J-partner, so C mixes vectors within it
        b = cached_basis(Weight(entries))
        d = b.d
        if entries == (2, 0, 0, -2):
            pairs, _ = b.real_basis
            assert (len(b.spans) // 2,) in [parts for _, parts, _, _ in pairs]
        form = _real_form_map(*basis_arrays(b.weight)["real_structure"])
        for U in [rand_unitary(d, seed) for seed in (54, 55)] + _degenerate_cs_gates(d, 56):
            got = irrep_matrix(b, U, real=True)
            assert got.dtype == np.float64
            assert np.abs(got - to_real_form(form, exp_image(b, U))).max() <= 1e-12

    def test_real_images_need_a_self_conjugate_weight(self):
        b = cached_basis(Weight((2, -1, -1)))
        assert b.real_basis is None
        with pytest.raises(DomainError, match="self-conjugate"):
            irrep_matrix(b, rand_unitary(3, 53), real=True)

    def test_svd_frame_is_orthonormal_at_n1019(self):
        b = build_basis(Weight((509, -509)))  # uncached
        (block,) = jy_frame(b).blocks
        n = b.dim
        S = np.empty((n, block.mu.size))
        S[block.even], S[block.odd] = block.s_even, block.s_odd
        S *= (1 - (np.arange(n) & 2))[:, None]  # p = GT index at d = 2
        assert block.mu.tolist() == list(range(510))
        assert np.abs(S.T @ S - np.eye(block.mu.size)).max() <= 1e-13
        E = generator_images(b)[(1, 2)]
        T = 0.5 * (E + E.T).real
        assert np.abs(T @ S - S * block.mu).max() <= 1e-12

    def test_probe_survives_python_O(self):
        # a frame whose even rows are off by 1e-6 gives a real image that is
        # not orthogonal; the probe must raise under -O too
        script = textwrap.dedent("""
            import dataclasses
            import numpy as np
            from gapforge.irrep import cached_basis, irrep_matrix, jy_frame
            from gapforge.weightlat import Weight
            b = cached_basis(Weight((5, -5)))
            frame = jy_frame(b)
            (block,) = frame.blocks
            bad = dataclasses.replace(
                frame, blocks=(block._replace(s_even=block.s_even * (1 + 1e-6)),))
            U = np.array([[0.6, 0.8j], [0.8j, 0.6]])
            irrep_matrix(b, U, frame=frame, real=True)
            try:
                irrep_matrix(b, U, frame=bad, real=True)
            except AssertionError as exc:
                print(exc)
        """)
        env = {**os.environ, "PYTHONPATH": str(Path(gapforge.__file__).resolve().parents[1])}
        proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("real image fails its probe by")


def _degenerate_cs_gates(d: int, seed: int) -> list:
    """Gates whose cosine-sine factorization degenerates: theta = 0 (I, a
    diagonal gate, a gate already in U(d-1) x U(1)), theta = pi/2 (a cyclic
    permutation) and theta = 1e-9."""
    rng = np.random.default_rng(seed)

    def block_gate():
        K = np.eye(d, dtype=np.complex128)
        K[:-1, :-1] = _haar_unitary(d - 1, rng)
        K[-1, -1] = np.exp(1j * rng.uniform(-np.pi, np.pi))
        return K

    h = 1e-9
    rot = np.eye(d, dtype=np.complex128)
    rot[d - 2:, d - 2:] = [[np.cos(h), -np.sin(h)], [np.sin(h), np.cos(h)]]
    return [
        np.eye(d),
        np.diag(np.exp(1j * rng.uniform(-np.pi, np.pi, d))),
        np.roll(np.eye(d), 1, axis=0),
        block_gate(),
        block_gate() @ rot @ block_gate(),
    ]


def _cs_oracle_error(weights, gates) -> float:
    worst = 0.0
    for w in weights:
        b = cached_basis(w)
        frame = jy_frame(b)
        for U in gates:
            got = irrep_matrix(b, U, frame=frame)
            worst = max(worst, float(np.abs(got - exp_image(b, U)).max()))
    return worst


class TestCosineSineImage:
    """The d >= 3 image path against the eigendecomposition path."""

    @pytest.mark.parametrize("d, t", [(3, 6), (4, 3)])
    def test_matches_exp_path(self, d, t):
        gates = [rand_unitary(d, seed) for seed in (41, 42)] + _degenerate_cs_gates(d, 43)
        assert _cs_oracle_error(enumerate_nontrivial_weights(d, t), gates) <= 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_factors_rebuild_the_gate(self, d):
        for U in [rand_unitary(d, 44)] + _degenerate_cs_gates(d, 45):
            f = gate_factors(U)
            c, s = np.cos(f.beta / 2), np.sin(f.beta / 2)
            rot = np.eye(d)
            rot[d - 2:, d - 2:] = [[c, -s], [s, c]]
            for L in (f.left, f.right):  # Hermitian, block diagonal like U(d-1) x U(1)
                assert np.abs(L - L.conj().T).max() <= 1e-14
                assert not L[:-1, -1].any() and not L[-1, :-1].any()
            M = scipy.linalg.expm(1j * f.left) @ rot @ scipy.linalg.expm(1j * f.right)
            phase = np.trace(U.conj().T @ M) / d  # M = phase * U
            assert abs(abs(phase) - 1) <= 1e-12
            assert np.abs(M - phase * U).max() <= 1e-12

    @pytest.mark.parametrize("d", [3, 4])
    def test_factors_keep_the_bits_of_scipy_linalg(self, d, monkeypatch):
        # gate_factors once took the split and the Schur form from scipy.linalg
        pairs = haar_random_gateset(d, 2, seed=1729).pairs
        gates = [U for _, U in pairs] + [U.conj().T for _, U in pairs]
        mine = [gate_factors(U) for U in gates]
        monkeypatch.setattr(gapforge.irrep, "cossin",
                            lambda X, p, q: scipy.linalg.cossin(X, p=p, q=q, separate=True))
        monkeypatch.setattr(gapforge.irrep, "schur",
                            lambda A: scipy.linalg.schur(A, output="complex"))
        for f, U in zip(mine, gates):
            g = gate_factors(U)
            assert f.beta == g.beta
            assert np.array_equal(f.left, g.left) and np.array_equal(f.right, g.right)

    @pytest.mark.parametrize("entries", [(1, 0, -1), (2, 0, -2), (4, -1, -3), (2, 1, -1, -2)])
    def test_frame_spectrum_and_shapes(self, entries):
        b = cached_basis(Weight(entries))
        arrays = basis_arrays(b.weight)
        pw = arrays["pattern_weights"]
        frame = jy_frame(b)
        n, d = b.dim, b.d
        E = generator_images(b)[(d - 1, d)].toarray().real
        T = 0.5 * (E + E.T)
        p = pw[:, d - 1] - pw[:, d - 1].min()
        m = (pw[:, d - 2] - pw[:, d - 1]) / 2
        seen = []
        for block in frame.blocks:
            even = np.arange(n)[block.even]
            odd = np.arange(n)[block.odd]
            idx = np.concatenate([even, odd])
            seen += idx.tolist()
            mu = block.mu
            assert block.s_even.shape == (even.size, mu.size)
            assert block.s_odd.shape == (odd.size, mu.size)
            assert np.all(p[even] % 2 == 0) and np.all(p[odd] % 2 == 1)
            # the spectrum of T on the block is +-mu, exactly Jz = (pw_{d-1} - pw_d) / 2
            assert sorted(np.concatenate([-mu[mu > 0], mu])) == sorted(m[idx])
            # the columns, unscaled by s = (-1)^floor(p / 2), are orthonormal eigenvectors
            Q = np.concatenate([block.s_even, block.s_odd]) * (1 - (p[idx] & 2))[:, None]
            assert np.abs(Q.T @ Q - np.eye(mu.size)).max() <= 1e-13
            assert np.abs(T[np.ix_(idx, idx)] @ Q - Q * mu).max() <= 1e-12
            assert not T[np.ix_(idx, np.setdiff1d(np.arange(n), idx))].any()
        assert sorted(seen) == list(range(n))
        # spans: the runs of equal row d-1, one shape and offset each
        starts = [s for s, _ in b.spans]
        assert starts[0] == 0 and [e for _, e in b.spans][-1] == n
        assert [e for _, e in b.spans][:-1] == starts[1:]
        rows = [{tuple(row) for row in arrays["patterns"][s:e, : d - 1].tolist()}
                for s, e in b.spans]
        assert all(len(r) == 1 for r in rows)
        assert all(r != q for r, q in zip(rows, rows[1:]))
        assert len(b.shape_of) == len(b.spans)
        assert len({shape for shape, _ in b.shapes}) == len(b.shapes)
        for (k, c, pw_d), (s, e), (row,) in zip(b.shape_of, b.spans, rows):
            shape, gens = b.shapes[k]
            assert shape == tuple(x - row[-1] for x in row)
            assert gens.shape == ((d - 1) ** 2, e - s, e - s)
            assert c == row[-1] - arrays["shift"]
            assert np.all(pw[s:e, d - 1] == pw_d)

    def test_frame_built_on_the_fly_is_the_same(self):
        b = cached_basis(Weight((3, 0, -3)))
        U = rand_unitary(3, 46)
        assert np.array_equal(irrep_matrix(b, U), irrep_matrix(b, U, frame=jy_frame(b)))

    def test_factors_passed_in_are_used(self):
        b = cached_basis(Weight((2, 0, -2)))
        U = rand_unitary(3, 47)
        f = gate_factors(U)
        assert np.array_equal(irrep_matrix(b, U), irrep_matrix(b, U, factors=f))
        with pytest.raises(DomainError):
            irrep_matrix(b, U, factors=gate_factors(rand_unitary(2, 47)))
        with pytest.raises(DomainError):
            gate_factors(np.eye(3)[:, :2])

    @pytest.mark.skipif(
        not os.environ.get("GAPFORGE_FULL_SCALE"),
        reason="about 30 s; set GAPFORGE_FULL_SCALE=1 to cross-check n = 512, 595, 729",
    )
    def test_matches_exp_path_at_d3_t8(self):
        sq = haar_random_gateset(3, 2, seed=1729).symmetrized()
        weights = [w for w in enumerate_nontrivial_weights(3, 8)
                   if weyl_dimension(w) in (512, 595, 729)]
        assert len(weights) >= 3
        gates = [U for _, U in sq.pairs] + _degenerate_cs_gates(3, 48)
        worst = _cs_oracle_error(weights, gates)
        print(f"max |cs - exp| over n = 512, 595, 729: {worst:.3e}")
        assert worst <= 1e-12


class TestShapeTable:
    """The exp(i Y.G) of each U(d-1) shape that a gate's factors keep across
    the weights of a pass."""

    @pytest.mark.parametrize("d, t", [(3, 5), (4, 3)])
    def test_shared_factors_match_fresh_ones_bit_for_bit(self, d, t):
        weights = enumerate_nontrivial_weights(d, t)
        U = rand_unitary(d, 61)
        fresh = {w: irrep_matrix(cached_basis(w), U, factors=gate_factors(U)) for w in weights}
        shapes = {shape for w in weights for shape, _ in cached_basis(w).shapes}
        for order in (weights, weights[::-1]):
            shared = gate_factors(U)
            for w in order:
                got = irrep_matrix(cached_basis(w), U, factors=shared)
                assert np.array_equal(got, fresh[w]), w
            assert all(set(table) == shapes for table in shared.shape_images)

    def test_threads_sharing_factors_solve_each_shape_once(self, monkeypatch):
        # eight threads, each walking the weights from another start, share
        # one gate's factors; a lost or doubled table entry would show in the
        # count of U(3) solves or in the bits
        weights = enumerate_nontrivial_weights(4, 3)
        U = rand_unitary(4, 62)
        frames = {w: jy_frame(cached_basis(w)) for w in weights}
        fresh = {w: irrep_matrix(cached_basis(w), U, frame=frames[w]) for w in weights}
        shapes = {shape for w in weights for shape, _ in cached_basis(w).shapes}
        calls = []
        eigh = np.linalg.eigh

        def counted(a, *args, **kwargs):
            if np.iscomplexobj(a):
                calls.append(a.shape)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        shared = gate_factors(U)
        got = {}

        def work(i):
            for w in weights[i:] + weights[:i]:
                got[i, w] = irrep_matrix(cached_basis(w), U, frame=frames[w], factors=shared)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work, args=(i,)) for i in range(8)]
            for t in workers:
                t.start()
            for t in workers:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in workers)
        assert len(got) == 8 * len(weights)
        assert all(np.array_equal(P, fresh[w]) for (_, w), P in got.items())
        assert len(calls) == 2 * len(shapes)

    def test_span_checks_survive_python_O(self):
        # a shape's images off by 1e-6, two shapes of one size swapped, a
        # span's offset off by one, and one entry of a used shape's E_12 moved
        # by one ulp must raise under -O too
        script = textwrap.dedent("""
            import numpy as np
            from gapforge.irrep import (
                _amplitudes, _check_spans, _pattern_weights, _patterns, _shape_generators,
                cached_basis)
            from gapforge.weightlat import Weight
            b = cached_basis(Weight((2, 1, -1, -2)))
            sig = (4, 3, 1, 0)  # the weight, shifted by 2
            P = _patterns(sig)
            pw = _pattern_weights(P, sig) - 2
            amplitudes = _amplitudes(P, sig)[:-1]
            gens = [_shape_generators(shape) for shape, _ in b.shapes]
            ks = b.shape_of[:, 0].tolist()
            _check_spans(amplitudes, pw, b.spans, b.shape_of, gens)
            size = [len(w) for _, w in gens]
            k = size.index(max(size))
            bad = gens[:k] + [(gens[k][0] + 1e-6, gens[k][1])] + gens[k + 1:]
            twins = [(i, j) for i in range(len(gens)) for j in range(i)
                     if size[i] == size[j] and i in ks and j in ks]
            i, j = twins[0]
            swapped = list(gens)
            swapped[i], swapped[j] = (gens[j][0], gens[i][1]), (gens[i][0], gens[j][1])
            shifted = b.shape_of.copy()
            shifted[0, 1] += 1
            G = gens[k][0].copy()
            r, c = np.argwhere(G[1])[0]  # E_12 of a U(3) shape
            G[1, r, c] = np.nextafter(G[1, r, c], np.inf)
            ulp = gens[:k] + [(G, gens[k][1])] + gens[k + 1:]
            if k not in ks:
                raise SystemExit("the largest shape is not used")
            for g, of in ((bad, b.shape_of), (swapped, b.shape_of), (gens, shifted),
                          (ulp, b.shape_of)):
                try:
                    _check_spans(amplitudes, pw, b.spans, of, g)
                except AssertionError as exc:
                    print(exc)
        """)
        env = {**os.environ, "PYTHONPATH": str(Path(gapforge.__file__).resolve().parents[1])}
        proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.count("is not its spans' shape images") == 3
        assert proc.stdout.count("is not its shape's shifted by r - shift") == 1


class TestWeylCharacter:
    def test_trivial(self):
        assert weyl_character(Weight((0, 0)), [0.3, -0.3]) == pytest.approx(1.0)

    def test_su2_adjoint_formula(self):
        phi = 0.81
        got = weyl_character(Weight((1, -1)), [phi, -phi])
        want = np.exp(2j * phi) + 1 + np.exp(-2j * phi)
        assert got == pytest.approx(want, abs=1e-10)

    def test_dimension_at_identity(self):
        for entries in [(1, -1), (2, 0, -2), (2, -1, -1)]:
            w = Weight(entries)
            with pytest.warns(UserWarning, match="near-coincident"):
                val = weyl_character(w, np.zeros(w.d))
            assert val == pytest.approx(weyl_dimension(w), abs=1e-6)

    def test_perturbed_fallback_accuracy(self):
        # one nearly-degenerate pair, exact value from the su(2) spin formula
        w = Weight((2, -2))
        phi = 0.5e-9
        with pytest.warns(UserWarning, match="near-coincident"):
            got = weyl_character(w, np.array([phi, -phi]))
        want = sum(np.exp(2j * m * phi) for m in range(-2, 3))
        assert got == pytest.approx(want, abs=1e-5)

    def test_wrong_phase_count(self):
        with pytest.raises(DomainError):
            weyl_character(Weight((1, -1)), [0.1, 0.2, 0.3])


class TestFrobeniusSchurMC:
    @pytest.mark.parametrize(
        "entries,want",
        [((1, -1), 1), ((1, 0, -1), 1), ((2, -1, -1), 0), ((1, 1, -2), 0)],
    )
    def test_montecarlo_indicator(self, entries, want):
        est = frobenius_schur_montecarlo(Weight(entries), n_samples=3000, seed=99)
        assert abs(est - want) <= 0.15  # ~8 sigma at N=3000
