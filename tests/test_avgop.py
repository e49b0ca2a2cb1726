import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import BlockOperator, build_block_operator, convergence_profile
from gapforge.avgop import (
    GapReport,
    averaging_block,
    block_operator_norm,
    convolution_square_gap,
    gap_at_scale,
)
from gapforge.errors import DomainError
from gapforge.gates import _haar_unitary, haar_random_gateset, make_gateset, squared_set
from gapforge.weightlat import Weight, enumerate_nontrivial_weights


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
            assert block_operator_norm(B, hermitian=True) <= 1.0 + 1e-8

    def test_asymmetric_average(self):
        gs = make_gateset(2, [("u", _haar_unitary(2, np.random.default_rng(3)))],
                          symmetric=False)
        B = averaging_block(Weight((1, -1)), gs)
        # one unitary gate: the block is itself unitary, norm 1
        assert block_operator_norm(B) == pytest.approx(1.0, abs=1e-10)


class TestBlockNorm:
    def test_dense_hermitian(self):
        A = np.diag([0.3, -0.9, 0.5])
        assert block_operator_norm(A, hermitian=True) == pytest.approx(0.9)

    def test_dense_general(self):
        A = np.array([[0.0, 2.0], [0.0, 0.0]])
        assert block_operator_norm(A) == pytest.approx(2.0)

    def test_real_515_block_matches_numpy(self):
        # squared seed-1729 pair, weight (257, -257): a 515x515 averaging block
        sq = squared_set(haar_random_gateset(2, 2, seed=1729))
        B = averaging_block(Weight((257, -257)), sq)
        assert B.shape == (515, 515)
        want = np.linalg.norm(B, 2)
        assert block_operator_norm(B, hermitian=True) == pytest.approx(want, abs=1e-12)

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
        rep = gap_at_scale(haar_pair_d2, 5)
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
        with pytest.raises(DomainError):
            gap_at_scale(gs, 2)
        rep = gap_at_scale(gs, 2, auto_symmetrize=True)
        # a single pair never mixes, so the gap is 0 up to roundoff
        assert rep.gap == pytest.approx(0.0, abs=1e-10)

    def test_scale_validation(self, haar_pair_d2):
        with pytest.raises(DomainError):
            gap_at_scale(haar_pair_d2, 0)

    def test_thread_count_invariance(self, haar_pair_d2):
        a = gap_at_scale(haar_pair_d2, 6, threads=1)
        b = gap_at_scale(haar_pair_d2, 6, threads=4)
        assert a.gap == b.gap  # identical code path per block, exact match
        assert a.per_weight_norms == b.per_weight_norms
        assert a.worst_weight == b.worst_weight

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


class TestBlockOperator:
    def test_keys_are_all_nontrivial_weights(self, haar_pair_d2):
        op = build_block_operator(haar_pair_d2, 4)
        assert isinstance(op, BlockOperator)
        assert set(op.blocks) == set(enumerate_nontrivial_weights(2, 4))
        assert op.scale == 4


class TestConvolutionSquare:
    def test_sandwich(self, haar_pair_d2):
        gap_sq, residual = convolution_square_gap(haar_pair_d2, 4)
        gap_plain = gap_at_scale(haar_pair_d2, 4).gap
        assert residual <= 1e-8
        assert gap_sq >= gap_plain - 1e-10
        assert gap_plain >= 0.5 * gap_sq - 1e-10
        serial = convolution_square_gap(haar_pair_d2, 4, threads=1)
        assert serial == convolution_square_gap(haar_pair_d2, 4, threads=2)

    def test_identity_set(self):
        gs = make_gateset(2, [("e", np.eye(2, dtype=complex))])
        gap_sq, residual = convolution_square_gap(gs, 2)
        assert gap_sq == pytest.approx(0.0, abs=1e-12)
        assert residual <= 1e-8


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
    rep = gap_at_scale(gs, t)
    assert -1e-8 <= rep.gap <= 1.0
    for norm in rep.per_weight_norms.values():
        assert norm <= 1.0 + 1e-8


@settings(max_examples=8)
@given(st.integers(0, 10_000))
def test_sandwich_property(seed):
    # the two-sided comparison between gap and squared-operator gap holds for
    # any symmetric set, mixing or not (single pairs are the degenerate case)
    gs = haar_random_gateset(2, 1, seed=seed)
    gap_sq, residual = convolution_square_gap(gs, 2)
    assert residual <= 1e-8
