import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gapforge import weightlat
from gapforge.errors import DomainError
from gapforge.weightlat import (
    Weight,
    enumerate_nontrivial_weights,
    enumerate_weights,
    frobenius_schur,
    weyl_dimension,
)


def brute_force_weights(d, t):
    """Independent oracle: scan all nonincreasing integer tuples with entries
    in [-t, t], keep those with sum zero and positive part <= t."""
    found = set()
    for tup in itertools.product(range(t, -t - 1, -1), repeat=d):
        if any(tup[i] < tup[i + 1] for i in range(d - 1)):
            continue
        if sum(tup) != 0:
            continue
        if sum(x for x in tup if x > 0) > t:
            continue
        found.add(tup)
    return found


def gt_pattern_count(sig):
    """Independent dimension oracle: count Gelfand-Tsetlin patterns under the
    shifted nonnegative signature, by direct recursion over interlacing rows."""
    sig = tuple(x - sig[-1] for x in sig)

    def count(row):
        if len(row) == 1:
            return 1
        total = 0
        ranges = [range(row[i + 1], row[i] + 1) for i in range(len(row) - 1)]
        for below in itertools.product(*ranges):
            if all(below[i] >= below[i + 1] for i in range(len(below) - 1)):
                total += count(below)
        return total

    return count(sig)


class TestWeight:
    def test_valid(self):
        w = Weight((2, 0, -2))
        assert w.d == 3
        assert w.one_norm == 4
        assert w.positive_size == 2

    def test_rejects_increasing(self):
        with pytest.raises(DomainError):
            Weight((0, 1, -1))

    def test_rejects_nonzero_sum(self):
        with pytest.raises(DomainError):
            Weight((1, 0, 0))

    def test_rejects_short(self):
        with pytest.raises(DomainError):
            Weight((0,))

    def test_conjugate(self):
        assert Weight((2, -1, -1)).conjugate() == Weight((1, 1, -2))
        assert Weight((1, 0, -1)).conjugate() == Weight((1, 0, -1))

    def test_ordering_and_hash(self):
        a, b = Weight((1, -1)), Weight((2, -2))
        assert a < b and len({a, b, Weight((1, -1))}) == 2


class TestEnumeration:
    def test_d3_t2_example(self):
        # the five irreps of PU(3) at scale 2, in canonical order
        want = [(2, 0, -2), (2, -1, -1), (1, 1, -2), (1, 0, -1), (0, 0, 0)]
        got = [w.entries for w in enumerate_weights(3, 2)]
        assert got == want

    def test_t0_only_trivial(self):
        assert enumerate_weights(2, 0) == [Weight((0, 0))]
        assert enumerate_nontrivial_weights(4, 0) == []

    def test_d2_explicit(self):
        got = {w.entries for w in enumerate_weights(2, 3)}
        assert got == {(0, 0), (1, -1), (2, -2), (3, -3)}

    @pytest.mark.parametrize("d,t", [(2, 7), (3, 4), (4, 3), (2, 30), (3, 12), (4, 8), (5, 6),
                                     (6, 4)])
    def test_against_brute_force(self, d, t):
        got = {w.entries for w in enumerate_weights(d, t)}
        assert got == brute_force_weights(d, t)

    def test_d2_makes_one_partition_pair_per_s(self, monkeypatch):
        # a mu of d parts leaves no room for nu, so mu has at most d - 1: at
        # d = 2 one (mu, nu) per s, O(t) partitions made, not O(t^2)
        calls = []
        partitions = weightlat._partitions
        monkeypatch.setattr(weightlat, "_partitions",
                            lambda *a: calls.append(a) or partitions(*a))
        assert len(enumerate_weights(2, 1000)) == 1001
        assert len(calls) <= 5 * 1001, len(calls)

    def test_d2_count_linear(self):
        for t in range(51):
            assert len(enumerate_weights(2, t)) == t + 1

    def test_sorted_descending(self):
        ws = enumerate_weights(3, 5)
        assert ws == sorted(ws, key=lambda w: w.entries, reverse=True)
        assert ws[-1].is_trivial()

    def test_scale_one_is_adjoint(self):
        for d in (2, 3, 4, 5):
            ws = enumerate_nontrivial_weights(d, 1)
            assert len(ws) == 1
            adj = ws[0]
            assert adj.entries == (1,) + (0,) * (d - 2) + (-1,)
            assert weyl_dimension(adj) == d * d - 1

    def test_rejects_bad_args(self):
        with pytest.raises(DomainError):
            enumerate_weights(1, 3)
        with pytest.raises(DomainError):
            enumerate_weights(3, -1)


class TestDimension:
    def test_trivial(self):
        assert weyl_dimension(Weight((0, 0, 0))) == 1

    def test_adjoint_su3(self):
        assert weyl_dimension(Weight((1, 0, -1))) == 8

    def test_su2_ladder(self):
        # spin-a irreps sit at (a, -a), dimension 2a+1
        for a in range(1, 30):
            assert weyl_dimension(Weight((a, -a))) == 2 * a + 1

    @pytest.mark.parametrize(
        "sig",
        [(2, 0, -2), (2, -1, -1), (1, 1, -2), (3, 0, -3), (2, 1, -1, -2), (2, 0, 0, -2)],
    )
    def test_against_pattern_count(self, sig):
        assert weyl_dimension(Weight(sig)) == gt_pattern_count(sig)

    def test_d3_t2_dims(self):
        dims = {w.entries: weyl_dimension(w) for w in enumerate_weights(3, 2)}
        assert dims == {
            (2, 0, -2): 27,
            (2, -1, -1): 10,
            (1, 1, -2): 10,
            (1, 0, -1): 8,
            (0, 0, 0): 1,
        }


class TestFrobeniusSchur:
    def test_known_values(self):
        assert frobenius_schur(Weight((1, -1))) == 1
        assert frobenius_schur(Weight((1, 0, -1))) == 1
        assert frobenius_schur(Weight((2, -1, -1))) == 0
        assert frobenius_schur(Weight((1, 1, -2))) == 0

    def test_d2_always_real(self):
        # every PU(2) irrep is self-conjugate
        for w in enumerate_weights(2, 12):
            assert frobenius_schur(w) == 1

    def test_meta(self):
        w = Weight((2, 0, -2))
        assert weyl_dimension(w) == 27
        assert frobenius_schur(w) == 1
        assert w.one_norm == 4


# -- hypothesis property suite ------------------------------------------------

dims_and_scales = st.tuples(st.integers(2, 4), st.integers(0, 6))


@given(dims_and_scales)
def test_nesting(dt):
    d, t = dt
    assert set(enumerate_weights(d, t)) <= set(enumerate_weights(d, t + 1))


@given(dims_and_scales)
def test_one_norm_bound(dt):
    d, t = dt
    for w in enumerate_weights(d, t):
        n = w.one_norm
        assert n % 2 == 0  # positive and negative parts balance
        assert n <= 2 * t


@given(dims_and_scales)
def test_conjugation_closure(dt):
    d, t = dt
    ws = set(enumerate_weights(d, t))
    for w in ws:
        assert w.conjugate() in ws
        assert weyl_dimension(w.conjugate()) == weyl_dimension(w)


@given(dims_and_scales)
def test_positive_size_matches_scale(dt):
    d, t = dt
    for w in enumerate_weights(d, t):
        assert w.positive_size <= t
    if t >= 1:
        # maximal weight (t, 0, ..., 0, -t) is present exactly at scale t
        top = Weight((t,) + (0,) * (d - 2) + (-t,))
        assert top in set(enumerate_weights(d, t))
        if t >= 1:
            assert top not in set(enumerate_weights(d, t - 1))


@given(st.integers(2, 5), st.integers(1, 5))
def test_dimension_positive(d, t):
    for w in enumerate_weights(d, t):
        assert weyl_dimension(w) >= 1
