import itertools
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gapforge
import gapforge.avgop
from _oracles import b_coefficient, gap_bound_from_b, subset_squares
from gapforge.avgop import gap_at_scale
from gapforge.bounds import (
    BoundReport,
    SubsetGapTable,
    g_t0,
    gap_bound_from_diameter,
    main_lower_bound,
    net_length_scale_bound,
    net_length_covering,
)
from gapforge.constants import SK_EXPONENT, alpha, beta, scale_t0
from gapforge.errors import DomainError
from gapforge.gates import haar_random_gateset, make_gateset
from gapforge.weightlat import Weight, enumerate_nontrivial_weights, irrep_meta


@pytest.fixture(scope="module")
def haar_triple_d2():
    return haar_random_gateset(2, 3, seed=1729)


class TestSubsetSquares:
    def test_squares_and_removal(self, haar_pair_d2):
        full = subset_squares(haar_pair_d2)
        assert full.k == 2
        for (_, U), (_, V) in zip(haar_pair_d2.pairs, full.pairs):
            assert np.allclose(V, U @ U)

    def test_removal(self, haar_triple_d2):
        sub = subset_squares(haar_triple_d2, removed=(1,))
        assert sub.k == 2
        assert [lab for lab, _ in sub.pairs] == ["g1^2", "g3^2"]

    def test_validation(self, haar_triple_d2):
        with pytest.raises(DomainError):
            subset_squares(haar_triple_d2, removed=(0, 0))
        with pytest.raises(DomainError):
            subset_squares(haar_triple_d2, removed=(5,))
        with pytest.raises(DomainError):
            subset_squares(haar_triple_d2, removed=(0, 1))  # k-2 = 1 max


class TestGT0:
    def test_haar_pair_positive(self, haar_pair_d2):
        g, table = g_t0(haar_pair_d2, t_override=20)
        assert g > 0.0
        assert table.t0 == 20 and table.k == 2
        assert len(table.per_m) == 1
        assert table.per_m[0][1] == ()
        assert table.universality == ((0, 1, "universal-likely"),)

    def test_matches_direct_recomputation(self, haar_pair_d2):
        # dense recomputation of the same quantity, straight from definitions
        g, table = g_t0(haar_pair_d2, t_override=20)
        direct_gap = gap_at_scale(subset_squares(haar_pair_d2), 20).gap
        want = direct_gap**2 / 4.0
        assert g == want

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("d, k, t", [(2, 3, 6), (2, 4, 6), (3, 3, 2), (3, 4, 2)])
    def test_per_m_matches_subset_gaps(self, d, k, t, threads):
        # the one-pass table equals per-subset gap_at_scale minima, bit for bit
        gs = haar_random_gateset(d, k, seed=1729)
        _, table = g_t0(gs, t_override=t, check_universality=False, threads=threads)
        for m, (gap, removed) in enumerate(table.per_m):
            best_gap, best_sub = None, None
            for combo in itertools.combinations(range(k), m):
                sub_gap = gap_at_scale(subset_squares(gs, combo), t, threads=threads).gap
                if best_gap is None or sub_gap < best_gap:
                    best_gap, best_sub = sub_gap, combo
            assert (gap, removed) == (max(best_gap, 0.0), best_sub)

    def test_builds_each_image_once_per_weight(self, monkeypatch):
        calls = []
        real = gapforge.avgop.irrep_matrix

        def counting(basis, U):
            calls.append(basis.weight)
            return real(basis, U)

        monkeypatch.setattr(gapforge.avgop, "irrep_matrix", counting)
        k = 4
        g_t0(haar_random_gateset(2, k, seed=1729), t_override=6, check_universality=False)
        assert len(calls) == k * len(enumerate_nontrivial_weights(2, 6))

    def test_triple_monotone_subsets(self, haar_triple_d2):
        g, table = g_t0(haar_triple_d2, t_override=6)
        assert len(table.per_m) == 2
        assert table.per_m[0][0] >= table.per_m[1][0] - 1e-10
        assert 0.0 <= g <= 2.0 / 6.0
        # the m=1 minimizer removes exactly one index
        assert len(table.per_m[1][1]) == 1

    def test_eps0_path(self, haar_pair_d2):
        # large eps0 keeps the resolved reference scale small (t0 = 94)
        g, table = g_t0(haar_pair_d2, eps0=0.9, check_universality=False)
        assert table.t0 == scale_t0(0.9, 2)
        assert table.t0 < 100
        assert g > 0.0

    def test_needs_k2(self):
        gs = haar_random_gateset(2, 1, seed=3)
        with pytest.raises(DomainError):
            g_t0(gs, t_override=4)

    def test_needs_scale_or_eps0(self, haar_pair_d2):
        with pytest.raises(DomainError):
            g_t0(haar_pair_d2)

    def test_degenerate_subset_warns(self):
        # second pair commutes with the first => squared pair set is far from
        # universal; the heuristic must flag it
        th = np.exp(1j * np.array([0.4, -0.4]))
        gs = make_gateset(2, [("a", np.diag(th)), ("b", np.diag(th**2))])
        with pytest.warns(UserWarning, match="looks not-universal"):
            g, table = g_t0(gs, t_override=3)
        assert g == pytest.approx(0.0, abs=1e-10)


class TestMainLowerBound:
    def test_matches_independent_arithmetic(self, haar_pair_d2):
        eps0 = 0.1
        t = 1600
        with pytest.warns(UserWarning, match="below the reference scale"):
            rep = main_lower_bound(haar_pair_d2, eps0, t=t, t_override=20)
        # independent arithmetic from first principles
        g_direct = gap_at_scale(subset_squares(haar_pair_d2), 20).gap ** 2 / 4.0
        want = alpha(2, eps0) * g_direct * math.log(beta(2) * t) ** (-2 * SK_EXPONENT)
        assert rep.lower_bound == pytest.approx(want, rel=1e-12)
        assert rep.below_reference_scale
        assert rep.g_t0 == pytest.approx(g_direct, rel=1e-12)

    def test_default_scale(self, haar_pair_d2):
        with pytest.warns(UserWarning, match="below the reference scale"):
            rep = main_lower_bound(haar_pair_d2, 0.24, t_override=8)
        assert rep.t == rep.params.t0
        assert rep.lower_bound > 0.0

    def test_below_t0_without_override_rejected(self, haar_pair_d2):
        with pytest.raises(DomainError, match="below the reference scale"):
            main_lower_bound(haar_pair_d2, 0.1, t=100)

    def test_bound_decreases_in_t(self, haar_pair_d2):
        reps = []
        for t in (1600, 4000, 10000):
            with pytest.warns(UserWarning):
                reps.append(main_lower_bound(haar_pair_d2, 0.1, t=t, t_override=10))
        vals = [r.lower_bound for r in reps]
        assert vals[0] > vals[1] > vals[2] > 0

    def test_report_serialization(self, haar_pair_d2):
        with pytest.warns(UserWarning):
            rep = main_lower_bound(haar_pair_d2, 0.24, t_override=6)
        doc = rep.to_json_dict()
        assert doc["params"]["d"] == 2
        assert doc["subset_gaps"]["k"] == 2
        assert isinstance(doc["below_reference_scale"], bool)

    def test_rederivation_check_survives_optimize(self):
        # a wrong alpha must trip the closed-form vs re-derived comparison even
        # under python -O, which strips assert statements
        script = textwrap.dedent("""
            import dataclasses, warnings
            from gapforge import bounds
            from gapforge.constants import BoundParams
            from gapforge.gates import haar_random_gateset

            assert False, "assert statements must be stripped here"
            compute = BoundParams.compute
            BoundParams.compute = classmethod(
                lambda cls, d, eps0: dataclasses.replace(
                    compute(d, eps0), alpha=compute(d, eps0).alpha * (1 + 1e-6)
                )
            )
            warnings.simplefilter("ignore")
            try:
                bounds.main_lower_bound(haar_random_gateset(2, 2, seed=1729), 0.1, t_override=4)
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
        assert proc.stdout.startswith("raised: closed-form bound")


class TestBCoefficient:
    def test_values(self):
        meta = irrep_meta(Weight((1, -1)))  # dim 3, self-conjugate, norm 2
        top = math.sqrt(2 * (1 - 1 / 3))
        got = b_coefficient(meta, eps=0.1, ell=5.0)
        want = (top - (math.pi / 2) * 2 * 0.1) / 5.0
        assert got == pytest.approx(want, rel=1e-14)

    def test_domain_window(self):
        meta = irrep_meta(Weight((1, -1)))
        top = math.sqrt(2 * (1 - 1 / 3))
        cap = top / ((math.pi / 2) * 2)
        assert b_coefficient(meta, eps=cap, ell=1.0) == pytest.approx(0.0, abs=1e-15)
        with pytest.raises(DomainError):
            b_coefficient(meta, eps=cap * 1.01, ell=1.0)
        with pytest.raises(DomainError):
            b_coefficient(meta, eps=0.0, ell=1.0)
        with pytest.raises(DomainError):
            b_coefficient(meta, eps=0.1, ell=0.0)

    def test_needs_nontrivial(self):
        with pytest.raises(DomainError):
            b_coefficient(irrep_meta(Weight((0, 0))), eps=0.1, ell=1.0)


class TestGapBoundFromB:
    def test_strong_vs_weak(self):
        strong, weak = gap_bound_from_b([0.5, 0.3], k=3)
        assert strong == pytest.approx((0.25 + 0.09) / 24)
        assert weak == pytest.approx(2 * 0.09 / 24)
        assert strong >= weak

    def test_equal_coefficients_coincide(self):
        strong, weak = gap_bound_from_b([0.4, 0.4, 0.4], k=4)
        assert strong == pytest.approx(weak, rel=1e-14)

    def test_validation(self):
        with pytest.raises(DomainError):
            gap_bound_from_b([0.1], k=3)
        with pytest.raises(DomainError):
            gap_bound_from_b([-0.1], k=2)
        with pytest.raises(DomainError):
            gap_bound_from_b([0.1], k=1)

    @settings(max_examples=100)
    @given(
        st.lists(st.floats(0.0, 2.0), min_size=1, max_size=7).map(
            lambda xs: sorted(xs, reverse=True)
        )
    )
    def test_strong_dominates_weak_property(self, b_list):
        # for nonincreasing coefficient lists (the shape produced by nested
        # removals) the summed bound dominates the worst-term bound
        k = len(b_list) + 1
        strong, weak = gap_bound_from_b(b_list, k)
        assert strong >= weak - 1e-15


class TestDiameterBound:
    def test_value(self):
        t, k = 10, 2
        eps = 1.0 / (4 * (math.pi / 2) * t)
        got = gap_bound_from_diameter(2, t, k, [(eps, 3.0)])
        assert got == pytest.approx((0.5**2 / 9.0) / 16.0)

    def test_eps_window(self):
        t = 10
        cap = 1.0 / (2 * (math.pi / 2) * t)
        gap_bound_from_diameter(2, t, 2, [(cap, 1.0)])  # boundary is legal
        with pytest.raises(DomainError):
            gap_bound_from_diameter(2, t, 2, [(cap * 1.01, 1.0)])
        with pytest.raises(DomainError):
            gap_bound_from_diameter(2, t, 2, [(cap, -1.0)])
        with pytest.raises(DomainError):
            gap_bound_from_diameter(2, t, 3, [(cap, 1.0)])


class TestNetLengths:
    def test_covering_values(self):
        val = net_length_covering(2, 0.5, 0.01)
        slope = 3 / 0.5
        intercept = -(math.log(9.5**3) - 3 * math.log(2)) / 0.5
        assert val == pytest.approx(slope * math.log(100) + intercept, rel=1e-12)
        assert val > 0

    def test_covering_vacuous_for_large_eps(self):
        # the intercept dominates for eps >= 2/9.5: no positive guarantee
        assert net_length_covering(2, 0.3, 0.5) < 0
        assert net_length_covering(3, 0.9, 0.25) < 0

    def test_covering_positive_regime_boundary(self):
        # sign change at eps = 2/9.5
        e_star = 2.0 / 9.5
        assert net_length_covering(2, 0.4, e_star * 1.02) < 0
        assert net_length_covering(2, 0.4, e_star * 0.98) > 0

    def test_scale_bound(self):
        ell, t_req = net_length_scale_bound(2, 0.3, 0.5)
        numer = 3 * (2 * math.log(2.0) + math.log(4 * (9 * math.pi) ** 1.5 * 2)) + math.log(32)
        assert ell == pytest.approx(numer / 0.3, rel=1e-12)
        assert ell > 0
        assert t_req == scale_t0(0.5, 2)

    def test_scale_bound_validation(self):
        with pytest.raises(DomainError):
            net_length_scale_bound(2, 0.0, 0.5)
        with pytest.raises(DomainError):
            net_length_scale_bound(2, 0.5, 1.5)
        with pytest.raises(DomainError):
            net_length_covering(2, 0.5, 0.0)


# -- random b-list property: strong bound from per-irrep coefficients ----------


@settings(max_examples=60)
@given(st.integers(0, 10**6))
def test_b_pipeline_random(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 6))
    meta = irrep_meta(Weight((1, -1)))
    top = math.sqrt(2 * (1 - 1 / 3))
    cap = min(top / (math.pi), 0.999)  # C * one_norm = pi
    eps = float(rng.uniform(1e-6, cap))
    # lengths grow with m, so coefficients fall: the canonical shape
    ells = np.cumsum(rng.uniform(1.0, 5.0, size=k - 1))
    bs = [b_coefficient(meta, eps, float(l)) for l in ells]
    strong, weak = gap_bound_from_b(bs, k)
    assert strong >= weak - 1e-15
    assert strong >= 0.0
