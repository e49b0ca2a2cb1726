import itertools
import math
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gapforge
import gapforge.avgop
from _oracles import b_coefficient, gap_bound_from_b, subset_squares
from gapforge.avgop import T_PROBE, Pass, gap_at_scale, subset_norms
from gapforge.bounds import (
    BoundReport,
    SubsetGapTable,
    _verdict,
    g_t0,
    gap_bound_from_diameter,
    main_lower_bound,
    net_length_scale_bound,
    net_length_covering,
    universality_heuristic,
)
from gapforge.constants import SK_EXPONENT, alpha, beta, scale_t0
from gapforge.errors import DomainError
from gapforge.gates import GateSet, haar_random_gateset, make_gateset, squared_set
from gapforge.weightlat import (
    Weight,
    enumerate_nontrivial_weights,
    weyl_dimension,
)


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
        # the one-pass table equals per-subset gap_at_scale minima.  Both run
        # in the eigenbasis of the first gate of their set: a subset that
        # keeps gate 0 gets the same bits, any other is conjugated by its own
        # first gate's eigenbasis, which moves its gap by roundoff only
        gs = haar_random_gateset(d, k, seed=1729)
        seen = {}
        _, table = g_t0(gs, t_override=t, check_universality=False, threads=threads,
                        progress=lambda m, combo, gap: seen.update({combo: gap}))
        for m, (gap, removed) in enumerate(table.per_m):
            subs = {combo: gap_at_scale(subset_squares(gs, combo), t, threads=threads).gap
                    for combo in itertools.combinations(range(k), m)}
            for combo, sub_gap in subs.items():
                if 0 in combo:
                    assert seen[combo] == pytest.approx(sub_gap, rel=0, abs=1e-12)
                else:
                    assert seen[combo] == sub_gap
            best = min(subs, key=subs.get)  # the first removal wins ties, as in g_t0
            assert (gap, removed) == (seen[best], best)

    @staticmethod
    def _count_images(monkeypatch, check_universality):
        calls = []
        real = gapforge.avgop.irrep_matrix

        def counting(basis, U, **kw):
            calls.append(basis.weight)
            return real(basis, U, **kw)

        monkeypatch.setattr(gapforge.avgop, "irrep_matrix", counting)
        k = 4
        g_t0(haar_random_gateset(2, k, seed=1729), t_override=6,
             check_universality=check_universality)
        # the pass's first gate is diagonal in its normal form and builds none
        assert len(calls) == (k - 1) * len(enumerate_nontrivial_weights(2, 6))

    def test_builds_each_image_once_per_weight(self, monkeypatch):
        self._count_images(monkeypatch, check_universality=False)

    def test_verdicts_cost_no_extra_images(self, monkeypatch):
        # the universality verdicts come from the same pass, at no extra images
        self._count_images(monkeypatch, check_universality=True)

    @pytest.mark.parametrize("name, t", [
        (name, t)
        for name in ["haar-d2-k3", "haar-d2-k4", "haar-d3-k3", "haar-d3-k4",
                     "commuting-diagonal", "pauli-haar"]
        for t in [1, 2, 6]
        if not (name.startswith("haar-d3") and t == 6)  # ~30 s, no new branch
    ])
    def test_verdicts_match_pairwise_probe(self, name, t):
        # the verdicts read off the subset pass equal the standalone probe on
        # each squared pair, and the pass to max(t, T_PROBE) leaves the table
        # at scale t unchanged
        if name.startswith("haar"):
            _, d, k = name.split("-")  # haar-d<d>-k<k>
            gs = haar_random_gateset(int(d[1:]), int(k[1:]), seed=1729)
        elif name == "commuting-diagonal":
            th = np.exp(1j * np.array([0.4, -0.4]))
            gs = make_gateset(2, [("a", np.diag(th)), ("b", np.diag(th**2))])
        else:
            X = np.array([[0, 1], [1, 0]])
            Z = np.diag([1, -1])
            H = haar_random_gateset(2, 1, seed=7).pairs[0][1]
            gs = make_gateset(2, [("x", X), ("z", Z), ("h", H)])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            g, table = g_t0(gs, t_override=t)
        sq = squared_set(gs).pairs
        want = tuple(
            (i, j, universality_heuristic(GateSet(d=gs.d, pairs=(sq[i], sq[j]))))
            for i, j in itertools.combinations(range(gs.k), 2)
        )
        assert table.universality == want
        warned = [str(w.message) for w in caught if "squared pair subset" in str(w.message)]
        assert warned == [
            f"squared pair subset ({i}, {j}) looks {v}; the subset gaps and hence "
            f"g_t0 may degenerate to zero"
            for i, j, v in want if v != "universal-likely"
        ]
        g_plain, table_plain = g_t0(gs, t_override=t, check_universality=False)
        assert (g, table.per_m, table.t0) == (g_plain, table_plain.per_m, t)

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


class TestNotUniversalConfirmation:
    """A not-universal verdict is confirmed by norming the worst block again,
    built apart from the pass, against the norm the pass read."""

    # special unitary, generating a finite group
    FINITE = [("iX", 1j * np.array([[0, 1], [1, 0]])), ("iZ", 1j * np.diag([1, -1]))]

    def test_finite_pair_is_not_universal(self):
        gs = make_gateset(2, self.FINITE)
        assert universality_heuristic(gs) == "not-universal"
        with pytest.warns(UserWarning, match="looks not-universal"):
            g, table = g_t0(gs, t_override=3)
        assert (g, table.universality) == (0.0, ((0, 1, "not-universal"),))

    def test_a_block_of_another_norm_fails_the_confirmation(self, monkeypatch):
        # Hermitian, so its own eigenvectors fit it; only its norm (0.75) is wrong
        unrelated = np.array([[0.25, 0.5j], [-0.5j, 0.25]])
        monkeypatch.setattr(gapforge.bounds, "averaging_block", lambda w, gs: unrelated)
        with pytest.raises(AssertionError, match="the worst block's norm 0.75"):
            universality_heuristic(make_gateset(2, self.FINITE))


class TestVerdictThresholds:
    """_verdict reads the gap of the worst norm: at most 1e-8 is not-universal
    (then confirmed on the block), at least 1e-6 universal-likely, and
    anything between inconclusive, which needs no block."""

    WORST = enumerate_nontrivial_weights(2, T_PROBE)[1]

    def test_inconclusive(self, monkeypatch):
        def unused(w, gs):
            raise AssertionError("an inconclusive verdict builds no block")

        monkeypatch.setattr(gapforge.bounds, "averaging_block", unused)
        gs = haar_random_gateset(2, 2, seed=1729)
        assert _verdict(gs, 1 - 1e-7, self.WORST) == "inconclusive"
        assert _verdict(gs, 1 - 1e-5, self.WORST) == "universal-likely"


class TestCertifiedPass:
    """g_t0's pass certifies the blocks that cannot set a subset maximum
    (subset_norms(certify=True)); its results must equal those of exact norms."""

    @staticmethod
    def _exact_g_t0(monkeypatch, *args, **kwargs):
        # the same reduction over exact subset_norms, no certificate tried
        certified = gapforge.bounds.subset_norms
        with monkeypatch.context() as m, warnings.catch_warnings(record=True) as caught:
            m.setattr(gapforge.bounds, "subset_norms",
                      lambda *a, certify, **kw: certified(*a, **kw))
            warnings.simplefilter("always")
            return g_t0(*args, **kwargs), [str(w.message) for w in caught]

    @staticmethod
    def _count(monkeypatch):
        """(exact solves, certificates proved, certificates failed), live."""
        counts = {"exact": 0, True: 0, False: 0}
        norm, certify = gapforge.avgop.block_operator_norm, gapforge.avgop.certify_norm_below

        def counting_norm(*a, **kw):
            counts["exact"] += 1
            return norm(*a, **kw)

        def counting_certify(B, theta):
            ok = certify(B, theta)
            counts[bool(ok)] += 1  # None: the second sign failed
            return ok

        monkeypatch.setattr(gapforge.avgop, "block_operator_norm", counting_norm)
        monkeypatch.setattr(gapforge.avgop, "certify_norm_below", counting_certify)
        return counts

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("d, k, t", [
        (2, 2, 30), (2, 3, 30), (2, 4, 30), (3, 2, 6), (3, 3, 6), (3, 4, 5), (4, 2, 4),
    ])
    def test_bit_identical_to_exact_norms(self, monkeypatch, d, k, t, threads):
        heads = [gapforge.avgop.HEAD_DIM]
        if threads == 2:
            monkeypatch.setattr(gapforge.avgop, "POOL_MIN_DIM", 1)  # stage 2 on the pool
            heads.append(1)  # and certificates on the blocks below 40 too
        gs = haar_random_gateset(d, k, seed=1729)
        want, want_warned = self._exact_g_t0(monkeypatch, gs, t_override=t, threads=threads)
        counts = self._count(monkeypatch)
        for head_dim in heads:
            monkeypatch.setattr(gapforge.avgop, "HEAD_DIM", head_dim)
            counts.update({True: 0, False: 0})
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                got = g_t0(gs, t_override=t, threads=threads)
            assert got == want
            assert [str(w.message) for w in caught] == want_warned
            assert counts[True] > 0  # the case exercises certificates

    def test_maximum_in_stage_two_falls_back(self, monkeypatch):
        # seed 3: three subsets take their maximum at j = 40, 40 and 22 (n = 81,
        # 81, 45), above T_PROBE and HEAD_DIM, so the stage-1 ceilings sit
        # below them and those blocks must fail their certificates
        gs = haar_random_gateset(2, 4, seed=3)
        sq = squared_set(gs)
        removals = [c for m in range(3) for c in itertools.combinations(range(4), m)]
        keeps = [tuple(i for i in range(4) if i not in c) for c in removals]
        weights, exact, _ = gapforge.avgop.subset_norms(sq, 60, keeps, threads=1)
        counts = self._count(monkeypatch)
        got_weights, got, flags = gapforge.avgop.subset_norms(sq, 60, keeps, threads=1,
                                                              certify=True)
        assert got_weights == weights
        late = [j for j in range(len(keeps))
                if weyl_dimension(max(zip(weights, exact), key=lambda r: r[1][j])[0]) >= 40]
        assert late == [4, 9, 10]
        assert counts[False] >= len(late)
        ceilings = 0
        for j in range(len(keeps)):
            top = max(r[j] for r in exact)
            assert max(r[j] for r in got) == top
            for row, flag, want in zip(got, flags, exact):
                if flag[j]:  # flagged exact: the eigensolve's bits
                    assert row[j] == want[j]
                else:  # a ceiling bounds the exact norm and stays below the maximum
                    assert want[j] - 1e-12 < row[j] < top
                    ceilings += 1
        assert ceilings == counts[True]
        assert g_t0(gs, t_override=60) == self._exact_g_t0(monkeypatch, gs, t_override=60)[0]

    @pytest.mark.parametrize("d, k, T", [(2, 3, 30), (2, 2, 45), (3, 2, 6), (3, 3, 5), (4, 2, 4)])
    def test_every_prefix_reads_as_its_own_pass(self, d, k, T):
        # one certified pass to T serves every scale t <= T: Pass.worst over
        # its prefix gives the norm bits and the weight of a pass to t
        sq = squared_set(haar_random_gateset(d, k, seed=1729))
        removals = [c for m in range(k - 1) for c in itertools.combinations(range(k), m)]
        keeps = [tuple(i for i in range(k) if i not in c) for c in removals]
        big = subset_norms(sq, T, keeps, threads=1, certify=True)
        assert not all(itertools.chain.from_iterable(big.exact))  # the case holds ceilings
        for t in range(1, T + 1):
            small = subset_norms(sq, t, keeps, threads=1, certify=True)
            for j in range(len(keeps)):
                assert big.worst(j, t) == small.worst(j, t)

    @pytest.mark.parametrize("d, k, t", [(2, 4, 30), (3, 2, 6)])
    def test_pool_bar_moves_no_bit(self, monkeypatch, d, k, t):
        # the pool bar decides only where a weight runs: every weight on the
        # pool, the default split and none on it give one Pass, bit for bit
        sq = squared_set(haar_random_gateset(d, k, seed=1729))
        removals = [c for m in range(k - 1) for c in itertools.combinations(range(k), m)]
        keeps = [tuple(i for i in range(k) if i not in c) for c in removals]
        want = subset_norms(sq, t, keeps, threads=1, certify=True)
        assert not all(itertools.chain.from_iterable(want.exact))  # the case holds ceilings
        for bar in (1, gapforge.avgop.POOL_MIN_DIM, 10 ** 9):
            monkeypatch.setattr(gapforge.avgop, "POOL_MIN_DIM", bar)
            got = subset_norms(sq, t, keeps, threads=2, certify=True)
            assert got == want  # weights, norms and exact flags

    def test_a_ceiling_on_top_raises(self):
        # a certified ceiling is an upper bound, never a norm: taken as a
        # column maximum it would overstate the gap, so worst refuses it
        weights = enumerate_nontrivial_weights(2, 3)  # (3, -3), (2, -2), (1, -1)
        p = Pass(weights, [(0.7,), (0.9,), (0.5,)], [(True,), (False,), (True,)])
        with pytest.raises(AssertionError, match="ceiling 0.9"):
            p.worst(0, 3)
        assert p.worst(0, 1) == (0.5, Weight((1, -1)))  # a prefix without it reads

    def test_exact_solves_are_counted(self, monkeypatch):
        # stage 1 (the weights up to T_PROBE and below HEAD_DIM) pays one
        # eigensolve per subset; stage 2 one per failed certificate
        gs = haar_random_gateset(2, 4, seed=3)
        counts = self._count(monkeypatch)
        g_t0(gs, t_override=60)
        weights = enumerate_nontrivial_weights(2, 60)
        first = sum(weyl_dimension(w) < gapforge.avgop.HEAD_DIM for w in weights)
        assert first == 19  # j = 1 .. 19
        blocks = 11 * len(weights)  # 11 removal subsets at k = 4
        assert counts["exact"] == 11 * first + counts[False]
        assert counts[True] + counts[False] == 11 * (len(weights) - first)
        assert 3 <= counts[False] <= 20
        assert counts["exact"] < 0.35 * blocks

    def test_fallback_survives_python_O(self):
        # the certificates, their fallbacks, the rebuild of a block that a
        # failed certificate spent and the bit-identity all hold under
        # python -O, which strips assert statements
        script = textwrap.dedent("""
            import numpy as np
            import gapforge.avgop, gapforge.bounds
            from gapforge.avgop import Pass
            from gapforge.gates import haar_random_gateset
            from gapforge.weightlat import enumerate_nontrivial_weights

            assert False, "assert statements must be stripped here"
            certify, failed = gapforge.avgop.certify_norm_below, []

            def counting(B, theta):
                ok = certify(B, theta)
                failed.append(not ok)
                return ok

            gapforge.avgop.certify_norm_below = counting
            gs = haar_random_gateset(2, 4, seed=3)
            g, table = gapforge.bounds.g_t0(gs, t_override=60)
            gapforge.avgop.certify_norm_below = lambda B, theta: False
            exact = gapforge.bounds.g_t0(gs, t_override=60)

            def spending(B, theta):  # as where theta I + B fails: B spent, no proof
                B.fill(np.nan)
                return None

            gapforge.avgop.certify_norm_below = spending
            rebuilt = gapforge.bounds.g_t0(gs, t_override=60)
            weights = enumerate_nontrivial_weights(2, 3)
            on_top = Pass(weights, [(0.7,), (0.9,), (0.5,)], [(True,), (False,), (True,)])
            try:
                on_top.worst(0, 3)
                refused = False
            except AssertionError:
                refused = True
            print(sum(failed), len(failed), (g, table) == exact == rebuilt, repr(g), refused)
        """)
        src = str(Path(gapforge.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        n_failed, n_tried, same, g, refused = proc.stdout.split()
        assert 3 <= int(n_failed) < int(n_tried) and same == "True"
        assert refused == "True"  # a ceiling on top raises under -O too
        assert float(g) == g_t0(haar_random_gateset(2, 4, seed=3), t_override=60)[0]


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
        w = Weight((1, -1))  # dim 3, self-conjugate, norm 2
        top = math.sqrt(2 * (1 - 1 / 3))
        got = b_coefficient(w, eps=0.1, ell=5.0)
        want = (top - (math.pi / 2) * 2 * 0.1) / 5.0
        assert got == pytest.approx(want, rel=1e-14)

    def test_domain_window(self):
        w = Weight((1, -1))
        top = math.sqrt(2 * (1 - 1 / 3))
        cap = top / ((math.pi / 2) * 2)
        assert b_coefficient(w, eps=cap, ell=1.0) == pytest.approx(0.0, abs=1e-15)
        with pytest.raises(DomainError):
            b_coefficient(w, eps=cap * 1.01, ell=1.0)
        with pytest.raises(DomainError):
            b_coefficient(w, eps=0.0, ell=1.0)
        with pytest.raises(DomainError):
            b_coefficient(w, eps=0.1, ell=0.0)

    def test_needs_nontrivial(self):
        with pytest.raises(DomainError):
            b_coefficient(Weight((0, 0)), eps=0.1, ell=1.0)


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
        with pytest.raises(DomainError, match="d must be an integer >= 2"):
            gap_bound_from_diameter(2.5, t, 2, [(cap, 1.0)])


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
        with pytest.raises(DomainError, match="d must be an integer >= 2"):
            net_length_scale_bound(2.5, 0.3, 0.5)
        with pytest.raises(DomainError):
            net_length_scale_bound(2, 0.0, 0.5)
        with pytest.raises(DomainError):
            net_length_scale_bound(2, 0.5, 1.5)
        with pytest.raises(DomainError):
            net_length_covering(2, 0.5, 0.0)

    def test_lengths_that_overflow_are_refused(self):
        # 1 / gap or 1 / eps overflows near the smallest subnormal
        with pytest.raises(DomainError, match="not finite at gap = 1e-310"):
            net_length_scale_bound(2, 1e-310, 0.5)
        with pytest.raises(DomainError, match="not finite at gap = 1e-320"):
            net_length_covering(2, 1e-320, 0.5)
        with pytest.raises(DomainError, match="not finite"):
            net_length_scale_bound(2, 0.5, 5e-324)
        with pytest.raises(DomainError, match="scale_t0 is not finite"):
            net_length_scale_bound(2, 0.5, 1e-308)


# -- random b-list property: strong bound from per-irrep coefficients ----------


@settings(max_examples=60)
@given(st.integers(0, 10**6))
def test_b_pipeline_random(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 6))
    w = Weight((1, -1))
    top = math.sqrt(2 * (1 - 1 / 3))
    cap = min(top / (math.pi), 0.999)  # C * one_norm = pi
    eps = float(rng.uniform(1e-6, cap))
    # lengths grow with m, so coefficients fall: the canonical shape
    ells = np.cumsum(rng.uniform(1.0, 5.0, size=k - 1))
    bs = [b_coefficient(w, eps, float(l)) for l in ells]
    strong, weak = gap_bound_from_b(bs, k)
    assert strong >= weak - 1e-15
    assert strong >= 0.0
