"""Acceptance gate: one test per top-level criterion, each printing a visible
[PASS]/[FAIL]/[SKIP] line with its elapsed time.

Run with `pytest tests/test_acceptance.py`.  The full-scale reference
computation (criterion 6) is opt-in via GAPFORGE_FULL_SCALE=1 because it is a
long run; everything else completes inside the stated budgets on a laptop.
"""

import itertools
import math
import os
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from _oracles import (
    build_block_operator,
    convergence_profile,
    gap_bound_from_b,
    squared_blocks_gap,
    subset_squares,
    weyl_character,
)
from _tabledata import TABLES
from conftest import SEED
from gapforge.avgop import gap_at_scale
from gapforge.bounds import (
    g_t0,
    main_lower_bound,
    net_length_scale_bound,
    net_length_covering,
)
from gapforge.constants import SK_EXPONENT, alpha, beta, scale_t0
from gapforge.gates import (
    _haar_unitary,
    empirical_net,
    haar_random_gateset,
    make_gateset,
)
from gapforge.irrep import cached_basis, irrep_matrix
from gapforge.weightlat import (
    Weight,
    enumerate_nontrivial_weights,
    enumerate_weights,
)


@pytest.fixture
def criterion(capfd):
    """Context manager printing a live [PASS]/[FAIL]/[SKIP] line per criterion,
    bypassing pytest capture so the line shows in a plain `pytest` run."""

    @contextmanager
    def run(num, desc, budget_s=None):
        t0 = time.perf_counter()

        def emit(tag, dt):
            with capfd.disabled():
                sys.stdout.write(f"\n[{tag}] criterion {num}: {desc} ({dt:.2f}s)\n")
                sys.stdout.flush()

        try:
            yield
        except BaseException as exc:
            tag = "SKIP" if isinstance(exc, pytest.skip.Exception) else "FAIL"
            emit(tag, time.perf_counter() - t0)
            raise
        dt = time.perf_counter() - t0
        emit("PASS", dt)
        if budget_s is not None:
            assert dt < budget_s, f"criterion {num} exceeded its {budget_s}s budget: {dt:.2f}s"

    return run


def test_criterion_1_table_reproduction(criterion):
    with criterion(1, "reference tables reproduce exactly", budget_s=1.0):
        for d, table in TABLES.items():
            for eps0, t0_ref, alpha_ref in table:
                assert scale_t0(eps0, d) == t0_ref, (d, eps0)
                if alpha_ref is None:
                    with pytest.warns(UserWarning):
                        assert alpha(d, eps0) == 0.0
                else:
                    assert f"{alpha(d, eps0):.2e}" == alpha_ref, (d, eps0)


@pytest.mark.xfail(
    strict=True,
    reason="the printed table shows 2.62e-04 at (d=2, eps0=0.14) where the "
    "formula yields 1.52e-04; all 44 remaining cells match, so the printed "
    "value is recorded as a typo and this test pins the discrepancy",
)
def test_criterion_1_printed_typo_cell():
    assert f"{alpha(2, 0.14):.2e}" == "2.62e-04"


def test_criterion_2_weight_enumeration(criterion):
    with criterion(2, "weight enumeration matches closed forms", budget_s=1.0):
        got = [w.entries for w in enumerate_weights(3, 2)]
        assert got == [(2, 0, -2), (2, -1, -1), (1, 1, -2), (1, 0, -1), (0, 0, 0)]
        for t in range(51):
            ws = enumerate_weights(2, t)
            assert len(ws) == t + 1
            assert {w.entries for w in ws} == {(a, -a) for a in range(t + 1)}


def test_criterion_3_representation_properties(criterion):
    with criterion(3, "irrep matrices satisfy group properties", budget_s=300.0):
        cases = {
            2: [Weight((a, -a)) for a in range(1, 21)],  # one-norms up to 40
            3: enumerate_nontrivial_weights(3, 6),
            4: enumerate_nontrivial_weights(4, 4),
        }
        for d, weights in cases.items():
            rng = np.random.default_rng(SEED + d)
            gates = [_haar_unitary(d, rng) for _ in range(20)]
            for i, w in enumerate(weights):
                basis = cached_basis(w)
                U = gates[i % 20]
                V = gates[(i + 1) % 20]
                PU = irrep_matrix(basis, U)
                PV = irrep_matrix(basis, V)
                PUV = irrep_matrix(basis, U @ V)
                Pinv = irrep_matrix(basis, U.conj().T)
                n = basis.dim
                eye = np.eye(n)
                assert np.linalg.norm(PU.conj().T @ PU - eye, 2) <= 1e-8, w
                assert np.linalg.norm(PU @ PV - PUV, 2) <= 1e-6, w
                assert np.linalg.norm(Pinv - PU.conj().T, 2) <= 1e-6, w
                phases = np.angle(np.linalg.eigvals(U))
                chi = weyl_character(w, phases)
                assert abs(np.trace(PU) - chi) <= 1e-6, w


def test_criterion_4_gap_suite(criterion):
    with criterion(4, "gap computations: range, monotonicity, invariances", budget_s=600.0):
        # monotone in t, gap in range, for 5 seeded pairs at d=2
        for seed in range(5):
            gs = haar_random_gateset(2, 2, seed=SEED + seed)
            gaps = [gap_at_scale(gs, t).gap for t in range(1, 21)]
            assert all(-1e-8 <= g <= 1.0 for g in gaps)
            assert all(a >= b - 1e-12 for a, b in zip(gaps, gaps[1:]))

        # identity pair: no mixing at all
        ident = make_gateset(2, [("e", np.eye(2, dtype=complex))])
        assert gap_at_scale(ident, 4).gap == pytest.approx(0.0, abs=1e-12)

        # commuting diagonal pair: common invariant vectors at every scale
        th = np.exp(1j * np.array([0.4, -0.4]))
        comm = make_gateset(2, [("a", np.diag(th)), ("b", np.diag(th**3))])
        assert gap_at_scale(comm, 5).gap == pytest.approx(0.0, abs=1e-10)

        # conjugation invariance
        gs = haar_random_gateset(2, 2, seed=SEED)
        W = _haar_unitary(2, np.random.default_rng(SEED + 99))
        conj = make_gateset(2, [(lab, W @ U @ W.conj().T) for lab, U in gs.pairs])
        assert gap_at_scale(conj, 6).gap == pytest.approx(
            gap_at_scale(gs, 6).gap, abs=1e-8
        )

        # convolution square: explicit B^dagger B products have norm ||B||^2
        gap = gap_at_scale(gs, 6).gap
        assert squared_blocks_gap(gs, 6) == pytest.approx(1.0 - (1.0 - gap) ** 2, abs=1e-12)

        # convergence profile under the (1 - gap)^ell envelope
        rep = gap_at_scale(gs, 4)
        prof = convergence_profile(gs, 4, 8)
        assert all(a >= b - 1e-12 for a, b in zip(prof, prof[1:]))
        for ell, val in enumerate(prof, start=1):
            assert val <= (1.0 - rep.gap) ** ell + 1e-9


def test_criterion_5_bound_pipeline(criterion):
    with criterion(5, "bound pipeline matches independent arithmetic", budget_s=300.0):
        gs = haar_random_gateset(2, 2, seed=SEED)

        g, table = g_t0(gs, t_override=20)
        assert g > 0.0

        # dense recomputation, straight from the definition and LAPACK svd
        sq = subset_squares(gs)
        op = build_block_operator(sq, 20)
        worst = max(np.linalg.norm(B, 2) for B in op.blocks.values())
        g_dense = (1.0 - worst) ** 2 / 4.0
        assert g == pytest.approx(g_dense, abs=1e-9)

        # closed form vs hand-rolled arithmetic
        eps0, t = 0.1, 1600
        with pytest.warns(UserWarning, match="below the reference scale"):
            rep = main_lower_bound(gs, eps0, t=t, t_override=20)
        want = alpha(2, eps0) * g_dense * math.log(beta(2) * t) ** (-2 * SK_EXPONENT)
        assert rep.lower_bound == pytest.approx(want, rel=1e-12)
        assert rep.below_reference_scale

        # random nonincreasing coefficient lists: summed bound dominates
        rng = np.random.default_rng(SEED)
        for _ in range(100):
            k = int(rng.integers(2, 8))
            bs = np.sort(rng.uniform(0.0, 2.0, size=k - 1))[::-1]
            strong, weak = gap_bound_from_b(list(bs), k)
            assert strong >= weak - 1e-15


def test_criterion_6_full_scale_reference(criterion):
    desc = "full-scale reference gap at t0=509 (d=2, eps0=0.25)"
    if not os.environ.get("GAPFORGE_FULL_SCALE"):
        with criterion(6, desc):
            pytest.skip(
                "long-running full-scale computation; set GAPFORGE_FULL_SCALE=1 "
                "or use scripts/full_scale_d2.py (d=3 and d=4 reference scales "
                "are out of reach: their largest irrep blocks have dimensions "
                "~(t0)^3 at t0=1958 and beyond, far past the dense-solver range)"
            )
    with criterion(6, desc):
        gs = haar_random_gateset(2, 2, seed=SEED)
        assert scale_t0(0.25, 2) == 509
        g, table = g_t0(gs, eps0=0.25)
        assert table.t0 == 509
        # golden value at seed 1729, pinned to the 9 digits it was recorded with
        assert g == pytest.approx(4.41678029e-4, abs=1e-12)


def test_criterion_7_epsilon_net(criterion):
    with criterion(7, "empirical net length sits inside the certified bound", budget_s=600.0):
        gs = haar_random_gateset(2, 2, seed=SEED)
        gap10 = gap_at_scale(gs, 10).gap
        assert gap10 > 0.0

        eps = 0.5
        ell_bound, t_req = net_length_scale_bound(2, gap10, eps)
        assert ell_bound > 0.0 and t_req > 10

        # the covering law with the negative intercept certifies nothing here
        assert net_length_covering(2, gap10, eps) < 0.0

        found = None
        for ell in range(1, 13):
            est = empirical_net(gs, length=ell, eps=eps, samples=200, seed=SEED)
            if est.covered_fraction >= 0.99:
                found = ell
                break
        assert found is not None, "no word length up to 12 covered 99% of samples"
        assert found <= ell_bound
