import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from _tabledata import BETA_3DP, TABLES
from gapforge.constants import (
    SK_EXPONENT,
    BoundParams,
    alpha,
    beta,
    emit_tables,
    eps0_min,
    scale_t0,
    tau,
    covering_law_constants,
)
from gapforge.errors import DomainError


class TestBaseConstants:
    def test_sk_exponent(self):
        # c solves (3/2)^c = 5
        assert 1.5**SK_EXPONENT == pytest.approx(5.0, rel=1e-14)
        assert SK_EXPONENT == pytest.approx(3.969362, abs=1e-6)

    def test_eps0_min(self):
        assert eps0_min(2) == 0.25
        assert eps0_min(3) == 0.2
        assert eps0_min(4) == pytest.approx(1 / 6)

    def test_beta(self):
        for d in (2, 3, 4):
            assert beta(d) == pytest.approx(2 * math.pi / (d + 2) ** 2, rel=1e-15)
            assert f"{beta(d):.3f}" == BETA_3DP[d]

    def test_tau_spot_value(self):
        assert tau(0.1, 2) == pytest.approx(5.511, abs=5e-4)

    def test_tau_monotone_in_eps(self):
        vals = [tau(e, 3) for e in (0.5, 0.2, 0.1, 0.05, 0.01)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            tau(0.0, 2)
        with pytest.raises(DomainError):
            tau(1.0, 2)
        with pytest.raises(DomainError):
            scale_t0(-0.1, 2)
        for eps0 in (5e-324, 1e-308):  # 1 / eps0 overflows
            with pytest.raises(DomainError, match="scale_t0 is not finite"):
                scale_t0(eps0, 2)
        with pytest.raises(DomainError):
            beta(1)


class TestTableReproduction:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_t0_column(self, d):
        for eps0, t0_ref, _ in TABLES[d]:
            assert scale_t0(eps0, d) == t0_ref, (d, eps0)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_alpha_column(self, d):
        for eps0, _, alpha_ref in TABLES[d]:
            if alpha_ref is None:
                with pytest.warns(UserWarning, match="degeneration point"):
                    assert alpha(d, eps0) == 0.0
            else:
                assert f"{alpha(d, eps0):.2e}" == alpha_ref, (d, eps0)

    @pytest.mark.xfail(
        strict=True,
        reason="printed reference shows 2.62e-04 for (d=2, eps0=0.14); the "
        "formula gives 1.52e-04, and every other cell of all three tables "
        "reproduces exactly, so the printed cell is taken to be a typo",
    )
    def test_printed_d2_eps014_cell(self):
        assert f"{alpha(2, 0.14):.2e}" == "2.62e-04"

    def test_emit_tables_rows(self):
        rows = emit_tables()
        assert len(rows) == 45
        by_key = {(r["d"], round(r["eps0"], 6)): r for r in rows}
        for d, table in TABLES.items():
            for eps0, t0_ref, _ in table:
                assert by_key[(d, round(eps0, 6))]["t0"] == t0_ref

    def test_emit_tables_csv(self):
        csv_text = emit_tables(fmt="csv")
        assert csv_text.splitlines()[0] == "d,eps0,t0,alpha,beta"
        assert len(csv_text.splitlines()) == 46


class TestBoundParams:
    def test_compute(self):
        p = BoundParams.compute(2, 0.1)
        assert p.t0 == 1559
        assert p.c_s == 4.0
        assert p.C == math.pi / 2
        assert p.C_b == 9 * math.pi
        assert f"{p.alpha:.2e}" == "5.15e-03"
        assert p.to_json_dict()["d"] == 2

    def test_boundary_warns(self):
        with pytest.warns(UserWarning):
            p = BoundParams.compute(3, 0.2)
        assert p.alpha == 0.0

    def test_out_of_domain(self):
        with pytest.raises(DomainError):
            BoundParams.compute(2, 0.3)
        with pytest.raises(DomainError):
            BoundParams.compute(2, 0.0)


class TestCoveringLaw:
    def test_values(self):
        slope, B, C_V = covering_law_constants(2, 0.5)
        assert slope == pytest.approx(3 / 0.5)
        assert C_V == pytest.approx(9.5**3)
        assert B == pytest.approx(-(math.log(9.5**3) - 3 * math.log(2)) / 0.5)
        assert B < 0

    def test_intercept_always_negative(self):
        for d in (2, 3, 4):
            for gap in (0.1, 0.5, 1.0):
                _, B, _ = covering_law_constants(d, gap)
                assert B < 0

    def test_domain(self):
        with pytest.raises(DomainError):
            covering_law_constants(2, 0.0)
        with pytest.raises(DomainError):
            covering_law_constants(2, 1.5)


# -- hypothesis properties -----------------------------------------------------


@given(st.integers(2, 6), st.floats(0.01, 0.12))
def test_alpha_positive_inside(d, eps0):
    assert alpha(d, eps0) > 0.0


@given(st.integers(2, 5))
def test_alpha_decreasing_in_eps0(d):
    top = eps0_min(d)
    grid = [top * f for f in (0.2, 0.4, 0.6, 0.8, 0.95)]
    vals = [alpha(d, e) for e in grid]
    assert all(a > b for a, b in zip(vals, vals[1:]))


@given(st.integers(2, 5))
def test_t0_decreasing_in_eps0(d):
    grid = [0.02, 0.05, 0.1, 0.15]
    vals = [scale_t0(e, d) for e in grid]
    assert all(a > b for a, b in zip(vals, vals[1:]))


@given(st.integers(2, 8), st.floats(0.001, 0.999))
def test_tau_positive(d, eps):
    assert tau(eps, d) > 0.0
