"""Exact binomial tails, cross-checked against scipy."""

from __future__ import annotations


import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats as sps

from repro.core import binomial
from repro.core.binomial import binomial_cdf, binomial_pmf, binomial_sf, log_binomial_pmf


class TestPmf:
    def test_fair_coin_singles(self):
        assert binomial_pmf(1, 0) == pytest.approx(0.5)
        assert binomial_pmf(1, 1) == pytest.approx(0.5)

    def test_impossible_outcomes_are_zero(self):
        assert binomial_pmf(5, -1) == 0.0
        assert binomial_pmf(5, 6) == 0.0

    def test_degenerate_p_zero(self):
        assert binomial_pmf(4, 0, p=0.0) == 1.0
        assert binomial_pmf(4, 1, p=0.0) == 0.0

    def test_degenerate_p_one(self):
        assert binomial_pmf(4, 4, p=1.0) == 1.0
        assert binomial_pmf(4, 3, p=1.0) == 0.0

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            log_binomial_pmf(-1, 0)

    def test_bad_p_rejected(self):
        with pytest.raises(ValueError):
            log_binomial_pmf(3, 1, p=1.5)

    @given(st.integers(0, 200), st.integers(0, 200))
    def test_matches_scipy_pmf(self, n, r):
        expected = sps.binom.pmf(r, n, 0.5)
        assert binomial_pmf(n, r) == pytest.approx(expected, abs=1e-12)


class TestTails:
    @given(st.integers(0, 120), st.integers(-2, 122))
    def test_sf_matches_scipy(self, n, r):
        # scipy's sf is P(R > r); ours is inclusive P(R >= r).
        expected = sps.binom.sf(r - 1, n, 0.5)
        assert binomial_sf(n, r) == pytest.approx(expected, abs=1e-10)

    @given(st.integers(0, 120), st.integers(-2, 122))
    def test_cdf_matches_scipy(self, n, r):
        expected = sps.binom.cdf(r, n, 0.5)
        assert binomial_cdf(n, r) == pytest.approx(expected, abs=1e-10)

    @given(st.integers(0, 80), st.integers(0, 80))
    def test_sf_cdf_complementary(self, n, r):
        if r > n:
            return
        total = binomial_cdf(n, r - 1) + binomial_sf(n, r)
        assert total == pytest.approx(1.0, abs=1e-9)

    @given(st.integers(1, 100))
    def test_sf_monotone_in_r(self, n):
        values = [binomial_sf(n, r) for r in range(n + 2)]
        assert values == sorted(values, reverse=True)

    def test_extremes(self):
        assert binomial_sf(10, 0) == 1.0
        assert binomial_sf(10, 11) == 0.0
        assert binomial_cdf(10, 10) == 1.0
        assert binomial_cdf(10, -1) == 0.0

    def test_all_below_probability_is_power_of_two(self):
        # P(R >= n) = 2^-n for a fair coin: the basis of Eq. (1).
        for n in range(1, 20):
            assert binomial_sf(n, n) == pytest.approx(2.0**-n)


def _term_sum(n, lo, hi, p):
    total = 0.0
    for k in range(lo, hi + 1):
        total += binomial_pmf(n, k, p)
    return total


def _left_sum(terms):
    total = 0.0
    for term in terms:
        total += term
    return total


class TestPmfRows:
    """Tails over cached pmf rows equal the term-by-term sums bit for bit."""

    @pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 0.7, 1.0])
    def test_rows_and_tails_bit_identical(self, p):
        # Every window the rows serve: the rows read lgamma from a list
        # built once, the reference evaluates each term on its own.
        for n in range(0, binomial._ROW_LIMIT + 1):
            terms = [binomial_pmf(n, k, p) for k in range(n + 1)]
            assert binomial._pmf_row(n, p) == tuple(terms)
            lower = 0.0  # terms[0..r] added from the left
            for r in range(0, n):  # r >= n short-cuts to 1.0
                lower += terms[r]
                assert binomial_cdf(n, r, p) == min(lower, 1.0)
            for r in range(1, n + 1):  # r <= 0 short-cuts to 1.0
                if r > (n + 1) // 2 or p <= 0.5:  # else the complement of cdf
                    assert binomial_sf(n, r, p) == min(_left_sum(terms[r:]), 1.0)

    def test_large_windows_bypass_the_row_cache(self):
        n = binomial._ROW_LIMIT + 1000
        before = binomial._pmf_row.cache_info().currsize
        assert binomial_sf(n, n - 3) == min(_term_sum(n, n - 3, n, 0.5), 1.0)
        assert binomial_cdf(n, 3) == min(_term_sum(n, 0, 3, 0.5), 1.0)
        assert binomial._pmf_row.cache_info().currsize == before

    def test_bad_p_still_rejected(self):
        with pytest.raises(ValueError):
            binomial_sf(3, 1, p=1.5)
        with pytest.raises(ValueError):
            binomial_cdf(3, 1, p=float("nan"))
