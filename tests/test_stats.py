"""The wardens' tail probabilities against scipy as the reference oracle."""

import math
import random

import pytest

from stegomail.stats import binom_half_pvalue, chi2_sf

sps = pytest.importorskip("scipy.stats")


def _chi2_grid():
    rng = random.Random(20021)
    for dof in (1, 2, 3, 255, 2**16 - 1):
        switch = dof + 2.0  # x/2 = a + 1: series below, continued fraction above
        xs = [switch * 0.5, switch - 1e-6, switch, switch + 1e-6, switch * 1.5]
        xs += [max(1e-3, dof + math.sqrt(2 * dof) * rng.uniform(-4.0, 8.0))
               for _ in range(40)]
        for x in xs:
            yield x, dof


@pytest.mark.parametrize("dof", [1, 2, 3, 255, 2**16 - 1])
def test_chi2_sf_of_zero_is_one(dof):
    assert chi2_sf(0.0, dof) == 1.0


def test_chi2_sf_matches_scipy():
    for x, dof in _chi2_grid():
        expected = float(sps.chi2.sf(x, dof))
        assert math.isclose(chi2_sf(x, dof), expected, rel_tol=1e-9), (x, dof)


def test_chi2_sf_cache_is_bounded_and_exact():
    assert chi2_sf.cache_info().maxsize is not None
    chi2_sf.cache_clear()  # so the first call below misses and the second hits
    for x, dof in _chi2_grid():
        exact = chi2_sf.__wrapped__(x, dof)
        assert chi2_sf(x, dof) == exact and chi2_sf(x, dof) == exact, (x, dof)


def test_binom_half_pvalue_matches_scipy_for_every_k():
    for n in [*range(1, 61), 99, 100, 101, 399]:
        for k in range(n + 1):
            expected = sps.binomtest(k, n, 0.5).pvalue
            assert abs(binom_half_pvalue(k, n) - expected) <= 1e-12, (k, n)


def test_binom_half_pvalue_past_float_overflow():
    n = 2000  # 2.0 ** n overflows a float; the exact integer sum does not
    for k in [*range(0, n + 1, 10), 999, 1001]:
        expected = sps.binomtest(k, n, 0.5).pvalue
        assert abs(binom_half_pvalue(k, n) - expected) <= 1e-12, k


@pytest.mark.parametrize("n", [2, 100, 2000])
def test_binom_half_pvalue_at_the_centre_is_one(n):
    assert binom_half_pvalue(n // 2, n) == 1.0


def _exact_binom_half_pvalue(k, n):
    """min(1, 2 * sum_{i <= min(k, n-k)} C(n, i) / 2^n) in integers, divided once."""
    m = min(k, n - k)
    if 2 * k == n:
        return 1.0
    term = total = 1
    for i in range(m):
        term = term * (n - i) // (i + 1)
        total += term
    return min(1.0, total / (1 << (n - 1)))


def _k_grid(n):
    # Around the centre, where the ratio sum is longest, out to the far tail,
    # and the small m where Stirling's error term switches method.
    root = math.isqrt(n)
    return sorted({n // 2 + d for d in (1, 2, 37, root, 3 * root, 6 * root, 20 * root)}
                  | {n // 2 - 37, 1, 15, 16, 35, 36, 80, 81, 500, 501, n // 4, n - 3})


@pytest.mark.parametrize("n", [4096, 4097, 5000, 10007, 16384])
def test_binom_half_pvalue_past_the_exact_path_matches_the_integer_sum(n):
    # 4096 is the largest n summed in integers; past it the float path.
    for k in _k_grid(n):
        expected = _exact_binom_half_pvalue(k, n)
        assert math.isclose(binom_half_pvalue(k, n), expected, rel_tol=1e-12), (k, n)


@pytest.mark.parametrize("n", [2 ** e for e in range(14, 21)])
def test_binom_half_pvalue_matches_scipy_up_to_the_message_cap(n):
    # Up to 2^20 trials, the longest message a game plays.
    root = math.isqrt(n)
    for k in (n // 2 + 1, n // 2 + 37, n // 2 - root, n // 2 + 3 * root, n // 2 + 6 * root):
        expected = sps.binomtest(k, n, 0.5).pvalue
        assert math.isclose(binom_half_pvalue(k, n), expected, rel_tol=1e-12), (k, n)


def test_binom_half_pvalue_with_no_success_past_the_exact_path():
    # 2 / 2^n is below the smallest float here, so the p-value is 0.0 exactly.
    assert binom_half_pvalue(0, 4097) == binom_half_pvalue(4097, 4097) == 0.0
