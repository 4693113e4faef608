"""The wardens' two tail probabilities, in the standard library: the
chi-squared upper tail and the exact two-sided binomial test at p = 1/2."""

from __future__ import annotations

from functools import lru_cache
from math import exp, lgamma, log, sqrt

_EPS = 2.220446049250313e-16
_TINY = 1e-300


@lru_cache(maxsize=1024)
def chi2_sf(x: float, dof: int) -> float:
    """P(X > x) for X ~ chi-squared with `dof` degrees of freedom.

    The regularized upper incomplete gamma Q(dof/2, x/2): a power series
    for P below a + 1 and a modified-Lentz continued fraction for Q above
    it (Numerical Recipes §6.2).  Both converge in O(sqrt(a)) terms.
    Memoized: a short response's statistic on a small channel takes few values.
    """
    if x <= 0.0:
        return 1.0
    a, z = dof / 2.0, x / 2.0
    prefactor = exp(a * log(z) - z - lgamma(a))
    limit = 100 + int(20 * sqrt(a))
    if z < a + 1.0:
        term = total = 1.0 / a
        for n in range(1, limit):
            term *= z / (a + n)
            total += term
            if term < total * _EPS:
                return 1.0 - total * prefactor
    else:
        b = z + 1.0 - a
        c, d = 1.0 / _TINY, 1.0 / b
        h = d
        for i in range(1, limit):
            an = -i * (i - a)
            b += 2.0
            d = an * d + b
            d = 1.0 / (d if abs(d) > _TINY else _TINY)
            c = b + an / c
            if abs(c) < _TINY:
                c = _TINY
            h *= d * c
            if abs(d * c - 1.0) < _EPS:
                return prefactor * h
    raise ArithmeticError(f"chi2_sf({x}, {dof}) did not converge in {limit} terms")


def binom_half_pvalue(k: int, n: int) -> float:
    """Exact two-sided p-value of k successes in n fair Bernoulli trials.

    By symmetry it is min(1, 2 * sum_{i <= min(k, n-k)} C(n, i) / 2^n),
    and 1.0 when 2k = n.  C(n, i) is one running integer and the sum is
    divided exactly, so nothing overflows past n = 1023.
    """
    if 2 * k == n:
        return 1.0
    term = total = 1
    for i in range(min(k, n - k)):
        term = term * (n - i) // (i + 1)
        total += term
    return min(1.0, total / (1 << (n - 1)))
