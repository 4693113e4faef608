"""The wardens' two tail probabilities, in the standard library: the
chi-squared upper tail and the exact two-sided binomial test at p = 1/2."""

from __future__ import annotations

from functools import lru_cache
from math import exp, ldexp, lgamma, log, log1p, pi, sqrt

_EPS = 2.220446049250313e-16
_TINY = 1e-300

# Largest n whose binomial tail is summed exactly in integers; past it the
# sum takes O(n^2) time, and the float path below takes O(sqrt(n)).
_EXACT_MAX_N = 4096
_LN_2PI = log(2.0 * pi)


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


def _stirlerr(n: int) -> float:
    """log(n!) - log(sqrt(2 pi n) (n/e)^n), the error of Stirling's formula.

    Loader's series for n > 15; below it lgamma, whose cancellation there
    costs ~1e-14 absolute, a relative ~1e-14 on the binomial term.
    """
    if n <= 15:
        return lgamma(n + 1.0) - (n + 0.5) * log(n) + n - 0.5 * _LN_2PI
    nn = float(n) * n
    if n > 500:
        return (1 / 12 - 1 / 360 / nn) / n
    if n > 80:
        return (1 / 12 - (1 / 360 - 1 / 1260 / nn) / nn) / n
    if n > 35:
        return (1 / 12 - (1 / 360 - (1 / 1260 - 1 / 1680 / nn) / nn) / nn) / n
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / nn) / nn) / nn) / nn) / n


def _bd0(x: int, mean: float) -> float:
    """The deviance x log(x / mean) + mean - x, without its cancellation
    for x near the mean (Loader's series in (x - mean) / (x + mean))."""
    if abs(x - mean) < 0.1 * (x + mean):
        v = (x - mean) / (x + mean)
        total = (x - mean) * v
        term = 2.0 * x * v
        v *= v
        j = 3
        while True:
            term *= v
            grown = total + term / j
            if grown == total:
                return total
            total = grown
            j += 2
    return x * log(x / mean) + mean - x


def binom_half_pvalue(k: int, n: int) -> float:
    """Two-sided p-value of k successes in n fair Bernoulli trials.

    By symmetry it is min(1, 2 * sum_{i <= m} C(n, i) / 2^n) with
    m = min(k, n - k), and 1.0 when 2k = n.  Up to _EXACT_MAX_N trials
    C(n, i) is one running integer and the sum is divided exactly.  Past
    it the top term C(n, m) / 2^n is taken in Loader's saddle-point form
    (C. Loader, "Fast and Accurate Computation of Binomial Probabilities",
    2000, the method of R's dbinom), and the sum as that term times
    sum_j prod_{i < j} (m - i) / (n - m + i + 1), in floats, stopped once a
    term no longer changes it: O(sqrt(n)) terms, to ~1e-12 relative.
    """
    if 2 * k == n:
        return 1.0
    m = min(k, n - k)
    if n <= _EXACT_MAX_N:
        term = total = 1
        for i in range(m):
            term = term * (n - i) // (i + 1)
            total += term
        return min(1.0, total / (1 << (n - 1)))
    if m == 0:
        return ldexp(1.0, 1 - n)
    half = n / 2.0
    lc = (_stirlerr(n) - _stirlerr(m) - _stirlerr(n - m)
          - _bd0(m, half) - _bd0(n - m, half))
    lf = _LN_2PI + log(m) + log1p(-m / n)
    top = exp(lc - 0.5 * lf)
    ratio = total = 1.0
    for i in range(m):
        ratio *= (m - i) / (n - m + i + 1)
        grown = total + ratio
        if grown == total:
            break
        total = grown
    return min(1.0, 2.0 * top * total)
