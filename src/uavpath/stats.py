"""Sample summaries and the paired-sample t-test used by the benchmark
reports.

The two-sided t-test p-value is computed from the regularized incomplete
beta function evaluated by a Lentz-style continued fraction, so the module
has no dependency beyond the standard library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

ALPHA = 0.05  # significance level of every paired t-test verdict


class Verdict(str, Enum):
    """Paired-test outcome for sample a against sample b."""

    D_PLUS = "D+"   # a statistically better
    D_MINUS = "D-"  # a statistically worse
    N = "N"         # difference insignificant
    NA = "NA"       # self-comparison / not applicable


@dataclass(frozen=True)
class SampleSummary:
    n: int
    mean: float
    std: float  # sample standard deviation (n - 1 denominator)


@dataclass(frozen=True)
class TTestVerdict:
    t_statistic: float
    p_value: float
    verdict: Verdict


def mean_std(samples) -> SampleSummary:
    """Arithmetic mean and sample standard deviation; std is 0 for n = 1."""
    xs = [float(v) for v in samples]
    if not xs:
        raise ValueError("mean_std needs at least one sample")
    if any(not math.isfinite(v) for v in xs):
        raise ValueError("samples must be finite")
    n = len(xs)
    mean = math.fsum(xs) / n
    if n == 1:
        return SampleSummary(1, mean, 0.0)
    var = math.fsum((v - mean) ** 2 for v in xs) / (n - 1)
    return SampleSummary(n, mean, math.sqrt(var))


# --- t distribution ---------------------------------------------------------

_BETACF_MAX_ITER = 300
_BETACF_EPS = 3e-16
_FPMIN = 1e-300


def _off_zero(v: float) -> float:
    """Lentz's guard: a term smaller in magnitude than _FPMIN becomes _FPMIN."""
    return _FPMIN if abs(v) < _FPMIN else v


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta function, by the modified
    Lentz method: each iteration takes one even and one odd term."""
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 / _off_zero(1.0 - qab * x / qap)
    h = d
    for m in range(1, _BETACF_MAX_ITER + 1):
        m2 = 2 * m
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 / _off_zero(1.0 + aa * d)
            c = _off_zero(1.0 + aa / c)
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _BETACF_EPS:
            return h
    raise RuntimeError("incomplete beta continued fraction did not converge")


def betainc_regularized(a: float, b: float, x: float) -> float:
    """I_x(a, b), the regularized incomplete beta function."""
    if not 0.0 <= x <= 1.0:
        raise ValueError("x must be in [0, 1]")
    if x == 0.0 or x == 1.0:
        return x
    ln_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log(1.0 - x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def t_two_sided_p(t: float, df: int) -> float:
    """Two-sided p-value for a t statistic; 0.0 for an infinite one, whose
    ``df / (df + t * t)`` is 0."""
    return min(1.0, betainc_regularized(0.5 * df, 0.5, df / (df + t * t)))


def paired_t_test(a, b) -> TTestVerdict:
    """Paired-sample t-test of a against b at significance ALPHA.

    Samples pair by index alone; lower values are better.  D+ means a's
    mean is statistically lower, D- higher, N insignificant.  A
    zero-variance difference is deterministic dominance: verdict by sign
    with p = 0, or N with t = 0 when the samples are identical.
    """
    xs = [float(v) for v in a]
    ys = [float(v) for v in b]
    if len(xs) != len(ys):
        raise ValueError(f"sample lengths differ: {len(xs)} vs {len(ys)}")
    n = len(xs)
    if n < 2:
        raise ValueError("paired_t_test needs at least 2 pairs")
    diffs = [x - y for x, y in zip(xs, ys)]
    summary = mean_std(diffs)
    md, sd = summary.mean, summary.std
    if sd == 0.0:
        if md == 0.0:
            return TTestVerdict(0.0, 1.0, Verdict.N)
        t = math.copysign(math.inf, md)
        p = 0.0
    else:
        t = md / (sd / math.sqrt(n))
        p = t_two_sided_p(t, n - 1)
    if p > ALPHA:
        return TTestVerdict(t, p, Verdict.N)
    return TTestVerdict(t, p, Verdict.D_PLUS if md < 0.0 else Verdict.D_MINUS)
