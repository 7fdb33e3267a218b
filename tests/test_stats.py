import math

import numpy as np
import pytest

from uavpath import stats
from uavpath.stats import (
    SampleSummary,
    Verdict,
    betainc_regularized,
    mean_std,
    paired_t_test,
    t_two_sided_p,
)


class TestMeanStd:
    def test_constant_sample(self):
        assert mean_std([5, 5, 5]) == SampleSummary(3, 5.0, 0.0)

    def test_hand_computed(self):
        # variance 32/7 with the n-1 denominator
        s = mean_std([2, 4, 4, 4, 5, 5, 7, 9])
        assert s.mean == 5.0
        assert s.std == pytest.approx(math.sqrt(32 / 7), abs=1e-12)
        assert s.std == pytest.approx(2.1381, abs=1e-4)

    def test_single_sample(self):
        assert mean_std([7.0]) == SampleSummary(1, 7.0, 0.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_std([])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            mean_std([1.0, math.inf])


class TestTDistribution:
    def test_symmetry_at_zero(self):
        for df in (1, 3, 9, 30):
            assert t_two_sided_p(0.0, df) == 1.0

    def test_cdf_monotone(self):
        # the two-sided p-value falls strictly as |t| grows, on both sides
        ts = np.linspace(0, 8, 81)
        for df in (2, 5, 17):
            vals = [t_two_sided_p(t, df) for t in ts]
            assert all(a > b for a, b in zip(vals, vals[1:]))
            assert [t_two_sided_p(-t, df) for t in ts] == vals

    def test_matches_known_quantiles(self):
        # classic table values: P(|T_3| >= 3.182) = 0.05, P(|T_9| >= 2.262) = 0.05
        assert t_two_sided_p(3.182, 3) == pytest.approx(0.05, abs=1e-3)
        assert t_two_sided_p(2.262, 9) == pytest.approx(0.05, abs=1e-3)

    @pytest.mark.parametrize("df", [1, 5, 999])
    def test_infinite_t_is_exactly_zero(self, df):
        """df / (df + inf) is 0, and I_0 is 0: no special case needed."""
        assert t_two_sided_p(math.inf, df) == 0.0
        assert t_two_sided_p(-math.inf, df) == 0.0

    def test_betacf_non_convergence_raises(self, monkeypatch):
        monkeypatch.setattr(stats, "_BETACF_MAX_ITER", 1)
        with pytest.raises(RuntimeError, match="did not converge"):
            betainc_regularized(2.0, 3.0, 0.3)

    def test_betainc_edges(self):
        assert betainc_regularized(2.0, 3.0, 0.0) == 0.0
        assert betainc_regularized(2.0, 3.0, 1.0) == 1.0
        with pytest.raises(ValueError):
            betainc_regularized(2.0, 3.0, 1.5)


class TestPairedTTest:
    def test_identical_samples(self):
        out = paired_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert out.t_statistic == 0.0
        assert out.p_value == 1.0
        assert out.verdict is Verdict.N

    def test_worked_example(self):
        # d = [-1, 0, -1, -1]: t = -3.0, df = 3, two-sided p ~ 0.0577 -> N
        out = paired_t_test([1, 2, 3, 4], [2, 2, 4, 5])
        assert out.t_statistic == pytest.approx(-3.0, abs=1e-12)
        assert out.p_value == pytest.approx(0.0577, abs=2e-4)
        assert out.verdict is Verdict.N

    def test_constant_shift_dominance(self):
        a = list(range(10))
        b = [x + 10 for x in a]
        out = paired_t_test(a, b)
        assert out.verdict is Verdict.D_PLUS
        assert out.p_value == 0.0
        assert out.t_statistic == -math.inf

    def test_swap_mirrors(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = rng.normal(10, 2, 8)
            b = rng.normal(11, 2, 8)
            ab = paired_t_test(a, b)
            ba = paired_t_test(b, a)
            assert ab.t_statistic == pytest.approx(-ba.t_statistic, rel=1e-12)
            assert ab.p_value == pytest.approx(ba.p_value, rel=1e-12)
            flips = {Verdict.D_PLUS: Verdict.D_MINUS, Verdict.D_MINUS: Verdict.D_PLUS, Verdict.N: Verdict.N}
            assert ba.verdict is flips[ab.verdict]

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        a = rng.normal(5, 1, 10)
        b = rng.normal(6, 1, 10)
        base = paired_t_test(a, b)
        shifted = paired_t_test(a + 123.0, b + 123.0)
        assert shifted.t_statistic == pytest.approx(base.t_statistic, rel=1e-9)
        assert shifted.verdict is base.verdict

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="lengths differ"):
            paired_t_test([1, 2], [1, 2, 3])

    def test_too_few_pairs(self):
        with pytest.raises(ValueError, match="at least 2"):
            paired_t_test([1.0], [2.0])

    def test_significant_difference(self):
        a = [4.0, 4.1, 3.9, 4.2, 4.0, 4.1]
        b = [5.0, 5.2, 4.9, 5.1, 5.0, 5.3]
        out = paired_t_test(a, b)
        assert out.verdict is Verdict.D_PLUS
        assert out.p_value < 0.001
