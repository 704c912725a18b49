import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gtokit.selftest import thermo_agreement_cases
from gtokit.thermo import (
    TAIL_TOL,
    GeometricDist,
    ThermoCurve,
    cross_check,
    curve_dominates,
    dominance_margin,
    geometric_probs,
    level_cutoff,
    thermo_curve,
)

LN2 = math.log(2.0)


class TestGeometricProbs:
    def test_half_spacing_weights(self):
        d = geometric_probs(LN2, 1.0, 45)
        assert_allclose(d.probs[:4], [0.5, 0.25, 0.125, 0.0625], rtol=1e-12)

    def test_quarter_spacing_weights(self):
        d = geometric_probs(math.log(4.0), 1.0, 25)
        assert_allclose(d.probs[:3], [0.75, 0.1875, 0.046875], rtol=1e-12)

    def test_normalized(self):
        d = geometric_probs(0.9, 1.3, level_cutoff(0.9, E=1.3))
        assert d.probs.sum() == pytest.approx(1.0, abs=1e-15)

    def test_level_cutoff_keeps_every_tail_below_tolerance(self):
        assert level_cutoff(0.5, 0.7, E=1.0) == 56
        N = level_cutoff(1.4, 0.45, 2.0, E=1.7)
        assert N == math.ceil(28.0 / (0.45 * 1.7))
        for beta in (1.4, 0.45, 2.0):
            assert math.exp(-beta * 1.7 * N) <= TAIL_TOL
            geometric_probs(beta, 1.7, N)

    @pytest.mark.parametrize("betas, E", [((1.0, 0.7), 0.0), ((0.0, 0.7), 1.0), ((1.0, -0.5), 1.0)])
    def test_level_cutoff_refuses_non_positive_inputs(self, betas, E):
        with pytest.raises(ValueError, match="must be positive"):
            level_cutoff(*betas, E=E)

    def test_loud_truncation(self):
        with pytest.raises(ValueError, match="tail mass"):
            geometric_probs(0.5, 1.0, 20)

    def test_domain(self):
        with pytest.raises(ValueError):
            geometric_probs(-0.5, 1.0, 100)
        with pytest.raises(ValueError):
            geometric_probs(LN2, 1.0, 1)


class TestThermoCurve:
    def test_gibbs_against_itself_is_diagonal(self):
        g = geometric_probs(0.8, 1.0, 40)
        curve = thermo_curve(g, g)
        assert_allclose(curve.xs, curve.ys, atol=1e-14)

    def test_colder_input_keeps_natural_level_order(self):
        # beta_i > beta: the ratio p_n / g_n decreases with n
        g = geometric_probs(0.7, 1.0, 41)
        curve = thermo_curve(geometric_probs(1.2, 1.0, 41), g)
        assert_allclose(curve.xs[1:], np.cumsum(g.probs), atol=1e-14)

    def test_hotter_input_reverses_level_order(self):
        g = geometric_probs(0.7, 1.0, 56)
        curve = thermo_curve(geometric_probs(0.5, 1.0, 56), g)
        assert_allclose(curve.xs[1:], np.cumsum(g.probs[::-1]), atol=1e-14)

    def test_curve_is_concave_and_normalized(self):
        g = geometric_probs(0.8, 1.0, 40)
        curve = thermo_curve(geometric_probs(1.5, 1.0, 40), g)
        assert curve.breakpoints[0].tolist() == [0.0, 0.0]
        assert_allclose(curve.breakpoints[-1], [1.0, 1.0], atol=1e-12)
        slopes = np.diff(curve.ys) / np.diff(curve.xs)
        assert np.all(np.diff(slopes) <= 1e-9)

    def test_curve_lies_above_diagonal(self):
        g = geometric_probs(0.8, 1.0, 40)
        curve = thermo_curve(geometric_probs(1.5, 1.0, 40), g)
        xs = np.linspace(0.0, 1.0, 200)
        assert np.all(curve.at(xs) >= xs - 1e-12)

    def test_mismatched_cutoff_rejected(self):
        a = geometric_probs(1.0, 1.0, 30)
        b = geometric_probs(1.0, 1.0, 31)
        with pytest.raises(ValueError):
            thermo_curve(a, b)

    def test_mismatched_spacing_rejected(self):
        a = geometric_probs(1.0, 1.0, 30)
        b = geometric_probs(1.0, 1.1, 30)
        with pytest.raises(ValueError):
            thermo_curve(a, b)

    def test_underflowing_gibbs_weights_rejected(self):
        # a cutoff so deep that the trailing Gibbs weights round to zero
        # would make the sort ratios meaningless
        a = geometric_probs(0.05, 1.0, 2000)
        g = geometric_probs(2.5, 1.0, 2000)
        assert g.probs[-1] == 0.0
        with pytest.raises(ValueError, match="underflow"):
            thermo_curve(a, g)

    def test_probs_shape_guard(self):
        with pytest.raises(ValueError):
            GeometricDist(beta=1.0, E=1.0, cutoff=3, probs=np.ones(4) / 4)
        with pytest.raises(ValueError):
            ThermoCurve(np.zeros((3, 3)))


class TestCurveDominates:
    def test_reflexive(self):
        g = geometric_probs(0.8, 1.0, 40)
        c = thermo_curve(geometric_probs(1.1, 1.0, 40), g)
        assert curve_dominates(c, c)

    def test_any_distribution_dominates_the_gibbs_curve(self):
        N = level_cutoff(0.4, 0.8, 1.7, E=1.0)
        g = geometric_probs(0.8, 1.0, N)
        diag = thermo_curve(g, g)
        for beta_i in (0.4, 0.8, 1.7):
            c = thermo_curve(geometric_probs(beta_i, 1.0, N), g)
            assert curve_dominates(c, diag)

    def test_crossing_curves_dominate_neither_way(self):
        # initial colder than the bath, target hotter: the curves intersect
        N = level_cutoff(1.2, 0.7, 0.5, E=1.0)
        g = geometric_probs(0.7, 1.0, N)
        ci = thermo_curve(geometric_probs(1.2, 1.0, N), g)
        cf = thermo_curve(geometric_probs(0.5, 1.0, N), g)
        assert not curve_dominates(ci, cf)
        assert not curve_dominates(cf, ci)

    def test_margin_sign_convention(self):
        N = level_cutoff(0.5, 0.7, E=1.0)
        g = geometric_probs(0.7, 1.0, N)
        diag = thermo_curve(g, g)
        hot = thermo_curve(geometric_probs(0.5, 1.0, N), g)
        assert dominance_margin(diag, diag) == 0.0
        # a strictly hotter state sits above the Gibbs diagonal...
        assert dominance_margin(hot, diag) >= -1e-12
        # ...and the diagonal pokes under it by a bulk amount
        assert dominance_margin(diag, hot) < -1e-3


class TestCrossCheck:
    def test_identity_is_allowed_by_both(self):
        thermo, gauss, agree = cross_check(1.0, 1.0, 0.7, 1.0, 60)
        assert thermo and gauss and agree

    def test_full_thermalization_is_allowed_by_both(self):
        thermo, gauss, agree = cross_check(1.0, 0.7, 0.7, 1.0, 60)
        assert thermo and gauss and agree

    def test_heating_away_from_bath_is_refused_by_both(self):
        thermo, gauss, agree = cross_check(1.0, 0.5, 2.0, 1.0, 56)
        assert not thermo and not gauss and agree

    def test_overshooting_the_bath_is_refused_by_both(self):
        thermo, gauss, agree = cross_check(1.2, 0.5, 0.7, 1.0, 56)
        assert not thermo and not gauss and agree

    def test_sampled_triples_always_agree(self):
        rng = np.random.default_rng(67)
        for beta_i, beta_f, beta, E in thermo_agreement_cases(rng, 50):
            N = level_cutoff(beta_i, beta_f, beta, E=E)
            v1, _, agree = cross_check(beta_i, beta_f, beta, E, N)
            assert agree, (beta_i, beta_f, beta, E, N)
            # the verdict must not depend on the (adequate) cutoff
            assert v1 == cross_check(beta_i, beta_f, beta, E, 2 * N)[0]

    def test_sampler_covers_both_verdicts(self):
        rng = np.random.default_rng(71)
        cases = thermo_agreement_cases(rng, 40)
        assert len(cases) == 40
        verdicts = set()
        for beta_i, beta_f, beta, E in cases:
            lo, hi = min(beta_i, beta), max(beta_i, beta)
            verdicts.add(lo <= beta_f <= hi)
            assert beta_f >= 0.25
        assert verdicts == {True, False}
