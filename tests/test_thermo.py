import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from gtokit.selftest import thermo_agreement_cases
from gtokit.thermo import (
    DOMINANCE_TOL,
    TAIL_TOL,
    cross_check,
    dominance_margin,
    geometric_probs,
    level_cutoff,
    thermo_curve,
)

LN2 = math.log(2.0)


def populations(low):
    """Normalised population arrays of 2 to 40 levels, each entry at least ``low`` before scaling."""
    entries = st.lists(st.floats(low, 1.0), min_size=2, max_size=40).filter(lambda v: sum(v) > 0.0)
    return entries.map(lambda v: np.array(v) / sum(v))


@st.composite
def tied_curve_inputs(draw):
    """``(p, g)`` on one grid of 2 to 40 levels, often with tied ratios ``p/g``.

    Ties are planted exactly: ``p = g`` (every ratio 1), ratios that are
    powers of two or zero, or levels copied whole onto others.
    """
    g = draw(populations(1e-6))
    n = len(g)
    kind = draw(st.sampled_from(("free", "p=g", "power-of-two ratios", "copied levels")))
    if kind == "p=g":
        return g.copy(), g
    if kind == "power-of-two ratios":
        ratios = draw(st.lists(st.sampled_from((0.0, 0.5, 1.0, 2.0, 4.0)), min_size=n, max_size=n))
        return g * np.array(ratios), g
    p = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    if kind == "copied levels":
        g = g.copy()
        for _ in range(draw(st.integers(1, n))):
            i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            g[j], p[j] = g[i], p[i]
    return p, g


def lexsort_thermo_curve(p, g):
    """Reference: ``thermo_curve`` as it was built, with ``lexsort`` and stacked cumulative sums."""
    p = np.asarray(p, dtype=float)
    g = np.asarray(g, dtype=float)
    order = np.lexsort((np.arange(len(p)), -(p / g)))
    xs = np.concatenate(([0.0], np.cumsum(g[order])))
    ys = np.concatenate(([0.0], np.cumsum(p[order])))
    return np.column_stack((xs, ys))


def union_dominance_margin(a, b):
    """Reference: ``dominance_margin`` as it was built, on the sorted union of the x-grids."""
    grid = np.union1d(a[:, 0], b[:, 0])
    return float(np.min(np.interp(grid, a[:, 0], a[:, 1]) - np.interp(grid, b[:, 0], b[:, 1])))


class TestMatchesTheReferenceConstruction:
    @given(pair=tied_curve_inputs())
    @settings(max_examples=300, deadline=None)
    def test_curve_is_bit_identical(self, pair):
        got, want = thermo_curve(*pair), lexsort_thermo_curve(*pair)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @given(first=tied_curve_inputs(), second=tied_curve_inputs())
    @settings(max_examples=300, deadline=None)
    def test_margin_is_bit_identical(self, first, second):
        a, b = thermo_curve(*first), thermo_curve(*second)
        assert dominance_margin(a, b) == union_dominance_margin(a, b)
        assert dominance_margin(a, a) == union_dominance_margin(a, a) == 0.0

    def test_tied_ratios_keep_ascending_level_order(self):
        g = np.array([0.25, 0.5, 0.25])
        curve = thermo_curve(2.0 * g, g)  # every ratio is 2
        assert curve[1:, 0].tolist() == [0.25, 0.75, 1.0]


class TestGeometricProbs:
    def test_half_spacing_weights(self):
        assert_allclose(geometric_probs(LN2, 1.0, 45)[:4], [0.5, 0.25, 0.125, 0.0625], rtol=1e-12)

    def test_quarter_spacing_weights(self):
        assert_allclose(geometric_probs(math.log(4.0), 1.0, 25)[:3], [0.75, 0.1875, 0.046875], rtol=1e-12)

    def test_normalized(self):
        assert geometric_probs(0.9, 1.3, level_cutoff(0.9, E=1.3)).sum() == pytest.approx(1.0, abs=1e-15)

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
        assert_allclose(curve[:, 0], curve[:, 1], atol=1e-14)

    def test_colder_input_keeps_natural_level_order(self):
        # beta_i > beta: the ratio p_n / g_n decreases with n
        g = geometric_probs(0.7, 1.0, 41)
        curve = thermo_curve(geometric_probs(1.2, 1.0, 41), g)
        assert_allclose(curve[1:, 0], np.cumsum(g), atol=1e-14)

    def test_hotter_input_reverses_level_order(self):
        g = geometric_probs(0.7, 1.0, 56)
        curve = thermo_curve(geometric_probs(0.5, 1.0, 56), g)
        assert_allclose(curve[1:, 0], np.cumsum(g[::-1]), atol=1e-14)

    def test_curve_is_concave_and_normalized(self):
        g = geometric_probs(0.8, 1.0, 40)
        curve = thermo_curve(geometric_probs(1.5, 1.0, 40), g)
        assert curve.shape == (41, 2)
        assert curve[0].tolist() == [0.0, 0.0]
        assert_allclose(curve[-1], [1.0, 1.0], atol=1e-12)
        slopes = np.diff(curve[:, 1]) / np.diff(curve[:, 0])
        assert np.all(np.diff(slopes) <= 1e-9)

    def test_curve_lies_above_diagonal(self):
        g = geometric_probs(0.8, 1.0, 40)
        curve = thermo_curve(geometric_probs(1.5, 1.0, 40), g)
        xs = np.linspace(0.0, 1.0, 200)
        assert np.all(np.interp(xs, curve[:, 0], curve[:, 1]) >= xs - 1e-12)

    def test_mismatched_cutoff_rejected(self):
        a = geometric_probs(1.0, 1.0, 30)
        b = geometric_probs(1.0, 1.0, 31)
        with pytest.raises(ValueError):
            thermo_curve(a, b)

    def test_underflowing_gibbs_weights_rejected(self):
        # a cutoff so deep that the trailing Gibbs weights round to zero
        # would make the sort ratios meaningless
        a = geometric_probs(0.05, 1.0, 2000)
        g = geometric_probs(2.5, 1.0, 2000)
        assert g[-1] == 0.0
        with pytest.raises(ValueError, match="underflow"):
            thermo_curve(a, g)

    @given(p=populations(0.0))
    @settings(max_examples=200, deadline=None)
    def test_uniform_gibbs_weights_give_the_lorenz_curve(self, p):
        curve = thermo_curve(p, np.full(len(p), 1.0 / len(p)))
        assert_allclose(curve[:, 1], np.concatenate(([0.0], np.cumsum(np.sort(p)[::-1]))), rtol=0, atol=1e-15)

    @given(p=populations(1e-6))
    @settings(max_examples=200, deadline=None)
    def test_populations_against_themselves_give_the_diagonal(self, p):
        curve = thermo_curve(p, p)
        assert_array_equal(curve[:, 0], curve[:, 1])

    @given(g=populations(1e-6), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_a_non_positive_gibbs_weight_anywhere_is_refused(self, g, data):
        g = g.copy()
        g[data.draw(st.integers(0, len(g) - 1))] = data.draw(st.floats(max_value=0.0))
        with pytest.raises(ValueError, match="Gibbs weights must be positive"):
            thermo_curve(np.full(len(g), 1.0 / len(g)), g)


class TestCurveDominates:
    def test_reflexive(self):
        g = geometric_probs(0.8, 1.0, 40)
        c = thermo_curve(geometric_probs(1.1, 1.0, 40), g)
        assert dominance_margin(c, c) >= -DOMINANCE_TOL

    def test_any_distribution_dominates_the_gibbs_curve(self):
        N = level_cutoff(0.4, 0.8, 1.7, E=1.0)
        g = geometric_probs(0.8, 1.0, N)
        diag = thermo_curve(g, g)
        for beta_i in (0.4, 0.8, 1.7):
            c = thermo_curve(geometric_probs(beta_i, 1.0, N), g)
            assert dominance_margin(c, diag) >= -DOMINANCE_TOL

    def test_crossing_curves_dominate_neither_way(self):
        # initial colder than the bath, target hotter: the curves intersect
        N = level_cutoff(1.2, 0.7, 0.5, E=1.0)
        g = geometric_probs(0.7, 1.0, N)
        ci = thermo_curve(geometric_probs(1.2, 1.0, N), g)
        cf = thermo_curve(geometric_probs(0.5, 1.0, N), g)
        assert dominance_margin(ci, cf) < -DOMINANCE_TOL
        assert dominance_margin(cf, ci) < -DOMINANCE_TOL

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
