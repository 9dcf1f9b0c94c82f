"""The piecewise power-law algebra and its level-set strata.

The level-set strata are cross-checked against a brute-force distribution
function computed piece by piece, and against the object event sweep of
``level_set_reference``, including configurations whose straddle
constants span dozens of decades (where a merely compensated sum would
leave residue far above the surviving mass).
"""

import math
import time
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from cone_sobolev import (BUILTIN_CONE_NAMES, DivergentIntegralError,
                          LorentzParams, NumericalError, StepFunction1D,
                          ValidationError, acceptance, alvino_search,
                          builtin_cone, construct_system, embedding_norm,
                          lorentz, lorentz_norm_distributional,
                          lorentz_norm_rearranged, quotient, segments,
                          verify_system)
from cone_sobolev.profiles import (alvino_profile, from_knots,
                                   gradient_density, scale)
from cone_sobolev.segments import (Law, LevelSet, Piece, PieceTable,
                                   _group_fsums, level_set_qth_powers,
                                   level_set_strata, moment_integral,
                                   power_primitive, power_primitives,
                                   table_strata)
from cone_sobolev.tanhsinh import _GRADE, _grade_cuts, row_integrals
from level_set_reference import (Stratum, abs_pieces, derivative,
                                 distribution, endpoint_values, inverse,
                                 moment, monotone_direction, pieces_of,
                                 pieces_value, qth_power, rows_of, scaled,
                                 sweep, value_range, with_argument_scaled,
                                 with_argument_shifted)

finite = st.floats(allow_nan=False, allow_infinity=False)


def stratum_integrals(strata, q, qq):
    """The lambda route's rule on the strata of one level set."""
    return row_integrals(rows_of(strata), q, qq,
                         np.zeros(len(strata), dtype=int))


# -- the law ------------------------------------------------------------------

def test_constant_law():
    law = Law.constant(2.5)
    assert law.is_constant
    assert law.constant_value() == 2.5
    assert law.value(17.0) == 2.5
    assert derivative(law).constant_value() == 0.0
    assert monotone_direction(law) == 0


@given(coef=st.floats(min_value=-4, max_value=4).filter(lambda c: abs(c) > 1e-3),
       expo=st.floats(min_value=-2, max_value=3).filter(lambda e: abs(e) > 1e-2),
       shift=st.floats(min_value=-3, max_value=3),
       t=st.floats(min_value=0.1, max_value=5.0))
def test_law_value_formula(coef, expo, shift, t):
    law = Law(coef, expo, shift=shift)
    assert law.value(t) == pytest.approx(coef * t ** expo + shift, rel=1e-12)


@given(coef=st.floats(min_value=0.1, max_value=4),
       expo=st.floats(min_value=-2, max_value=3).filter(lambda e: abs(e) > 1e-2),
       t=st.floats(min_value=0.5, max_value=3.0))
def test_derivative_matches_difference_quotient(coef, expo, t):
    law = Law(coef, expo, shift=1.0)
    h = 1e-6 * t
    numeric = (law.value(t + h) - law.value(t - h)) / (2 * h)
    assert derivative(law).value(t) == pytest.approx(numeric, rel=1e-5)


@given(coef=st.floats(min_value=-4, max_value=-0.05) | st.floats(min_value=0.05, max_value=4),
       expo=st.floats(min_value=-2.5, max_value=2.5).filter(lambda e: abs(e) > 0.05),
       k=st.floats(min_value=0.1, max_value=8),
       t=st.floats(min_value=0.2, max_value=4))
def test_argument_dilation(coef, expo, k, t):
    law = Law(coef, expo, shift=0.7)
    assert with_argument_scaled(law, k).value(t) == pytest.approx(
        law.value(k * t), rel=1e-12)


@given(coef=st.floats(min_value=0.1, max_value=3),
       tau=st.floats(min_value=-0.5, max_value=0.5),
       t=st.floats(min_value=1.0, max_value=4))
def test_argument_shift(coef, tau, t):
    law = Law(coef, 2.0, base=0.25)
    assert with_argument_shifted(law, tau).value(t) == pytest.approx(
        law.value(t + tau), rel=1e-12)


@given(coef=st.floats(min_value=-3, max_value=-0.1) | st.floats(min_value=0.1, max_value=3),
       expo=st.floats(min_value=-2, max_value=2).filter(lambda e: abs(e) > 0.1),
       shift=st.floats(min_value=-2, max_value=2),
       orient=st.sampled_from([1.0, -1.0]),
       t=st.floats(min_value=0.3, max_value=2.5))
def test_inverse_round_trip(coef, expo, shift, orient, t):
    base = 0.0 if orient > 0 else 3.0
    law = Law(coef, expo, base=base, orient=orient, shift=shift)
    lam = law.value(t)
    assume(abs(lam - shift) > 1e-6)  # stay off the branch point
    assert inverse(law).value(lam) == pytest.approx(t, rel=1e-9)


def test_scaled_and_shifted():
    law = Law(2.0, 1.5, shift=1.0)
    assert scaled(law, 3.0).value(2.0) == pytest.approx(3.0 * law.value(2.0))
    assert replace(law, shift=law.shift - 1.0).value(2.0) == pytest.approx(
        law.value(2.0) - 1.0)


def test_orientation_validation():
    with pytest.raises(ValidationError):
        Law(1.0, 1.0, orient=0.5)


# -- power primitive ----------------------------------------------------------

@settings(max_examples=200)
@given(t0=st.floats(min_value=1e-8, max_value=1e6),
       span=st.floats(min_value=1e-6, max_value=1e8),
       rho=st.floats(min_value=-3.0, max_value=3.0))
def test_power_primitive_against_high_precision(t0, span, rho):
    t1 = t0 + span
    got = power_primitive(t0, t1, rho)
    with mpmath.workdps(50):
        r1 = mpmath.mpf(rho) + 1
        if r1 == 0:
            want = mpmath.log(mpmath.mpf(t1) / mpmath.mpf(t0))
        else:
            want = (mpmath.mpf(t1) ** r1 - mpmath.mpf(t0) ** r1) / r1
        assert got == pytest.approx(float(want), rel=1e-13)


@pytest.mark.parametrize("rho", [-0.5, -1.0 + 1e-12, -1.0, -1.0 - 1e-12, 0.3])
def test_power_primitive_huge_ratio_keeps_precision(rho):
    # spans of 40 decades: the expm1/log1p form must not cancel
    got = power_primitive(1e-20, 1e20, rho)
    with mpmath.workdps(60):
        r1 = mpmath.mpf(rho) + 1
        lo, hi = mpmath.mpf("1e-20"), mpmath.mpf("1e20")
        want = mpmath.log(hi / lo) if r1 == 0 else (hi ** r1 - lo ** r1) / r1
        assert got == pytest.approx(float(want), rel=1e-12)


@pytest.mark.parametrize("t0, t1, rho", [
    (1e-300, 1.0, 0.2), (5e-324, 1.0, 0.0), (1e-300, 1.0, 0.0),
    (5e-324, 1.0, -1.0), (1e-300, 1.0, -0.5), (1e-200, 1e100, 1.5),
    (1e-300, 2.0, -1.5), (0.5, 1e300, 0.0)])
def test_power_primitive_extreme_ratios_against_mpmath(t0, t1, rho):
    # ratios t1/t0 past the double range: the larger endpoint's power is
    # factored out, so nothing overflows and no digit is lost to exp
    got = power_primitive(t0, t1, rho)
    with mpmath.workdps(40):
        r1 = mpmath.mpf(rho) + 1
        lo, hi = mpmath.mpf(t0), mpmath.mpf(t1)
        want = mpmath.log(hi / lo) if r1 == 0 else (hi ** r1 - lo ** r1) / r1
        assert abs(got - want) <= 4e-16 * want


def test_power_primitive_divergences():
    with pytest.raises(DivergentIntegralError):
        power_primitive(0.0, 1.0, -1.0)
    with pytest.raises(DivergentIntegralError):
        power_primitive(1.0, math.inf, -1.0)
    with pytest.raises(DivergentIntegralError):
        power_primitive(0.0, math.inf, -0.5)
    assert power_primitive(1.0, math.inf, -2.0) == pytest.approx(1.0)
    assert power_primitive(0.0, 2.0, -0.5) == pytest.approx(2.0 * math.sqrt(2))


@pytest.mark.parametrize("r1", [0.01, 0.05, 0.3, 1.0, 1.5, 2.5, 4.0])
def test_power_primitives_against_mpmath(r1):
    # one array form for every segment: t0 = 0, ratios t1/t0 down to
    # 1 + 1e-15 and up to 1e300 and past the double range, and random
    # segments between
    rng = np.random.default_rng(int(100 * r1))
    t1 = 10.0 ** rng.uniform(-20.0, 20.0, 400)
    ratio = np.concatenate((
        [math.inf, 1.0 + 1e-15, 1.0 + 4e-15, 1e300],
        1.0 + 10.0 ** rng.uniform(-15.0, 2.0, 200),
        10.0 ** rng.uniform(2.0, 300.0, 196)))
    t0, t1 = np.append(t1 / ratio, 5e-324), np.append(t1, 1.0)
    got = power_primitives(t0, t1, r1)
    with mpmath.workdps(40):
        want = [(mpmath.mpf(b) ** r1 - mpmath.mpf(a) ** r1) / r1
                for a, b in zip(t0.tolist(), t1.tolist())]
        worst = max(abs(g - w) / w for g, w in zip(got.tolist(), want))
    assert worst <= 1e-15


def test_power_primitive_validation():
    with pytest.raises(ValidationError):
        power_primitive(2.0, 1.0, 0.0)
    assert power_primitive(1.5, 1.5, -7.0) == 0.0


# -- moment integrals ----------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(coef=st.floats(min_value=0.1, max_value=2),
       expo=st.floats(min_value=-0.8, max_value=2).filter(lambda e: abs(e) > 0.05),
       shift=st.floats(min_value=0.0, max_value=1.5),
       gamma=st.floats(min_value=0.2, max_value=2.0),
       q=st.sampled_from([1.0, 1.5, 2.0, 2.7]))
def test_moment_integral_matches_adaptive_quadrature(coef, expo, shift,
                                                     gamma, q):
    law = Law(coef, expo, shift=shift)
    t0, t1 = 0.3, 2.1
    got = moment_integral(t0, t1, law, gamma, q)
    want, err = quad(lambda t: t ** (gamma - 1.0) * law.value(t) ** q,
                     t0, t1, epsabs=0.0, epsrel=1e-12, limit=200)
    assert got == pytest.approx(want, rel=1e-9)


def test_moment_integral_origin_singularity():
    # integrand t^(gamma-1) (t^-0.5)^1 with gamma = 0.75: integrable at 0
    law = Law(1.0, -0.5)
    got = moment_integral(0.0, 1.0, law, 0.75, 1.0)
    assert got == pytest.approx(1.0 / 0.25, rel=1e-10)


def test_moment_integral_constant_law_closed_form():
    got = moment_integral(0.0, 4.0, Law.constant(3.0), 0.5, 2.0)
    assert got == pytest.approx(9.0 * 2.0 * 2.0, rel=1e-13)  # 9 * 4^0.5/0.5


def test_moment_integral_divergence_is_reported():
    with pytest.raises(DivergentIntegralError):
        moment_integral(0.0, 1.0, Law(1.0, -2.0), 0.5, 1.0)


@pytest.mark.parametrize("law, t0", [
    (Law(-2.2, 1.0, base=-1.2488877019831965, shift=6.378912152651386),
     1.0444112292665013),
    (Law(1.7, 1.0, base=3.9, orient=-1.0, shift=0.4), 2.3741113)])
@pytest.mark.parametrize("width", [1e-3, 1e-6, 1e-9])
@pytest.mark.parametrize("gamma", [1.0, 2.0, 3.0])
def test_off_origin_closed_form_keeps_the_segment_width(law, t0, width,
                                                        gamma):
    # q = 1 and an integer gamma off the origin: the series in
    # u = orient (t - base) takes the width of the t-segment, not the
    # difference of u's rounded ends, which was 2.2e-10 off at 1e-6
    t1 = t0 + width
    got = moment_integral(t0, t1, law, gamma, 1.0)
    with mpmath.workdps(50):
        a, b, coef, base, shift = map(mpmath.mpf, (
            t0, t1, law.coef, law.base, law.shift))
        want = mpmath.quad(lambda t: t ** (gamma - 1) * (
            coef * law.orient * (t - base) + shift), [a, b])
    assert abs(got - want) <= 1e-13 * abs(want)

# -- the incomplete beta series of the t-route ----------------------------------

def beta_parts(x0, x1, a, b):
    """The series parts of the integral over (x0, x1) of
    x^(a-1) (1-x)^(b-1): the law's zero at xs = 1, with d = 1 - x (exact
    wherever the parts use it, at x >= 1/2)."""
    parts = []
    segments._beta_parts(parts, 1.0, (), 0.0, x0, x1, x1 - x0, 1.0 - x0,
                         1.0 - x1, 1.0, a, b, a + b - 1.0, False)
    return parts


def summed(parts, rest=0.0):
    """A moment's value and error bound from its series parts and its
    elementary rest, as ``_moment_integrals`` forms them."""
    values, bounds = segments._part_sums(parts)
    return (math.fsum([rest, *values]),
            sum(bounds) + 8.0 * 2.0 ** -52 * abs(rest))


def beta_oracle(x0, x1, a, b):
    with mpmath.workdps(40):
        if a > 0:
            return mpmath.betainc(a, b, x0, x1)
        # a <= 0 keeps off x = 0: integrate in s = log x
        return mpmath.quad(lambda s: mpmath.exp(a * s)
                           * (1 - mpmath.exp(s)) ** (b - 1),
                           [mpmath.log(x0), mpmath.log(x1)])


@pytest.mark.parametrize("x0, x1, a, b", [
    (1e-300, 0.3, 0.5, 2.1),             # a segment ratio of 1e300
    (1e-300, 0.3, 0.0, 2.1),             # the log case a = 0
    (1e-300, 0.9, 0.0, 2.1),             # ... cut at 1/2
    (1e-10, 0.4, -1.0, 1.5),             # negative integers
    (1e-3, 0.45, -2.0, 0.5),
    (0.2, 0.9, 1.5, 0.0),                # b = 0 short of the zero
    (0.2, 1.0 - 2.0 ** -50, 2.5, -1.0),  # b = -1, 2^-50 from it
    (0.6, 1.0 - 2.0 ** -40, 0.7, -2.0),
    (0.3, 0.7, 2.0, 3.0),
    (0.5, 1.0, 1e-3, 0.3),
    (0.0, 1.0, 0.25, 0.75),              # B(1/4, 3/4) = pi sqrt 2
    (0.0, 0.5, 3.0, -4.5),
    (0.6666, 0.666601, 1.2, 2.2),        # 1e-6 wide
    (0.4999995, 0.5000005, 1.7, 2.3),    # 1e-6 wide across the cut
    (1e-7, 1e-7 + 1e-13, 0.3, 1.4),
])
def test_beta_series_matches_betainc(x0, x1, a, b):
    value, bound = summed(beta_parts(x0, x1, a, b))
    want = beta_oracle(x0, x1, a, b)
    assert abs(value - want) <= bound
    assert bound <= 1e-12 * abs(value)


def test_beta_series_full_integral():
    value, _ = summed(beta_parts(0.0, 1.0, 0.25, 0.75))
    assert value == pytest.approx(math.pi * math.sqrt(2.0), rel=1e-15)


def moment_oracle(t0, t1, law, gamma, q, dps=50):
    with mpmath.workdps(dps):
        c, e, s, base, orient = (mpmath.mpf(v) for v in (
            law.coef, law.expo, law.shift, law.base, law.orient))
        return mpmath.quad(
            lambda t: t ** (gamma - 1) * (c * (orient * (t - base)) ** e
                                          + s) ** q,
            [mpmath.mpf(t0), mpmath.mpf(t1)])


@pytest.mark.parametrize("t0, t1, law, gamma, q", [
    # 1e-6 wide at t = 2: falling to a zero at 3, at the zero itself, a
    # power arc and an off-origin arc with integer q
    (2.0, 2.000001, Law(-1.0, 1.0, shift=3.0), 0.6, 1.2),
    (2.0, 2.000001, Law(-1.0, 1.0, shift=2.000001), 0.6, 1.2),
    (2.0, 2.000001, Law(1.0, -0.5, shift=-0.25), 1.3, 2.5),
    (2.0, 2.000001, Law(1.0, -0.5, base=-0.5, shift=-0.25), 1.3, 2.0),
    # ... and one with integer gamma: u = t + 0.5 is rounded, the width
    # comes from t
    (1.5, 1.500001, Law(-1.0, 1.0, base=-0.5, shift=5.0), 2.0, 1.25),
    # same sign, through the Pfaff transform
    (0.3, 2.1, Law(1.3, 0.7, shift=0.4), 0.8, 1.5),
    (0.3, 2.1, Law(1.3, -0.7, shift=0.4), 0.8, 1.5),
    # off the origin: a pure power, an integer gamma, an integer q
    (0.5, 2.0, Law(1.0, -0.5, base=2.0, orient=-1.0), 1.4, 1.2),
    (0.5, 3.0, Law(-0.5, 1.5, base=-1.0, shift=4.0), 2.0, 1.3),
    (0.5, 2.0, Law(1.0, -0.5, base=0.25, shift=-0.1), 1.4, 2.0),
    # the series variable base/t underflows to 0 but is no end of the law
    (1e30, 2e30, Law(1.0, -0.5, base=1e-300), 0.5, 1.2),
    (1e30, 2e30, Law(1.0, -0.5, base=1e-300, shift=-1e-16), 0.5, 1.0),
])
def test_moment_series_within_their_bounds(t0, t1, law, gamma, q):
    parts = []
    rest = segments._moment_parts(parts, t0, t1, law, gamma, q)
    value, bound = summed(parts, rest)
    assert value == moment_integral(t0, t1, law, gamma, q)
    assert abs(value - moment_oracle(t0, t1, law, gamma, q)) <= bound
    assert bound <= 1e-12 * value


@pytest.mark.parametrize("t0, t1, law, gamma, q", [
    # 1e-6 wide, ending at the zero of a law whose x = t^expo (or u^expo,
    # u = t + 1/2) is rounded: d at the far end is off by ulp(x), some
    # 1e-10 of it; each law is nonnegative up to t1
    (2.0, 2.000001, Law(-1.0, 0.5, shift=2.000001 ** 0.5), 1.3, 1.5),
    (2.0, 2.000001, Law(-1.0, 1.5, shift=2.000001 ** 1.5), 0.6, 2.5),
    (2.0, 2.000001, Law(1.0, -0.5, shift=-(2.000001 ** -0.5)), 1.3, 1.5),
    (2.0, 2.000001, Law(-1.0, 1.5, base=-0.5, shift=(2.000001 + 0.5) ** 1.5),
     2.0, 1.5),
])
def test_rounded_ends_at_a_law_zero_are_in_the_bound(t0, t1, law, gamma, q):
    parts = []
    rest = segments._moment_parts(parts, t0, t1, law, gamma, q)
    value, bound = summed(parts, rest)
    assert abs(value - moment_oracle(t0, t1, law, gamma, q)) <= bound
    # beyond 1e-12, so the moment leaves the series for the adaptive rule
    assert bound > 1e-12 * value


def test_segment_at_the_law_zero_within_rounding():
    # the law is 0 at both ends as computed: with x = t exact it is 0
    # between, with a rounded t^expo its size there is unknown
    t1 = math.nextafter(2.0, 3.0)
    assert moment_integral(2.0, t1, Law(-1.0, 1.0, shift=2.0), 1.3, 1.5) == 0
    with pytest.raises(NumericalError):
        moment_integral(2.0, t1, Law(-1.0, 0.5, shift=math.sqrt(2.0)), 1.3,
                        1.5)


def test_same_sign_moment_matches_hyp2f1():
    # integral over (0, X) of t^(gamma-1) (1 + t)^q is
    # X^gamma / gamma 2F1(-q, gamma; gamma + 1; -X)
    gamma, q = 0.5, -1.7
    for x in (1e-3, 2.0, 1e8, 1e300):
        got = moment_integral(0.0, x, Law(1.0, 1.0, shift=1.0), gamma, q)
        with mpmath.workdps(40):
            want = (mpmath.mpf(x) ** gamma / gamma
                    * mpmath.hyp2f1(-q, gamma, gamma + 1, -mpmath.mpf(x)))
        assert got == pytest.approx(float(want), rel=1e-13)


@pytest.mark.parametrize("t0, t1, law, gamma, q", [
    # the binomial of (4 - t)^q cancels to 1e-6 of its terms near t = 4
    (3.999999, 4.0, Law(-1.0, 1.0, shift=4.0), 0.5, 1.0),
    (3.9999, 4.0, Law(-1.0, 1.0, shift=4.0), 2.0 / 3.0, 2.0),
    # off the origin at q = 1 and integer gamma: u = t + 1, zero at u = 5
    (3.999999, 4.0, Law(-1.0, 1.0, base=-1.0, shift=5.0), 2.0, 1.0),
    (3.99, 4.0, Law(-1.0, 1.0, base=-1.0, shift=5.0), 1.0, 1.0),
])
def test_binomial_near_the_law_zero_meets_the_contract(t0, t1, law, gamma,
                                                       q):
    # the moments are about 1e-13: a relative check, no absolute floor
    want = moment_oracle(t0, t1, law, gamma, q)
    assert abs(moment_integral(t0, t1, law, gamma, q) - want) <= 1e-12 * want


def test_divergent_series_part_is_reported():
    with pytest.raises(DivergentIntegralError):
        moment_integral(0.0, 1.0, Law(1.0, -1.0, shift=1.0), 0.5, 1.5)


@pytest.mark.parametrize("gap", [1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7])
def test_near_coincident_last_knot_on_the_t_route(halfplane, gap):
    star = LorentzParams(1.5, 1.2, halfplane).star_params()
    prof = from_knots(halfplane, [(0.5, 1.0), (1.0, 0.7), (2.0, 0.3),
                                  (2.0 + gap, 0.0)])
    seconds = []
    for _ in range(3):
        start = time.perf_counter()
        got = lorentz_norm_rearranged(prof, star)
        seconds.append(time.perf_counter() - start)
    assert min(seconds) < 0.01
    assert got == pytest.approx(lorentz_norm_distributional(prof, star),
                                rel=1e-10)


# -- what still reaches the adaptive rule ----------------------------------------

def is_appell(law, gamma, q):
    """An off-origin moment with non-integer q and gamma: an Appell F1
    integral, the one class the incomplete beta series leaves to the rule."""
    return ((law.base != 0.0 or law.orient != 1.0) and law.shift != 0.0
            and q != int(q) and gamma != int(gamma))


def record_the_rule(monkeypatch):
    """Each call of the t-route's rule, as the moment it serves; the Hardy
    tail's rule must not run."""
    arrived, serving = [], []
    moment, rule = segments._moment_adaptive, segments.integrate_adaptive

    def recorded_moment(t0, t1, law, gamma, q):
        serving.append((law, gamma, q))
        try:
            return moment(t0, t1, law, gamma, q)
        finally:
            serving.pop()

    def recorded_rule(*args):
        arrived.append(serving[-1] if serving else None)
        return rule(*args)

    def forbidden(*args, **kwargs):
        raise AssertionError("Hardy tail rule used")

    monkeypatch.setattr(segments, "_moment_adaptive", recorded_moment)
    monkeypatch.setattr(segments, "integrate_adaptive", recorded_rule)
    monkeypatch.setattr(lorentz, "integrate_adaptive", forbidden)
    return arrived


def affine_profiles():
    # profile-batch's affine items: criterion 3's law at its four (p, q)
    rng = np.random.default_rng(5)
    for name in ("halfplane-x1", "quadrant-x1x2", "disc-unweighted"):
        cone = builtin_cone(name)
        for p, q in ((1.5, 1.0), (2.0, 1.0), (1.0, 1.0), (1.5, 1.25)):
            if p >= cone.big_d:
                continue
            params = LorentzParams(p, q, cone)
            for _ in range(4):
                ts = np.sort(rng.uniform(0.05, 4.0, int(rng.integers(2, 8))))
                drops = rng.uniform(0.05, 1.0, len(ts) - 1)
                vals = np.concatenate([np.cumsum(drops[::-1])[::-1], [0.0]])
                prof = from_knots(cone, list(zip(ts.tolist(), vals.tolist())))
                quotient(prof, params)
                lorentz_norm_rearranged(prof, params.star_params())


def alvino_sweeps():
    for name in ("halfplane-x1", "quadrant-x1x2", "disc-unweighted"):
        alvino_search(builtin_cone(name), LorentzParams(1.5, 1.25),
                      [1e2, 1e4, 1e8, 1e40])


def shell_system(p=2.0, q=1.0):
    cone, params = builtin_cone("halfplane-x1"), LorentzParams(p, q)
    verify_system(construct_system(cone, params, 3,
                                   0.5 * embedding_norm(cone, params),
                                   0.05, 0.05))


def criteria_3_and_5():
    assert all(r.passed for r in acceptance.run_criteria([3, 5]))


@pytest.mark.parametrize("run", [affine_profiles, alvino_sweeps, shell_system,
                                 criteria_3_and_5])
def test_only_appell_moments_reach_the_rule(monkeypatch, run):
    arrived = record_the_rule(monkeypatch)
    run()
    assert all(m is not None and is_appell(*m) for m in arrived)


def test_appell_moments_still_take_the_rule(monkeypatch):
    # at non-integer q the shells' windows are Appell F1 integrals
    arrived = record_the_rule(monkeypatch)
    shell_system(1.5, 1.3)
    assert arrived and all(m is not None and is_appell(*m) for m in arrived)


# -- pieces ---------------------------------------------------------------------

def test_piece_validation():
    with pytest.raises(ValidationError):
        Piece(2.0, 1.0, Law.constant(1.0))
    with pytest.raises(ValidationError):
        Piece(-0.5, 1.0, Law.constant(1.0))
    with pytest.raises(ValidationError):
        Piece(0.0, 1.0, Law(1.0, 0.5, base=0.5))  # negative argument at t0


def test_pieces_value_and_clip():
    pieces = [Piece(0.0, 1.0, Law.constant(2.0)),
              Piece(1.0, 3.0, Law(1.0, 1.0))]
    ts = np.array([0.5, 1.5, 2.5, 3.5])
    assert np.allclose(pieces_value(pieces, ts), [2.0, 1.5, 2.5, 0.0])
    clipped = PieceTable.of(pieces).clip(0.5, 2.0)
    assert pieces_of(clipped) == (Piece(0.5, 1.0, pieces[0].law),
                                  Piece(1.0, 2.0, pieces[1].law))
    assert not PieceTable.of(pieces).clip(5.0, 6.0).t0.size


def test_abs_pieces_splits_at_roots():
    # affine law crossing zero at t = 2
    pieces = [Piece(1.0, 3.0, Law(1.0, 1.0, shift=-2.0))]
    split = abs_pieces(pieces)
    ts = np.linspace(1.01, 2.99, 41)
    got = pieces_value(split, ts)
    assert np.allclose(got, np.abs(ts - 2.0), atol=1e-12)
    assert all(value_range(p)[0] >= -1e-12 for p in split)


def test_piece_moment_additivity():
    pieces = [Piece(0.0, 1.0, Law.constant(1.0)),
              Piece(1.0, 2.0, Law.constant(0.5))]
    total = math.fsum(moment(p, 1.0, 1.0) for p in pieces)
    assert total == pytest.approx(1.0 + 0.5, rel=1e-14)


# -- level sets -----------------------------------------------------------------

def brute_distribution(pieces, lam: float) -> float:
    """Measure of {f > lam} summed piece by piece, via monotone inverses."""
    total = 0.0
    for p in pieces:
        lo, hi = value_range(p)
        if lam >= hi:
            continue
        if lam < lo or p.law.is_constant:
            total += p.t1 - p.t0
            continue
        t_at = inverse(p.law).value(lam)
        if monotone_direction(p.law) < 0:
            total += t_at - p.t0
        else:
            total += p.t1 - t_at
    return total


def sample_levels(strata):
    """Strictly interior sample levels, one per stratum (None if the
    stratum is so thin its float midpoint touches a boundary)."""
    out = []
    for s in strata:
        if math.isinf(s.lam1):
            out.append(2.0 * s.lam0 + 1.0)
            continue
        mid = 0.5 * (s.lam0 + s.lam1)
        out.append(mid if s.lam0 < mid < s.lam1 else None)
    return out


piece_strategy = st.builds(
    lambda t0, length, kind, a, b: Piece(
        t0, t0 + length,
        Law.constant(abs(b)) if kind == 0 else
        Law(a, 1.0, shift=max(b, 0.0) + abs(a) * (t0 + length))
        if kind == 1 else Law(abs(a) + 0.1, -0.7)),
    t0=st.floats(min_value=0.0, max_value=3.0),
    length=st.floats(min_value=0.05, max_value=2.0),
    kind=st.integers(min_value=0, max_value=2),
    a=st.floats(min_value=-2.0, max_value=-0.1),
    b=st.floats(min_value=0.0, max_value=3.0),
)


@settings(max_examples=100, deadline=None)
@given(pieces=st.lists(piece_strategy, min_size=1, max_size=8))
def test_level_set_matches_brute_force(pieces):
    level = LevelSet.from_pieces(pieces)
    for lam in sample_levels(level.strata):
        if lam is None:
            continue
        got = distribution(level, lam)
        want = brute_distribution(pieces, lam)
        assert got == pytest.approx(want, rel=1e-10, abs=1e-12)


def test_level_set_strata_tile_the_range():
    pieces = [Piece(0.0, 1.0, Law(1.0, -0.5)),
              Piece(1.0, 2.0, Law.constant(0.5))]
    level = LevelSet.from_pieces(pieces)
    assert level.strata[0].lam0 == 0.0
    for a, b in zip(level.strata, level.strata[1:]):
        assert a.lam1 == b.lam0
    assert math.isinf(level.lam_max)  # the head arc is unbounded at 0+
    bounded = LevelSet.from_pieces([Piece(1.0, 2.0, Law(1.0, -0.5))])
    assert bounded.lam_max == 1.0


def test_plateaus_give_the_strata_of_their_pieces():
    # a step's plateaus as array columns (``lorentz._table_of``) give the
    # strata of its Piece list, value for value, and those the builder
    # gives its plateaus as one row of constant laws
    rng = np.random.default_rng(8)
    for n in (1, 2, 7, 40):
        bps = np.cumsum(rng.uniform(0.01, 2.0, n))
        vals = rng.choice([0.0, 0.5, 1.0, 3.0], n) * rng.uniform(1, 2, n)
        step = StepFunction1D(bps, vals)
        got = LevelSet(table_strata([lorentz._table_of(step)]))
        want = LevelSet.from_pieces(step.as_pieces())
        zero, row = np.zeros(n), step.value_array[None]
        raw = level_set_strata(*step.plateaus(), row, zero[None], zero,
                               zero, zero + 1.0, row, row)
        assert len(got.table.rows.a) == 0
        for x, y, z in zip(got.table.flat, want.table.flat, raw.flat):
            assert x.tolist() == y.tolist() == z.tolist()
        assert got.lam_max == want.lam_max
        assert got.strata == want.strata
    with pytest.raises(ValidationError):
        table_strata([lorentz._plateau_table(np.zeros(2), np.ones(2),
                                             np.array([1.0, -1.0]))])


def test_group_fsums_of_no_values_are_float_zeros():
    # bincount of no values is int64, on which a float add in place fails
    out = _group_fsums(np.empty(0), np.empty(0, dtype=np.intp), 3)
    assert out.dtype == np.float64
    out += 0.5
    assert out.tolist() == [0.5, 0.5, 0.5]
    # a plateau level set has no straddling pair, so it sums no values
    strata = table_strata([lorentz._plateau_table(np.zeros(2), np.ones(2),
                                                  np.array([1.0, 2.0]))])
    assert strata.rows.coef.dtype == np.float64


def test_level_set_rejects_negative_functions():
    with pytest.raises(ValidationError):
        LevelSet.from_pieces([Piece(0.0, 1.0, Law.constant(-0.5))])


@pytest.mark.parametrize("p, q", [(1.0, 1.0), (2.0, 1.0), (2.5, 1.4),
                                  (4.0, 3.0)])
def test_builder_counts_signed_pieces_above_zero_only(p, q):
    # the builder measures a piece only where it lies above a level
    # lam >= 0, so a sign-changing piece stacked with its negation is |f|
    piece = Piece(1.0, 3.0, Law(1.5, 1.0, shift=-2.5))  # root at t = 5/3
    both = [piece, Piece(1.0, 3.0, scaled(piece.law, -1.0))]
    t0, t1, coef, shift, expo, base, orient = np.array(
        [(pc.t0, pc.t1, pc.law.coef, pc.law.shift, pc.law.expo,
          pc.law.base, pc.law.orient) for pc in both]).T
    va, vb = np.array([endpoint_values(pc) for pc in both]).T
    (got,) = level_set_qth_powers(
        level_set_strata(t0, t1, coef[None], shift[None], expo, base,
                         orient, va[None], vb[None]), p, q)
    want = LevelSet.from_pieces(abs_pieces([piece])).lorentz_qth_power(p, q)
    assert abs(got - want) <= 1e-15 * want


def test_unbounded_pure_power_has_an_exact_tail():
    # t^-0.2 on (0, 1) is unbounded at 0+: its last lambda stratum is
    # (1, inf) with m = lam^-5, whose tail is the exact power rule
    params = LorentzParams(4.0, 2.0)
    arc = [Piece(0.0, 1.0, Law(1.0, -0.2))]
    assert lorentz_norm_distributional(arc, params) == math.sqrt(10.0)
    assert lorentz_norm_rearranged(arc, params) == math.sqrt(10.0)
    # shifted down by 1, the arc's inverse law is based at lam = -1: no
    # exact tail exists, and the lambda route refuses it
    with pytest.raises(NumericalError):
        lorentz_norm_distributional(
            [Piece(0.0, 1.0, Law(1.0, -0.2, shift=-1.0))], params)


def deep_transient_pieces():
    """Nine decreasing arcs on (1e-6 t_hi, t_hi), t_hi = 1e3 .. 1e-45,
    arc j spanning values [j, j+1]."""
    pieces = []
    t_hi = 1e3
    for j in range(9):
        t_lo = t_hi * 1e-6
        coef = (t_lo ** -0.25 - t_hi ** -0.25)
        law = Law(1.0 / coef, -0.25,
                  shift=float(j) - t_hi ** -0.25 / coef)
        pieces.append(Piece(t_lo, t_hi, law))
        t_hi = t_lo
    return pieces


def test_deep_span_strata_survive_huge_transients():
    """Strata whose mass is 40+ decades below the straddle constants.

    Each annulus contributes straddle constants of order its own support
    scale; with supports descending 1e3 .. 1e-45 the in/out transients at
    the top dwarf the surviving mass at the bottom.  Every stratum must
    still come out to full relative precision.
    """
    pieces = deep_transient_pieces()
    level = LevelSet.from_pieces(pieces)
    for lam in sample_levels(level.strata):
        if lam is None:
            continue
        want = brute_distribution(pieces, lam)
        got = distribution(level, lam)
        assert got == pytest.approx(want, rel=1e-9), (lam, got, want)
        assert got >= 0.0


def test_extreme_ratio_routes_agree(halfplane):
    """The 1e40-ratio regression: the lambda sweep across 40 decades.

    A truncated power profile with head-to-support ratio 1e40 produces
    pieces whose level sweep mixes enormous and tiny straddle constants;
    the lambda route must match the t route on the (nonincreasing)
    profile, and match the explicitly compacted rearrangement on the
    gradient density (which has a zero head, so it is not its own
    rearrangement: sliding the arc left by the head length is).
    """
    profile = alvino_profile(halfplane, 3.0, 1.0, 1e40)
    gaps = []
    # q = 1 keeps every t-route moment a single power, exact across the
    # whole 40-decade sweep; fractional q leaves the t route adaptive, so
    # those pairs are checked at a moderate ratio below.
    for p_exp in (3.0, 2.0, 4.0):
        level = LevelSet.from_pieces(list(pieces_of(profile.table)))
        lam_route = level.lorentz_qth_power(p_exp, 1.0)
        t_route = math.fsum(moment(p, 1.0 / p_exp, 1.0)
                            for p in pieces_of(profile.table))
        gaps.append(abs(lam_route - t_route) / t_route)
    moderate = alvino_profile(halfplane, 3.0, 1.0, 1e8)
    for p_exp, q_exp in [(3.0, 1.5), (4.0, 2.0)]:
        level = LevelSet.from_pieces(list(pieces_of(moderate.table)))
        lam_route = level.lorentz_qth_power(p_exp, q_exp) ** (1.0 / q_exp)
        t_route = math.fsum(moment(p, q_exp / p_exp, q_exp)
                            for p in pieces_of(moderate.table)) ** (
                                1.0 / q_exp)
        gaps.append(abs(lam_route - t_route) / t_route)
    assert max(gaps) <= 1e-10

    psi = gradient_density(profile)
    level = LevelSet.from_pieces(list(pieces_of(psi.table)))
    for lam in sample_levels(level.strata):
        if lam is None:
            continue
        want = brute_distribution(pieces_of(psi.table), lam)
        assert distribution(level, lam) == pytest.approx(want, rel=1e-10)


# -- many strata ----------------------------------------------------------------

def many_strata_pieces():
    """(1 - t)^1.5 cut into 600 pieces; with 4 (2 - t)^3 on (1, 2) cut the
    same way, 1200 pieces."""
    cuts = np.linspace(0.0, 1.0, 601)
    f = Law(1.0, 1.5, base=1.0, orient=-1.0)
    g = Law(4.0, 3.0, base=2.0, orient=-1.0)
    one = [Piece(a, b, f) for a, b in zip(cuts[:-1], cuts[1:])]
    two = one + [Piece(1.0 + a, 1.0 + b, g)
                 for a, b in zip(cuts[:-1], cuts[1:])]
    return one, two


@pytest.mark.parametrize("p, q", [(2.0, 1.0), (3.0, 2.0), (1.5, 1.5)])
def test_many_strata_match_high_precision(p, q):
    """Level sets beyond 512 strata keep the 1e-12 contract.

    f = (1 - t)^1.5 cut into 600 pieces has one-term strata
    m = 1 - lam^(2/3), whose lambda integral is p * 1.5 * B(1.5 q, q/p + 1).
    Adding g = 4 (2 - t)^3 on (1, 2), cut the same way, makes the strata
    below lam = 1 two-term.
    """
    one, two = many_strata_pieces()
    with mpmath.workdps(40):
        e, qq = mpmath.mpf(1.5), mpmath.mpf(q) / p

        def m_two(lam):
            m = 1 - mpmath.cbrt(lam / 4)
            return m + 1 - lam ** (1 / e) if lam < 1 else m

        want_one = p * e * mpmath.beta(e * q, qq + 1)
        want_two = p * mpmath.quad(
            lambda lam: lam ** (q - 1) * m_two(lam) ** qq, [0, 1, 4])
    for pieces, want in ((one, want_one), (two, want_two)):
        level = LevelSet.from_pieces(pieces)
        assert len(level.strata) > 512
        got = level.lorentz_qth_power(p, q)
        assert abs(got - want) <= 1e-12 * want


# -- the strata builder against the object sweep --------------------------------

def assert_matches_reference(pieces, pairs=((1.2, 1.0), (1.4, 1.2))):
    """Per-stratum distribution within 1e-12 and q-th powers within 1e-14
    of the reference sweep."""
    level = LevelSet.from_pieces(pieces)
    strata, lam_max = sweep(pieces)
    assert level.lam_max == pytest.approx(lam_max, rel=1e-15)
    lams, want = [], []
    for stratum, lam in zip(strata, sample_levels(strata)):
        if lam is not None:
            lams.append(lam)
            want.append(stratum.distribution(lam))
    assert list(distribution(level, np.array(lams))) == pytest.approx(
        want, rel=1e-12)
    for p, q in pairs:
        try:
            want = qth_power(pieces, p, q)
        except (NumericalError, ArithmeticError) as exc:  # fails alike
            with pytest.raises(type(exc)):
                level.lorentz_qth_power(p, q)
            continue
        assert level.lorentz_qth_power(p, q) == pytest.approx(
            want, rel=1e-14, nan_ok=True)


@settings(max_examples=100, deadline=None)
@given(pieces=st.lists(piece_strategy, min_size=1, max_size=8))
def test_builder_matches_reference_sweep(pieces):
    assert_matches_reference(pieces)


@pytest.mark.xfail(strict=True, raises=NumericalError,
                   reason="the lambda route's rule does not converge on a "
                   "stratum of near-coincident values, (5.8124998, 5.8125)")
def test_builder_on_near_coincident_affine_values():
    # a draw of test_builder_matches_reference_sweep's strategy: three
    # affine pieces of one slope that each fall from 5.8125 to 2.0, so
    # their ends nearly coincide; on the stratum (5.812499772757292,
    # 5.8125) the rule's estimate is 5.3e-13 against a bound of 1.6e-23
    tiny = 2.0 ** -23
    pieces = [Piece(2.0, 4.0, Law(-1.90625, 1.0, shift=9.625)),
              Piece(0.125, 2.125, Law(-1.90625, 1.0, shift=6.05078125)),
              Piece(tiny, tiny + 2.0,
                    Law(-1.90625, 1.0, shift=5.812500227242708))]
    want = qth_power(pieces, 1.2, 1.0)
    assert abs(want - 21.789757541205365) <= 1e-12 * want
    got = LevelSet.from_pieces(pieces).lorentz_qth_power(1.2, 1.0)
    assert abs(got - want) <= 1e-12 * want


# -- one cut per continuous junction --------------------------------------------

def test_junctions_with_a_constant_take_its_value():
    # an affine piece falling from 2 to 1/3 on (0.1, 0.7), a constant 1/3
    # on (0.7, 1.3), then an affine piece down to 0 on (1.3, 2.0); the
    # affine ends evaluate 1/3 a few ulps off the constant
    third = 1.0 / 3.0
    pieces = [Piece(0.1, 0.7, Law(-(2.0 - third) / 0.6, 1.0,
                                  shift=2.0 + (2.0 - third) / 0.6 * 0.1)),
              Piece(0.7, 1.3, Law.constant(third)),
              Piece(1.3, 2.0, Law(-third / 0.7, 1.0,
                                  shift=third / 0.7 * 2.0))]
    ends = [endpoint_values(p) for p in pieces]
    assert ends[0][1] != ends[1][0] != ends[2][0]   # ulps apart
    level = LevelSet.from_pieces(pieces)
    rows = level.table.rows
    # one cut at 1/3: no sliver rows, no extra flat stratum
    assert len(rows.a) == 2 and not level.table.flat[0].size
    assert rows.b[0] == rows.a[1] == third
    assert_matches_reference(pieces, ((1.2, 1.0), (2.0, 1.5)))
    assert level.lorentz_qth_power(1.2, 1.0) == pytest.approx(
        1.2883562093593086, rel=1e-14)
    assert level.lorentz_qth_power(2.0, 1.5) == pytest.approx(
        1.5712393044537676, rel=1e-14)


def test_a_pole_at_a_junction_is_not_joined():
    level = LevelSet.from_pieces([Piece(0.0, 1.0, Law.constant(5.0)),
                                  Piece(1.0, 2.0, Law(1.0, -0.5, base=1.0))])
    assert level.lam_max == math.inf
    # the pole on the left of the junction: inf - 5 is within inf * eps
    level = LevelSet.from_pieces([
        Piece(0.0, 1.0, Law(1.0, -0.5, base=1.0, orient=-1.0)),
        Piece(1.0, 2.0, Law.constant(5.0))])
    assert level.lam_max == math.inf


def test_a_jump_beyond_rounding_stays_two_cuts():
    # two affine pieces meeting at t = 1 with values 1.0 and 1.0 + 1e-12
    h = 1.0 + 1e-12
    pieces = [Piece(0.0, 1.0, Law(-1.0, 1.0, shift=2.0)),
              Piece(1.0, 2.0, Law(-h, 1.0, shift=2.0 * h))]
    assert endpoint_values(pieces[0])[1] == 1.0
    assert endpoint_values(pieces[1])[0] == pytest.approx(h, rel=1e-15)
    level = LevelSet.from_pieces(pieces)
    assert sorted(level.table.rows.b.tolist())[:2] == [
        1.0, endpoint_values(pieces[1])[0]]
    assert_matches_reference(pieces)


def profile_zoo(cone, rng):
    """Criterion 3's affine draws (no knot gap), an Alvino profile, and
    dilations of both."""
    alvino = alvino_profile(cone, 3.0, 0.05, 2.0)
    for _ in range(12):
        knotted = acceptance._random_affine_profile(cone, rng)
        yield knotted
        yield scale(knotted, 1.7)
    yield alvino
    yield scale(alvino, 0.6)


@pytest.mark.parametrize("name", BUILTIN_CONE_NAMES)
def test_profile_level_sets_have_no_sliver_strata(name, monkeypatch):
    # each junction of a continuous profile is one cut, so no stratum is
    # the ulp-wide gap between two evaluations of one knot value
    rows = []

    def spy(table, q, qq, owner):
        rows.append(table)
        return row_integrals(table, q, qq, owner)

    monkeypatch.setattr(segments, "row_integrals", spy)
    cone = builtin_cone(name)
    for profile in profile_zoo(cone, np.random.default_rng(23)):
        for p, q in ((3.0, 1.5), (1.5, 1.0)):
            params = LorentzParams(p, q)
            a = lorentz_norm_rearranged(profile, params)
            b = lorentz_norm_distributional(profile, params)
            assert abs(a - b) <= 1e-10 * max(a, b)
    assert rows
    for r in rows:
        finite = np.isfinite(r.b)
        assert not (finite & (r.b - r.a <= 1e-9 * r.b)).any()


def test_builder_matches_reference_across_40_decades(halfplane):
    assert_matches_reference(deep_transient_pieces())
    profile = alvino_profile(halfplane, 3.0, 1.0, 1e40)
    assert_matches_reference(list(pieces_of(profile.table)),
                             ((3.0, 1.0), (2.0, 1.0)))
    assert_matches_reference(list(pieces_of(gradient_density(profile).table)),
                             ((2.0, 1.0), (3.0, 1.5)))


@pytest.mark.parametrize("which", [0, 1])
def test_builder_matches_reference_on_many_strata(which):
    assert_matches_reference(many_strata_pieces()[which],
                             ((2.0, 1.0), (3.0, 2.0), (1.5, 1.5)))


def test_builder_merges_terms_by_law_key(halfplane):
    """The arcs of an affine profile's gradient density all invert to
    laws of one key, so every stratum with terms has exactly one."""
    rng = np.random.default_rng(11)
    ts = 0.5 + np.cumsum(rng.uniform(0.01, 1.0, 2000))
    vs = np.sort(rng.uniform(0.0, 1.0, 2000))[::-1]
    vs[-1] = 0.0
    pieces = list(pieces_of(gradient_density(from_knots(
        halfplane, list(zip(ts.tolist(), vs.tolist())))).table))
    level = LevelSet.from_pieces(pieces)
    ruled = [s for s in level.strata if s.terms]
    assert ruled and all(len(s.terms) == 1 for s in ruled)
    assert len(level.strata) == len(sweep(pieces)[0])


# -- the lambda route's tanh-sinh rule ------------------------------------------

def stratum_oracle(stratum, q, qq, points=(), pole=None):
    """40-digit integral of lam^(q-1) m(lam)^qq over the stratum.

    ``points`` are extra interior breakpoints for mpmath, placed
    geometrically toward a near singularity by the callers.  ``pole`` =
    (end, order) names an end where the integrand has that algebraic
    order; lam = end +- width v^s with s (1 + order) >= 1 makes the
    integrand bounded in v there.
    """
    with mpmath.workdps(40):
        lam0, lam1 = mpmath.mpf(stratum.lam0), mpmath.mpf(stratum.lam1)

        def f(end, d):
            # lam = end + d, with each argument measured from ``end`` so
            # that d below 1e-40 of end still counts
            total = mpmath.mpf(stratum.const)
            for t in stratum.terms:
                arg = t.orient * ((end - mpmath.mpf(t.base)) + d)
                total += t.coef * mpmath.power(arg, t.expo)
            return (end + d) ** (q - 1) * total ** qq

        if pole is not None:
            end, order = pole
            s = math.ceil(1.0 / (1.0 + order))
            width = lam1 - lam0
            sign = 1 if end == stratum.lam0 else -1

            def g(v):
                if v == 0:  # a node mpmath rounds onto the pole; weight 0
                    return mpmath.mpf(0)
                return (f(mpmath.mpf(end), sign * width * v ** s)
                        * width * s * v ** (s - 1))

            return mpmath.quad(g, [0, 1])
        ends = sorted({stratum.lam0, *points, stratum.lam1})
        return mpmath.quad(lambda lam: f(lam, 0), [mpmath.mpf(x) for x in ends])


def geometric_points(a, b, dist, toward_a=True):
    """Breakpoints a + dist * 1000^k inside (a, b) (or mirrored toward b)."""
    out = []
    while dist < b - a:
        out.append(a + dist if toward_a else b - dist)
        dist *= 1e3
    return out


def check_rule(strata, q, qq, points=None, poles=None, rel=1e-13):
    values, errors = stratum_integrals(strata, q, qq)
    for i, s in enumerate(strata):
        want = stratum_oracle(s, q, qq, points[i] if points else (),
                              poles[i] if poles else None)
        true_err = abs(mpmath.mpf(values[i]) - want)
        assert true_err <= rel * want, (s, values[i], want)
        assert errors[i] >= true_err, (s, errors[i], true_err)


def decreasing_terms(rng, lam0, lam1, k):
    """k random term laws, each nonnegative and nonincreasing on the
    stratum, with bases outside it (as the level-set sweep makes them)."""
    terms = []
    for _ in range(k):
        if rng.random() < 0.5:   # (lam - base)^e, e < 0, base below lam0
            base = lam0 - (lam1 - lam0) * rng.uniform(0.05, 3.0)
            terms.append(Law(rng.uniform(0.1, 2.0), -rng.uniform(0.2, 4.0),
                             base=base, orient=1.0))
        else:                    # (base - lam)^e, e > 0, base above lam1
            base = lam1 + (lam1 - lam0) * rng.uniform(0.0, 3.0)
            terms.append(Law(rng.uniform(0.1, 2.0), rng.uniform(0.2, 3.0),
                             base=base, orient=-1.0))
    return tuple(terms)


@pytest.mark.parametrize("k", [1, 2, 5, 11])
def test_stratum_rule_random_strata_match_mpmath(k):
    rng = np.random.default_rng(100 + k)
    strata = []
    for _ in range(6):
        lam0 = rng.uniform(0.0, 2.0) * (rng.random() < 0.7)
        lam1 = lam0 + rng.uniform(0.01, 3.0)
        strata.append(Stratum(lam0, lam1, rng.uniform(0.0, 2.0),
                              decreasing_terms(rng, lam0, lam1, k)))
    for q, p in [(1.0, 2.0), (1.5, 3.0), (2.7, 2.7), (1.2, 6.0)]:
        check_rule(strata, q, q / p)


@pytest.mark.parametrize("order", [-0.3, -0.5, -0.75, -0.9])
def test_stratum_rule_endpoint_singular_strata(order):
    """A term base at an end with integrand order down to -0.9."""
    qq = 0.5
    e = order / qq
    strata = [Stratum(0.0, 1.0, 0.0, (Law(1.0, e),)),
              Stratum(0.3, 1.7, 0.4, (Law(0.7, e, base=0.3),
                                      Law(1.0, 1.5, base=2.0, orient=-1.0))),
              Stratum(0.3, 1.7, 0.0, (Law(2.0, e, base=1.7, orient=-1.0),))]
    poles = [(0.0, order), (0.3, order), (1.7, order)]
    check_rule(strata, 1.0, qq, poles=poles)
    check_rule(strata[1:], 1.4, qq, poles=poles[1:])


@pytest.mark.parametrize("e", [-3.0, -1.6, 0.5, 2.5])
def test_stratum_rule_near_endpoint_bases(e):
    """Bases 1e-13 of the width outside an end: graded panels."""
    qq = 0.25
    a, b = 0.5, 1.5
    gap = 1e-13 * (b - a)
    left = Stratum(a, b, 0.2, (Law(1.0, e, base=a - gap, orient=1.0),))
    right = Stratum(a, b, 0.2, (Law(1.0, e, base=b + gap, orient=-1.0),))
    both = Stratum(a, b, 0.0, left.terms + right.terms)
    at_zero = Stratum(0.0, 1.0, 0.0, (Law(1.0, e, base=-4.6e-14),))
    points = [geometric_points(a, b, gap),
              geometric_points(a, b, gap, toward_a=False),
              geometric_points(a, 1.0, gap)
              + geometric_points(1.0, b, gap, toward_a=False),
              geometric_points(0.0, 1.0, 4.6e-14)]
    check_rule([left, right, both, at_zero], 1.0, qq, points)
    check_rule([left, right, both, at_zero], 2.0, qq, points)


@pytest.mark.parametrize("decades", [40, 300])
def test_stratum_rule_spans_many_decades(decades):
    lam0 = 10.0 ** -decades
    strata = [Stratum(lam0, 1.0, 0.0, (Law(1.0, -1.5),)),
              Stratum(lam0, 1.0, 0.5, (Law(2.0, -0.8),
                                       Law(1.0, 2.0, base=1.0, orient=-1.0)))]
    points = [geometric_points(lam0, 1.0, lam0)] * 2
    check_rule(strata, 1.0, 0.5, points)
    check_rule(strata, 1.3, 0.6, points)


def test_stratum_rule_brackets_slivers():
    """Strata at most 1e-9 wide (relative) return a bracket's midpoint."""
    strata = [Stratum(1.0, 1.0 + 1e-10, 0.5, (Law(1.0, -2.0, base=0.9),)),
              Stratum(3.0, 3.0 + 4.0 * 2.0 ** -51, 0.0,
                      (Law(1.0, 0.5, base=3.5, orient=-1.0),)),
              # a broad stratum keeps the slivers' share of the total small
              Stratum(0.5, 4.0, 0.1, (Law(1.0, 0.5, base=4.0, orient=-1.0),))]
    q, qq = 1.5, 0.5
    values, errors = stratum_integrals(strata, q, qq)
    for s, value, err in zip(strata[:2], values, errors):
        want = stratum_oracle(s, q, qq)
        assert value - err <= want <= value + err
        assert err <= 1e-9 * value


def test_graded_panels_leave_no_ulp_wide_final_panel():
    # the fourth cut from a lands within ulps of b, at 64^3 * d
    d = (1.0 - 1e-15) / _GRADE ** 3
    for cuts in (_grade_cuts(0.0, 1.0, d, math.inf),
                 _grade_cuts(0.0, 1.0, math.inf, d)[::-1]):
        panels = np.abs(np.diff(cuts))
        assert len(panels) == 4
        assert (panels[1:] >= panels[:-1]).all()
        assert panels[-1] >= 0.5


def test_alvino_gradient_with_a_sliver_graded_panel():
    # a graded stratum of the gradient density's level set ended in a
    # panel 9.1e-15 of its width, where m cancels to 3.5e-22
    params = LorentzParams(2.0, 1.0, builtin_cone("halfplane-x1"))
    prof = alvino_profile(params.cone, params.p_star, 1.0,
                          6.2771017353866083e+57)
    report = quotient(prof, params)
    assert report.numerator == pytest.approx(
        lorentz_norm_distributional(prof, params.star_params()), rel=1e-10)
    # psi = c t^(-1/2) on (1, t_max), so its (2, 1) norm is
    # c * integral of t^(-1/2) (t + 1)^(-1/2) over (0, t_max - 1)
    (piece,) = pieces_of(gradient_density(prof).table)
    with mpmath.workdps(40):
        want = piece.law.coef * 2 * mpmath.asinh(mpmath.sqrt(
            mpmath.mpf(piece.t1) - 1))
    assert report.denominator == pytest.approx(float(want), rel=1e-10)


@pytest.mark.parametrize("q, qq", [(1.0, 0.5), (1.6, 0.8)])
def test_rule_rows_do_not_depend_on_their_batch(q, qq):
    """Each kind of row gives, in a mixed batch, what it gives alone."""
    a, b = 0.5, 1.5
    gap = 1e-13 * (b - a)
    plain = Stratum(0.2, 2.0, 0.3, (Law(1.5, -0.7),
                                    Law(0.4, 2.0, base=2.5, orient=-1.0)))
    sliver = Stratum(3.0, 3.0 + 4.0 * 2.0 ** -51, 0.0,
                     (Law(1.0, 0.5, base=3.5, orient=-1.0),))
    graded = Stratum(a, b, 0.2, (Law(1.0, -1.6, base=a - gap),))
    singular = Stratum(0.3, 1.7, 0.1, (Law(2.0, -0.5 / qq, base=1.7,
                                           orient=-1.0),))
    batch = [plain, sliver, graded, singular, plain]
    values, errors = stratum_integrals(batch, q, qq)
    alone = [stratum_integrals([s], q, qq) for s in batch]
    assert values.tolist() == [float(v[0]) for v, _ in alone]
    assert errors.tolist() == [float(e[0]) for _, e in alone]
    assert errors[1] > 0.0   # the sliver took its bracket, in both
    assert min(values) > 0.0


@pytest.mark.parametrize("p, q", [(2.0, 1.0), (3.0, 2.0), (1.5, 1.2)])
def test_stacked_level_sets_match_their_single_rows(halfplane, p, q):
    """An affine profile's gradient density at several amplitudes, as
    rows of one builder call, gives each amplitude's ``from_pieces``
    q-th power bit for bit."""
    prof = from_knots(halfplane, [(0.2, 2.0), (0.9, 1.3), (1.7, 0.4),
                                  (2.6, 0.0)])
    pieces = pieces_of(gradient_density(prof).table)
    amps = np.array([1.0, 0.37, 3.0, 1e3, 2.0 ** -20])
    levels = [LevelSet.from_pieces([replace(pc, law=scaled(pc.law, k))
                                    for pc in pieces]) for k in amps]
    t0, t1, coef, shift, expo, base, orient = np.array(
        [(pc.t0, pc.t1, pc.law.coef, pc.law.shift, pc.law.expo,
          pc.law.base, pc.law.orient) for pc in pieces]).T
    coefs, shifts = amps[:, None] * coef, amps[:, None] * shift
    ends = [np.maximum(orient * (t - base), 0.0) ** expo for t in (t0, t1)]
    va, vb = (np.where(coefs == 0.0, shifts, coefs * e + shifts)
              for e in ends)
    stacked = level_set_qth_powers(level_set_strata(
        t0, t1, coefs, shifts, expo, base, orient, va, vb), p, q)
    assert stacked == [lv.lorentz_qth_power(p, q) for lv in levels]
    assert len(set(stacked)) == len(amps)


@st.composite
def ragged_tables(draw):
    """1 to 8 nonnegative piece tables of 1 to 6 pieces each: constant,
    power and affine pieces, mostly end to end, some affine pieces
    starting at the value the piece before ends at (a junction the
    builder joins)."""
    tables = []
    for _ in range(draw(st.integers(1, 8))):
        t, end, pieces = draw(st.floats(0.05, 1.0)), None, []
        for _ in range(draw(st.integers(1, 6))):
            t1 = t + draw(st.floats(0.05, 2.0))
            kind = draw(st.sampled_from(["constant", "power", "affine",
                                         "joined"]))
            if kind == "constant":
                law = Law.constant(draw(st.floats(0.0, 5.0)))
            elif kind == "power":
                law = Law(draw(st.floats(0.1, 5.0)),
                          draw(st.sampled_from([-1.5, -1.0, -0.5, 0.5,
                                                2.0 / 3.0, 1.0, 2.0])))
            else:
                v0 = (max(end, 0.0) if kind == "joined" and end is not None
                      else draw(st.floats(0.0, 5.0)))
                v1 = draw(st.floats(0.0, 5.0))
                slope = (v1 - v0) / (t1 - t)
                law = Law(slope, 1.0, shift=v0 - slope * t)
            pieces.append(Piece(t, t1, law))
            end = law.value(t1)
            t = t1 + draw(st.sampled_from([0.0, 0.0, 0.0, 0.25]))
        tables.append(PieceTable.of(pieces))
    return tables


@settings(deadline=None, max_examples=80)
@given(tables=ragged_tables(),
       pq=st.sampled_from([(2.0, 1.0), (1.5, 1.0), (3.0, 2.0), (1.5, 1.25)]),
       at=st.integers(0, 8))
def test_table_batches_match_their_single_level_sets(tables, pq, at):
    """Ragged tables as one batch (``table_strata``, padded with empty
    pieces) give each table's own single-call q-th power bit for bit;
    a negative table anywhere in the batch is still refused."""
    p, q = pq
    alone = []
    for table in tables:
        try:
            alone.append(LevelSet.from_table(table).lorentz_qth_power(p, q))
        except NumericalError:   # a defect of the rule, not of batching
            assume(False)
    batch = level_set_qth_powers(table_strata(tables), p, q)
    assert [v.hex() for v in batch] == [v.hex() for v in alone]
    negative = PieceTable.of([Piece(0.5, 1.5, Law(-0.25, 1.0, shift=0.2))])
    with pytest.raises(ValidationError):
        table_strata(tables[:at] + [negative] + tables[at:])
    with pytest.raises(ValidationError):
        table_strata([])


def test_a_joined_end_keeps_the_magnitude_it_was_rounded_from():
    # the left arc ends at -8.9e-16, within the sign rule on its own
    # magnitude 8.7; joined to an arc rising from 0 to 1e-300, the right
    # arc's start takes that value, which is still a rounded 0
    left = Piece(0.375, 1.9375, Law(-2.24, 1.0, shift=4.34))
    right = Piece(1.9375, 2.9375, Law(1e-300, 1.0, shift=-1.9375e-300))
    assert left.law.value(left.t1) < 0.0
    params = LorentzParams(2.0, 1.0)
    assert lorentz_norm_distributional([left, right], params) == \
        lorentz_norm_distributional([left], params)
    with pytest.raises(ValidationError):   # a real dip still fails
        lorentz_norm_distributional(
            [left, Piece(1.9375, 2.9375, Law(1e-300, 1.0, shift=-3e-300))],
            params)


def test_one_piece_and_one_term_level_sets_round_as_in_a_batch():
    # exponents 0.5, 2 and -1 (and their inverses) are where numpy's
    # scalar power paths round otherwise than its array loop; a one-piece
    # table and a one-term row table must still match their batch rows
    tables = [PieceTable.of([Piece(0.3 + 0.1 * k, 2.0 + k,
                                   Law(0.7 + k, expo))])
              for k, expo in enumerate([0.5, 2.0, -1.0, 0.5, -0.5, 1.0])]
    for p, q in [(2.0, 1.0), (1.0, 1.0), (1.5, 1.25)]:
        batch = level_set_qth_powers(table_strata(tables), p, q)
        assert batch == [LevelSet.from_table(table).lorentz_qth_power(p, q)
                         for table in tables]


def test_stratum_rule_raises_when_it_cannot_converge():
    # order -0.999 at the left end: integrable, but its tail outruns every
    # node reach, so the truncation term never meets the contract
    stratum = Stratum(0.0, 1.0, 0.0, (Law(1.0, -1.998),))
    with pytest.raises(NumericalError):
        stratum_integrals([stratum], 1.0, 0.5)
    with pytest.raises(DivergentIntegralError):
        stratum_integrals([Stratum(0.0, 1.0, 0.0, (Law(1.0, -2.0),))],
                          1.0, 0.5)


def test_right_end_singular_moment_matches_mpmath():
    """A law that blows up integrably at its segment's right end."""
    piece = Piece(0.5, 2.0, Law(1.0, -0.5, base=2.0, orient=-1.0))
    got = moment(piece, 1.4, 1.2)
    with mpmath.workdps(40):
        want = mpmath.quad(lambda t: t ** 0.4 * (2 - t) ** -0.6, [0.5, 2])
    assert got == pytest.approx(float(want), rel=1e-12)
    origin = Piece(0.0, 2.0, Law(1.0, -0.5, base=2.0, orient=-1.0))
    with mpmath.workdps(40):
        want = mpmath.quad(lambda t: t ** -0.3 * (2 - t) ** -0.6, [0, 1, 2])
    assert moment(origin, 0.7, 1.2) == pytest.approx(float(want), rel=1e-12)
