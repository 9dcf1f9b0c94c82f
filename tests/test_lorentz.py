"""Lorentz norms: dual-route agreement, Hardy checks, restrictions."""

import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from cone_sobolev import (DomainError, LorentzParams, NumericalError,
                          RadialProfile, SampledField, StepFunction1D,
                          ValidationError, alvino_profile,
                          bump_superposition_field, ell_q_norm,
                          from_knots, gradient_density, hardy_check,
                          lorentz_norm_distributional,
                          lorentz_norm_rearranged,
                          lorentz_norms_distributional, quotient,
                          rearrangement, restricted_norm)
from cone_sobolev.segments import (Law, LevelSet, Piece, PieceTable,
                                   moment_integral)

from level_set_reference import pieces_of

PAIRS = [(1.0, 1.0), (2.0, 1.0), (2.0, 2.0), (2.5, 1.4), (4.0, 3.0)]


def random_step(rng, max_plateaus=30):
    n = rng.integers(1, max_plateaus + 1)
    widths = rng.uniform(0.01, 3.0, n)
    values = rng.uniform(0.0, 5.0, n)
    return StepFunction1D(tuple(np.cumsum(widths)), tuple(values))


# -- parameters -------------------------------------------------------------------

@pytest.mark.parametrize("p, q", [(0.5, 0.5), (2.0, 0.9), (1.5, 2.0),
                                  (math.inf, 1.0), (2.0, math.nan)])
def test_params_validation(p, q):
    with pytest.raises(ValidationError):
        LorentzParams(p, q)


def test_params_cone_binding(halfplane):
    params = LorentzParams(2.0, 1.0, halfplane)
    assert params.p_star == pytest.approx(6.0, rel=1e-14)
    star = params.star_params()
    assert (star.p, star.q) == (params.p_star, 1.0)
    with pytest.raises(DomainError):
        LorentzParams(3.0, 1.0, halfplane)  # p = D is supercritical
    with pytest.raises(ValidationError):
        LorentzParams(2.0, 1.0).p_star


def test_conjugate_exponent():
    assert LorentzParams(2.0, 1.0).q_prime == math.inf
    assert LorentzParams(2.0, 2.0).q_prime == 2.0
    assert LorentzParams(3.0, 1.5).q_prime == pytest.approx(3.0)


# -- the two routes ----------------------------------------------------------------

@settings(deadline=None)
@given(p=st.floats(min_value=1.0, max_value=6.0),
       q_frac=st.floats(min_value=0.0, max_value=1.0),
       m=st.floats(min_value=1e-6, max_value=1e6),
       c=st.floats(min_value=1e-3, max_value=1e3))
def test_indicator_norm_closed_form(p, q_frac, m, c):
    # || c * chi ||_(p,q) = c (p/q)^(1/q) m^(1/p)
    q = 1.0 + q_frac * (p - 1.0)
    params = LorentzParams(p, q)
    step = StepFunction1D((m,), (c,))
    want = c * (p / q) ** (1.0 / q) * m ** (1.0 / p)
    assert lorentz_norm_rearranged(step, params) == pytest.approx(
        want, rel=1e-12)
    assert lorentz_norm_distributional(step, params) == pytest.approx(
        want, rel=1e-12)


def test_routes_agree_on_random_steps():
    rng = np.random.default_rng(2)
    for _ in range(200):
        step = random_step(rng)
        p, q = PAIRS[int(rng.integers(len(PAIRS)))]
        params = LorentzParams(p, q)
        via_lambda = lorentz_norm_distributional(step, params)
        via_t = lorentz_norm_rearranged(rearrangement(step), params)
        assert via_lambda == pytest.approx(via_t, rel=1e-10, abs=1e-300)


@pytest.mark.parametrize("tiny", [1e-300, 5e-324])
def test_routes_agree_on_a_step_down_to_a_tiny_value(tiny):
    # the lambda route's cut at the tiny value makes a plateau ratio
    # 1/tiny past the double range
    step = StepFunction1D((0.5, 1.0), (1.0, tiny))
    params = LorentzParams(1.4, 1.2)
    via_t = lorentz_norm_rearranged(step, params)
    assert lorentz_norm_distributional(step, params) == pytest.approx(
        via_t, rel=1e-10)


def test_routes_agree_on_power_arcs(halfplane):
    prof = alvino_profile(halfplane, 3.0, 1.0, 50.0)
    for p, q in PAIRS:
        params = LorentzParams(p, q)
        a = lorentz_norm_rearranged(prof, params)
        b = lorentz_norm_distributional(prof, params)
        assert a == pytest.approx(b, rel=1e-10)


def test_rearranged_route_matches_quadrature(halfplane):
    prof = alvino_profile(halfplane, 3.0, 1.0, 50.0)
    p, q = 2.0, 1.5
    got = lorentz_norm_rearranged(prof, LorentzParams(p, q))

    def integrand(t):
        return t ** (q / p - 1.0) * float(prof.value(t)) ** q

    ref, err = integrate.quad(integrand, 0.0, 50.0, points=[1.0],
                              limit=200, epsabs=0.0, epsrel=1e-11)
    assert got == pytest.approx(ref ** (1.0 / q), rel=1e-9)


def test_rearranged_route_requires_nonincreasing():
    rising = StepFunction1D((1.0, 2.0), (1.0, 2.0))
    with pytest.raises(ValidationError):
        lorentz_norm_rearranged(rising, LorentzParams(2.0, 1.0))
    # the distributional route has no such restriction
    got = lorentz_norm_distributional(rising, LorentzParams(2.0, 1.0))
    srt = lorentz_norm_rearranged(rearrangement(rising),
                                  LorentzParams(2.0, 1.0))
    assert got == pytest.approx(srt, rel=1e-12)


def test_norm_of_nothing_is_zero():
    empty = StepFunction1D((), ())
    params = LorentzParams(2.0, 1.0)
    assert lorentz_norm_rearranged(empty, params) == 0.0
    assert lorentz_norm_distributional(empty, params) == 0.0


def step_norm_mpmath(step, p, q, digits=40):
    """The t-route norm of a step, summed plateau by plateau in mpmath."""
    with mpmath.workdps(digits):
        g = mpmath.mpf(q) / p
        total, t0 = mpmath.mpf(0), mpmath.mpf(0)
        for b, v in zip(step.breakpoints, step.values):
            t1 = mpmath.mpf(b)
            total += mpmath.mpf(v) ** q * (t1 ** g - t0 ** g) / g
            t0 = t1
        return total ** (1 / mpmath.mpf(q))


# plateau ratios t1/t0 from 1 + 1e-9 to 1e12 after a first plateau at 0
WIDE_STEP = StepFunction1D((1e-6, 1e-6 * (1.0 + 1e-9), 3e-6, 1e-3, 1e9),
                           (7.0, 6.5, 2.0, 0.5, 1e-4))


@pytest.mark.parametrize("p, q", [(20.0, 1.0), (10.0, 3.0), (4.0, 2.0),
                                  (2.0, 2.0), (1.0, 1.0)])
def test_step_route_matches_mpmath(p, q):
    rng = np.random.default_rng(int(10 * p + q))
    steps = [WIDE_STEP]
    for _ in range(5):
        bps = np.sort(10.0 ** rng.uniform(-6.0, 6.0, 12))
        steps.append(rearrangement(
            StepFunction1D(bps, rng.uniform(0.0, 5.0, 12))))
    for step in steps:
        got = lorentz_norm_rearranged(step, LorentzParams(p, q))
        want = step_norm_mpmath(step, p, q)
        assert abs(got - want) <= 1e-14 * want


@pytest.mark.parametrize("p, q", [(2.0, 1.0), (2.5, 1.4), (4.0, 3.0)])
def test_field_routes_agree(halfplane, p, q):
    field = bump_superposition_field(
        halfplane, [(0.0, 3.0), (-1.5, 1.5)], (128, 128), 3, seed=5)
    params = LorentzParams(p, q)
    lam_route = lorentz_norm_distributional(field, params)
    t_route = lorentz_norm_rearranged(rearrangement(field), params)
    assert lam_route == pytest.approx(t_route, rel=1e-10)


def tiny_cell_field(cone, tiny):
    """A 2x2 field with cells valued 1 and ``tiny``, whose lambda strata
    have the plateau ratio 1/tiny, past the double range for 5e-324."""
    grid = SampledField.from_function(cone, [(0.0, 1.0), (0.0, 1.0)], (2, 2),
                                      lambda x: np.ones(len(x)))
    values = np.array([[1.0, tiny], [tiny, 1.0]])
    return dataclasses.replace(grid, values=values)


@pytest.mark.parametrize("tiny", [1e-300, 5e-324, 1e-100])
@pytest.mark.parametrize("p, q", [(1.0, 1.0), (2.0, 1.5), (4.0, 3.0)])
def test_field_routes_agree_down_to_a_tiny_cell(halfplane, tiny, p, q):
    field = tiny_cell_field(halfplane, tiny)
    params = LorentzParams(p, q)
    t_route = lorentz_norm_rearranged(rearrangement(field), params)
    assert abs(lorentz_norm_distributional(field, params) - t_route) \
        <= 1e-14 * t_route


@pytest.mark.parametrize("tiny", [5e-324, 1e-300])
@pytest.mark.parametrize("p", [1.0, 100.0])
def test_step_route_down_to_a_tiny_breakpoint(tiny, p):
    # the second plateau's ratio 1/tiny is past the double range for
    # 5e-324; at p = 100 the share tiny^(1/p) of its primitive is 6e-4
    step = StepFunction1D((tiny, 1.0), (1.0, 0.5))
    got = lorentz_norm_rearranged(step, LorentzParams(p, 1.0))
    want = step_norm_mpmath(step, p, 1.0)
    assert abs(got - want) <= 1e-15 * want


def test_overflowing_step_norms_raise_on_both_routes():
    step = StepFunction1D((1.0,), (1e200,))
    for route in (lorentz_norm_rearranged, lorentz_norm_distributional):
        with pytest.raises(NumericalError):
            route(step, LorentzParams(2.0, 2.0))


def test_plateau_inputs_build_no_pieces(halfplane, monkeypatch):
    # steps and fields reach the strata builder as arrays
    def forbidden(*args, **kwargs):
        raise AssertionError("per-plateau objects built")

    monkeypatch.setattr(StepFunction1D, "as_pieces", forbidden)
    monkeypatch.setattr(LevelSet, "from_pieces", forbidden)
    params = LorentzParams(2.5, 1.4)
    field = tiny_cell_field(halfplane, 0.25)
    step = rearrangement(field)
    for f in (field, step):
        assert lorentz_norm_distributional(f, params) == pytest.approx(
            lorentz_norm_rearranged(step, params), rel=1e-14)


def mixed_inputs(cone):
    """Every input kind of the lambda route: steps (an empty one and one
    with two equal adjacent plateaus), a field, a profile, its gradient
    density and a piece list."""
    prof = from_knots(cone, [(0.5, 2.0), (1.5, 0.5), (3.0, 0.0)])
    field = bump_superposition_field(cone, [(0.0, 3.0), (-1.5, 1.5)],
                                     (16, 16), 3, seed=2)
    return [StepFunction1D((), ()), StepFunction1D((1.0, 2.0, 3.0),
                                                   (2.0, 2.0, 0.5)),
            gradient_density(prof), prof, field, random_step(
                np.random.default_rng(3)),
            [Piece(0.0, 1.0, Law(1.0, 0.5, 1.0, -1.0)),
             Piece(1.0, 2.0, Law.constant(0.25))]]


@pytest.mark.parametrize("p, q", PAIRS)
def test_mixed_batches_give_each_member_its_single_norm(halfplane, p, q):
    params = LorentzParams(p, q)
    inputs = mixed_inputs(halfplane)
    alone = [lorentz_norm_distributional(f, params).hex() for f in inputs]
    assert alone[0] == (0.0).hex()
    for order in (slice(None), slice(None, None, -1)):
        assert [v.hex() for v in lorentz_norms_distributional(
            inputs[order], params)] == alone[order]


def test_the_batch_entry_reads_its_input_once(halfplane):
    params = LorentzParams(2.5, 1.4)
    inputs = mixed_inputs(halfplane)
    want = [v.hex() for v in lorentz_norms_distributional(inputs, params)]
    array = np.empty(len(inputs), dtype=object)
    array[:] = inputs
    for fs in ((f for f in inputs), tuple(inputs), array):
        assert [v.hex() for v in lorentz_norms_distributional(
            fs, params)] == want
    assert lorentz_norms_distributional(iter(()), params) == []


def test_lambda_route_has_its_own_fallback(halfplane, monkeypatch):
    """The lambda route shares no integration code with the t route.

    A shell gradient density (t^(-1/2) arcs) and an affine profile's psi
    (t^(2/3) arcs) have one-term strata with no closed form; their union
    overlaps in value, so it adds multi-term strata.  All of them must
    integrate with the t route's closed forms, its origin substitution
    and the adaptive rule disabled, and still give the values the shared
    adaptive fallback gave (frozen below, computed with it).
    """
    from cone_sobolev import bernstein, embedding_norm, quadrature, segments
    from cone_sobolev.segments import Piece
    from level_set_reference import pieces_of, with_argument_shifted
    params = LorentzParams(2.0, 1.0, halfplane)
    lam = 0.5 * embedding_norm(halfplane, params)
    ratio, report = bernstein._head_ratio(halfplane, params, lam)
    shell, _ = bernstein._shell_at(halfplane, params, ratio,
                                   report.denominator, 1.0)
    shell_psi = list(pieces_of(gradient_density(shell).table))
    affine_psi = list(pieces_of(gradient_density(from_knots(
        halfplane, [(1.0, 0.5), (2.0, 0.15), (3.0, 0.0)])).table))
    inputs = [shell_psi, affine_psi, shell_psi + affine_psi]
    assert any(len(s.terms) > 1 for s in
               segments.LevelSet.from_pieces(inputs[2]).strata)
    pairs = [(2.0, 1.0), (2.0, 1.5), (2.5, 1.4)]
    frozen = [0.9999999999999998, 0.57179580060681, 0.8070932256098965,
              3.172543370232452, 1.794551910601188, 2.219595379052407,
              3.3813133829135267, 1.89619821321326, 2.315866938377439]

    def refuse(*args, **kwargs):
        raise AssertionError("lambda route called t-route integration code")

    for module, name in ((segments, "_moment_exact"),
                         (segments, "_moment_adaptive"),
                         (segments, "substitute_origin"),
                         (segments, "integrate_adaptive"),
                         (quadrature, "integrate_adaptive")):
        monkeypatch.setattr(module, name, refuse)
    got = [lorentz_norm_distributional(f, LorentzParams(p, q))
           for f in inputs for p, q in pairs]
    for value, want in zip(got, frozen):
        assert value == pytest.approx(want, rel=1e-12)
    # slid left over its zero head, the shell psi is its own rearrangement,
    # so the t route (with its own fallback) checks it independently
    monkeypatch.undo()
    head = shell_psi[0].t0
    slid = [Piece(pc.t0 - head, pc.t1 - head,
                  with_argument_shifted(pc.law, head)) for pc in shell_psi]
    for (p, q), value in zip(pairs, got):
        assert lorentz_norm_rearranged(slid, LorentzParams(p, q)) == \
            pytest.approx(value, rel=1e-10)


# -- Hardy inequality ---------------------------------------------------------------

def test_hardy_equality_at_q_one(halfplane):
    prof = from_knots(halfplane, [(0.5, 2.0), (1.5, 0.5), (3.0, 0.0)])
    params = LorentzParams(2.0, 1.0, halfplane)
    lhs, rhs = hardy_check(prof, params)
    assert lhs == pytest.approx(rhs, rel=1e-10)
    assert lhs > 0


def test_hardy_on_affine_knots_matches_high_precision(halfplane):
    # q = 1.5 on a from_knots profile: the tail F(t) = integral_t^inf f on
    # each affine piece is evaluated in closed form on the node arrays
    knots = [(0.5, 2.0), (1.5, 0.5), (3.0, 0.0)]
    prof = from_knots(halfplane, knots)
    params = LorentzParams(2.0, 1.5, halfplane)
    lhs, rhs = hardy_check(prof, params)
    with mpmath.workdps(40):
        p_star, q = mpmath.mpf(6), mpmath.mpf("1.5")
        ts = [mpmath.mpf(0)] + [mpmath.mpf(t) for t, _ in knots]
        vs = [mpmath.mpf(knots[0][1])] + [mpmath.mpf(v) for _, v in knots]

        def f(t):
            for a, b, va, vb in zip(ts, ts[1:], vs, vs[1:]):
                if t <= b:
                    return va + (vb - va) * (t - a) / (b - a)
            return mpmath.mpf(0)

        def big_f(t):
            # exact trapezoids: every piece is affine
            total = mpmath.mpf(0)
            for a, b in zip(ts, ts[1:]):
                lo = max(a, t)
                if lo < b:
                    total += (b - lo) * (f(lo) + f(b)) / 2
            return total

        # u = t^gamma removes the t^(gamma-1) singularity at the origin
        gamma = q / p_star
        want_lhs = (mpmath.quad(lambda u: big_f(u ** (1 / gamma)) ** q,
                                [t ** gamma for t in ts]) / gamma) ** (1 / q)
        want_rhs = p_star * mpmath.quad(
            lambda t: (t ** (1 + 1 / p_star - 1 / q) * f(t)) ** q,
            ts) ** (1 / q)
    assert abs(lhs - want_lhs) <= 1e-12 * want_lhs
    assert abs(rhs - want_rhs) <= 1e-12 * want_rhs
    assert lhs < rhs


def test_hardy_indicator_frozen_value(halfplane):
    # p = q = 1 on the indicator of unit measure: both sides are 9/10
    step = StepFunction1D((1.0,), (1.0,))
    lhs, rhs = hardy_check(step, LorentzParams(1.0, 1.0, halfplane))
    assert lhs == pytest.approx(0.9, abs=1e-12)
    assert rhs == pytest.approx(0.9, abs=1e-12)


def test_hardy_strict_inequality_at_larger_q(halfplane):
    step = StepFunction1D((1.0, 2.5), (2.0, 0.5))
    params = LorentzParams(2.0, 2.0, halfplane)
    lhs, rhs = hardy_check(step, params)
    assert lhs < rhs
    assert lhs > 0


def test_hardy_on_random_steps_never_exceeds(halfplane):
    rng = np.random.default_rng(5)
    for _ in range(25):
        step = random_step(rng, max_plateaus=8)
        q = float(rng.uniform(1.0, 2.5))
        params = LorentzParams(2.5, q, halfplane)
        lhs, rhs = hardy_check(step, params)  # raises beyond 1e-9 slack
        assert lhs <= rhs * (1.0 + 1e-9)


def test_hardy_rejects_divergent_input(halfplane):
    from cone_sobolev.segments import Law, Piece
    singular_head = [Piece(0.0, 1.0, Law(1.0, -2.0))]
    with pytest.raises(DomainError):
        hardy_check(singular_head, LorentzParams(2.0, 1.0, halfplane))


def test_hardy_right_end_singularity_has_finite_rhs(halfplane):
    """(2 - t)^(-1/2) on (0.5, 2): the rhs moment blows up integrably at
    the segment's right end, where the t route mirrors its substitution."""
    from cone_sobolev.segments import Law, Piece
    piece = Piece(0.5, 2.0, Law(1.0, -0.5, base=2.0, orient=-1.0))
    params = LorentzParams(2.0, 1.2, halfplane)
    lhs, rhs = hardy_check(piece, params)
    with mpmath.workdps(40):
        gamma = params.q + params.q / params.p_star
        power = mpmath.quad(lambda t: t ** (gamma - 1) * (2 - t) ** -0.6,
                            [0.5, 2])
        want = params.p_star * power ** (1 / mpmath.mpf(params.q))
    assert math.isfinite(rhs)
    assert rhs == pytest.approx(float(want), rel=1e-12)
    assert 0.0 < lhs <= rhs


# -- restricted norms ---------------------------------------------------------------

def test_restricted_norm_nested_and_saturating(halfplane):
    prof = from_knots(halfplane, [(1.0, 1.0), (2.0, 0.0)])
    params = LorentzParams(2.0, 1.0)
    full = lorentz_norm_rearranged(prof, params)
    cuts = [restricted_norm(prof, params, t_cut=t)
            for t in (0.5, 1.0, 1.5, 2.0, 5.0)]
    assert all(a <= b * (1.0 + 1e-14) for a, b in zip(cuts, cuts[1:]))
    assert cuts[-1] == pytest.approx(full, rel=1e-12)
    assert cuts[-2] == pytest.approx(full, rel=1e-12)


def test_restricted_norm_validation(halfplane):
    prof = from_knots(halfplane, [(1.0, 1.0), (2.0, 0.0)])
    params = LorentzParams(2.0, 1.0)
    with pytest.raises(DomainError):
        restricted_norm(prof, params, t_cut=-1.0)
    assert restricted_norm(prof, params, t_cut=0.0) == 0.0


def test_restricted_norm_of_gradient_density(halfplane):
    # the gradient density of 1 - t^0.2 on (0, 1) is one decreasing arc
    # from t = 0, so it is its own rearrangement
    phi = RadialProfile(halfplane, PieceTable.of(
        [Piece(0.0, 1.0, Law(-1.0, 0.2, shift=1.0))]))
    psi = gradient_density(phi)
    params = LorentzParams(2.0, 1.0)
    full = lorentz_norm_rearranged(psi, params)
    assert full == pytest.approx(lorentz_norm_distributional(psi, params),
                                 rel=1e-12)
    head = restricted_norm(psi, params, t_cut=0.5)
    assert 0 < head < full
    assert restricted_norm(psi, params, t_cut=1.0) == pytest.approx(
        full, rel=1e-12)


def test_rearranged_route_rejects_non_rearrangements(halfplane):
    # pieces that do not tile (0, t_max) from t = 0 are no rearrangement;
    # the lambda-route measures them, the t-route must refuse them rather
    # than integrate them as if they started at the origin
    params = LorentzParams(2.0, 1.0)
    # an alvino gradient density is zero on (0, 1)
    psi = gradient_density(alvino_profile(halfplane, 3.0, 1.0, 8.0))
    assert lorentz_norm_distributional(psi, params) == pytest.approx(
        2.6236849515771583, rel=1e-12)
    # 2 on (0, 1) and 1 on (2, 3): its rearrangement gives 2 + 2 sqrt 2
    gapped = [Piece(0.0, 1.0, Law.constant(2.0)),
              Piece(2.0, 3.0, Law.constant(1.0))]
    assert lorentz_norm_distributional(gapped, params) == pytest.approx(
        2.0 + 2.0 * math.sqrt(2.0), rel=1e-12)
    for f in (psi, gapped):
        with pytest.raises(ValidationError):
            lorentz_norm_rearranged(f, params)
    with pytest.raises(ValidationError):
        restricted_norm(psi, params, t_cut=4.0)


@pytest.mark.parametrize("p, q", [(1.5, 1.0), (2.0, 1.0), (1.5, 1.2)])
def test_a_profile_is_checked_once_by_its_own_rule(halfplane, p, q):
    # the affine pieces' ends at t = 2 differ by the rounding of shifts
    # near 2: far beyond 1e-9 of the knot value 1e-12, but within 1e-9 of
    # the magnitudes the values are rounded from, the one order rule of
    # the profile and the t-route, which takes the profile, its clips and
    # its pieces as a list alike
    prof = from_knots(halfplane, [(1.0, 1.0), (2.0, 1e-12), (3.0, 0.0)])
    params = LorentzParams(p, q, halfplane)
    star = params.star_params()
    assert quotient(prof, params).quotient > 0.0
    assert restricted_norm(prof, star, 2.5) > 0.0
    a = lorentz_norm_rearranged(prof, star)
    b = lorentz_norm_distributional(prof, star)
    assert abs(a - b) <= 1e-10 * max(a, b)
    c = lorentz_norm_rearranged(list(pieces_of(prof.table)), star)
    assert abs(c - b) <= 1e-10 * max(c, b)


def test_negative_laws_are_refused_on_every_path(halfplane):
    # -5e-13 lies within an absolute 1e-12 floor, where the lambda route
    # read 0.0 and the t-route -7.5e-13 at (1.5, 1) and a complex power at
    # (2, 1.5); it is negative far beyond the rounding of its magnitude
    pieces = [Piece(0.0, 1.0, Law.constant(-5e-13))]
    for p, q in ((1.5, 1.0), (2.0, 1.5)):
        for route in (lorentz_norm_rearranged, lorentz_norm_distributional):
            with pytest.raises(ValidationError, match="nonnegative"):
                route(pieces, LorentzParams(p, q))
    with pytest.raises(ValidationError, match="f >= 0"):
        hardy_check(pieces, LorentzParams(2.0, 1.5, halfplane))
    # the moment kernel itself: a negative constant read as a complex
    # power, and negative pure powers as complex or negative moments
    for law in (Law.constant(-1.0), Law(-1.0, 1.0),
                Law(-1.0, 1.0, base=2.0, orient=-1.0)):
        for q in (1.5, 2.0):
            with pytest.raises(ValidationError, match="negative"):
                moment_integral(0.0, 1.0, law, 1.0, q)


@st.composite
def scaled_piece_lists(draw):
    """Nonnegative pieces tiling (0, t_max): constant, affine and base-0
    power laws through drawn end values, falling or in any order, scaled
    by 10^k for k in [-15, 15]."""
    n = draw(st.integers(1, 4))
    ts = np.cumsum([0.0] + draw(st.lists(st.floats(0.125, 4.0), min_size=n,
                                         max_size=n))).tolist()
    vals = [v / 8.0 for v in draw(st.lists(st.integers(0, 32),
                                           min_size=2 * n, max_size=2 * n))]
    if draw(st.booleans()):
        vals.sort(reverse=True)
    expos = draw(st.lists(st.sampled_from((0.0, 1.0, 0.5, 2.0, -0.5)),
                          min_size=n, max_size=n))
    scale = 10.0 ** draw(st.integers(-15, 15))
    pieces = []
    for t0, t1, a, b, e in zip(ts, ts[1:], vals[::2], vals[1::2], expos):
        if e == 0.0:
            law = Law(a * scale, 0.0)
        else:
            e = 0.5 if e < 0.0 and t0 == 0.0 else e   # no pole at 0
            coef = (b - a) / (t1 ** e - t0 ** e)
            law = Law(coef * scale, e, shift=(a - coef * t0 ** e) * scale)
        pieces.append(Piece(t0, t1, law))
    return pieces


@settings(max_examples=150, deadline=None)
@given(pieces=scaled_piece_lists(),
       pq=st.sampled_from([(1.5, 1.0), (2.0, 1.5), (3.0, 1.2)]))
def test_the_routes_agree_or_refuse_at_every_scale(pieces, pq):
    # no rule has an absolute floor, so a list that rises or dips below 0
    # beyond rounding at 1e-15 is refused as it is at 1e15
    params = LorentzParams(*pq)
    try:
        got = lorentz_norm_rearranged(pieces, params)
    except ValidationError:
        got = None
    try:
        want = lorentz_norm_distributional(pieces, params)
    except NumericalError:
        # the lambda route's rule can fail on an ulp-wide stratum between
        # the ends of two pieces that do not meet; no input that the
        # t-route takes has drawn one
        assert got is None
        return
    assert isinstance(want, float) and want >= 0.0
    if got is not None:
        assert isinstance(got, float) and got >= 0.0
        assert abs(got - want) <= 1e-10 * want


# -- sequence norms -----------------------------------------------------------------

def test_ell_q_norm_values():
    assert ell_q_norm([3.0, -4.0], 1.0) == 7.0
    assert ell_q_norm([3.0, -4.0], 2.0) == pytest.approx(5.0, rel=1e-15)
    assert ell_q_norm([3.0, -4.0], math.inf) == 4.0
    assert ell_q_norm([], 2.0) == 0.0
    assert ell_q_norm([0.0, 0.0], 3.0) == 0.0
    got = ell_q_norm(np.full(4, 1e307), 2.0)
    assert math.isfinite(got)
    assert got == pytest.approx(2.0 * 1e307, rel=1e-14)
    # naive sum of q-th powers would overflow here
    big = ell_q_norm(np.full(4, 1e308), 8.0)
    assert math.isfinite(big)
    assert big == pytest.approx(4.0 ** 0.125 * 1e308, rel=1e-14)


def test_ell_q_norm_validation():
    with pytest.raises(ValidationError):
        ell_q_norm([1.0], 0.5)


def test_ell_q_norm_refuses_a_nan_exponent():
    # 1**nan is 1, so an unchecked NaN would return a plausible norm
    with pytest.raises(ValidationError):
        ell_q_norm([1.0], math.nan)


def test_ell_q_norm_checks_the_exponent_first():
    # the exponent is checked before the q = inf and empty-sequence
    # branches, so neither can answer for an invalid q
    for alpha, q in (([1.0, 2.0], -math.inf), ([], math.nan), ([], 0.5)):
        with pytest.raises(ValidationError):
            ell_q_norm(alpha, q)
