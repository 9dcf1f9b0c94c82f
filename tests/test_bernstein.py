"""Shell systems: construction invariants and certificates."""

import dataclasses
import math

import mpmath
import numpy as np
import pytest

from cone_sobolev import bernstein, spans
from cone_sobolev import (DomainError, InfeasibleError,
                          InternalConsistencyError, LorentzParams,
                          ResourceError, ValidationError,
                          absolute_continuity_witness, bernstein_lower_bound,
                          certify_span, construct_system, ell_q_norm,
                          embedding_norm, from_knots, gamma_sequence,
                          gradient_upper_certificate,
                          lorentz_norm_rearranged, quotient,
                          restricted_norm, superadditivity_certificate,
                          verify_system)
from cone_sobolev.profiles import gradient_density
from cone_sobolev.segments import Law, Piece

import level_set_reference

PARAMS = LorentzParams(2.0, 1.0)


@pytest.fixture(scope="module")
def system(halfplane_module):
    lam = 0.5 * embedding_norm(halfplane_module, PARAMS)
    return construct_system(halfplane_module, PARAMS, 3, lam, 0.05, 0.05)


@pytest.fixture(scope="module")
def halfplane_module():
    from cone_sobolev import builtin_cone
    return builtin_cone("halfplane-x1")


# -- tail budgets -----------------------------------------------------------------

def test_gamma_sequence_constant_at_q_one():
    gammas = gamma_sequence(LorentzParams(2.0, 1.0), 0.05, 7)
    assert gammas == [0.05] * 7
    assert ell_q_norm(gammas, math.inf) == 0.05


def test_gamma_sequence_geometric_above_q_one():
    params = LorentzParams(2.0, 2.0)
    gammas = gamma_sequence(params, 0.05, 50)
    assert all(a > b > 0 for a, b in zip(gammas, gammas[1:]))
    norm = ell_q_norm(gammas, params.q_prime)
    assert norm <= 0.05 * (1.0 + 1e-12)
    assert norm > 0.049


def test_geometric_ratio_solves_the_budget_equation():
    # a^q' / (1 - a^q') = eps2^q' makes the series sum of a^(j q') equal
    # eps2^q' exactly
    with mpmath.workdps(40):
        for q_prime in (1.25, 2.0, 3.0, 5.0, 11.0):
            for eps2 in (0.01, 0.05, 0.3):
                aq = mpmath.mpf(
                    bernstein._geometric_ratio(q_prime, eps2)) ** q_prime
                target = mpmath.mpf(eps2) ** q_prime
                assert abs(aq / (1 - aq) / target - 1) <= 1e-15


def test_gamma_sequence_validation():
    with pytest.raises(ValidationError):
        gamma_sequence(PARAMS, 0.0, 3)
    with pytest.raises(ValidationError):
        gamma_sequence(PARAMS, 0.05, 0)


def test_gamma_sequence_refuses_a_nan_budget():
    with pytest.raises(ValidationError):
        gamma_sequence(LorentzParams(2.0, 1.5), math.nan, 3)


# -- single shells -----------------------------------------------------------------

def _shell(cone, params, lam, outer_radius):
    """The shell profile and flat-head radius, as ``construct_system``
    builds them: one head-ratio search, then the shell at its radius."""
    bound = LorentzParams(params.p, params.q, cone)
    ratio, report = bernstein._head_ratio(cone, bound, lam)
    return bernstein._shell_at(cone, bound, ratio, report.denominator,
                               outer_radius)


def test_shell_function_hits_its_targets(halfplane):
    e_norm = embedding_norm(halfplane, PARAMS)
    lam = 0.5 * e_norm
    profile, inner = _shell(halfplane, PARAMS, lam, 1.0)
    rep = quotient(profile, PARAMS)
    assert rep.denominator == pytest.approx(1.0, rel=1e-10)
    assert rep.numerator == pytest.approx(lam, rel=1e-10)
    assert 0.0 < inner < 1.0
    head = level_set_reference.pieces_of(profile.table)[0]
    assert head.t1 == pytest.approx(
        halfplane.c_d * inner ** halfplane.big_d, rel=1e-12)


def test_shell_function_infeasible_exponents(halfplane):
    e_norm = embedding_norm(halfplane, LorentzParams(1.0, 1.0))
    with pytest.raises(InfeasibleError):
        _shell(halfplane, LorentzParams(1.0, 1.0), 0.5 * e_norm, 1.0)


@pytest.mark.parametrize("lam_factor", [0.0, 1.0, 1.5, -0.2])
def test_shell_function_needs_subcritical_lambda(halfplane, lam_factor):
    e_norm = embedding_norm(halfplane, PARAMS)
    with pytest.raises(InfeasibleError):
        _shell(halfplane, PARAMS, lam_factor * e_norm, 1.0)


def test_shell_function_validation(halfplane):
    e_norm = embedding_norm(halfplane, PARAMS)
    with pytest.raises(DomainError):
        _shell(halfplane, PARAMS, 0.5 * e_norm, 0.0)


def test_shell_function_near_critical_lambda_is_resource_bounded(halfplane):
    e_norm = embedding_norm(halfplane, PARAMS)
    with pytest.raises(ResourceError):
        _shell(halfplane, PARAMS, 0.9999 * e_norm, 1.0)


# -- system construction -------------------------------------------------------------

def test_system_invariants(system):
    report = verify_system(system)
    assert len(report["shells"]) == 3
    for row in report["shells"]:
        assert row["gradient_norm"] == pytest.approx(1.0, rel=1e-10)
        assert row["function_norm"] == pytest.approx(system.lam, rel=1e-10)
        assert row["tail_norm"] <= 0.05 * (1.0 + 1e-12)
    for a, b in zip(system.shells, system.shells[1:]):
        assert b.outer_radius == a.cutoff_radius
        assert b.outer_radius < a.inner_radius < a.outer_radius
    for s in system.shells:
        assert s.cutoff_measure < s.delta / s.index
    # q = 1 budgets are constant
    assert [s.gamma for s in system.shells] == [0.05] * 3


def test_system_with_q_above_one(halfplane):
    params = LorentzParams(2.0, 1.5)
    lam = 0.5 * embedding_norm(halfplane, params)
    sys2 = construct_system(halfplane, params, 2, lam, 0.05, 0.05)
    assert sys2.m == 2
    # q > 1 budgets are a^1, a^2, ...: with a^0 = 1 in front, equal
    # consecutive ratios in (0, 1)
    budgets = [1.0] + [s.gamma for s in sys2.shells]
    ratios = [b / a for a, b in zip(budgets, budgets[1:])]
    assert 0.0 < ratios[0] < 1.0
    assert ratios[1] == pytest.approx(ratios[0], rel=1e-14)
    verify_system(sys2)


def test_head_ratio_is_searched_once_per_system(halfplane, monkeypatch):
    # every shell takes the search's normalization: m = 1 and m = 6 make
    # the same quotients, all of them inside the head-ratio search
    lam = 0.5 * embedding_norm(halfplane, PARAMS)
    calls, searched = [], []

    def counted(*args):
        calls.append(args)
        return quotient(*args)

    search = bernstein._head_ratio

    def counted_search(*args):
        start = len(calls)
        out = search(*args)
        searched.append(len(calls) - start)
        return out

    monkeypatch.setattr(bernstein, "quotient", counted)
    monkeypatch.setattr(bernstein, "_head_ratio", counted_search)
    counts = []
    for m in (1, 6):
        calls.clear()
        searched.clear()
        construct_system(halfplane, PARAMS, m, lam, 0.05, 0.05)
        assert searched == [len(calls)]
        counts.append(len(calls))
    assert counts[0] > 0
    assert counts[0] == counts[1]


@pytest.mark.parametrize("m", [2.0, True, "3", 2.5])
def test_construct_system_takes_only_integer_shell_counts(halfplane, m):
    lam = 0.5 * embedding_norm(halfplane, PARAMS)
    for params in (PARAMS, LorentzParams(2.0, 1.5)):
        with pytest.raises(ValidationError, match="shell count"):
            construct_system(halfplane, params, m, lam, 0.05, 0.05)


def test_construct_system_takes_a_numpy_shell_count(halfplane):
    lam = 0.5 * embedding_norm(halfplane, PARAMS)
    system = construct_system(halfplane, PARAMS, np.int64(3), lam, 0.05,
                              0.05)
    assert system.m == 3
    assert verify_system(system) == verify_system(
        construct_system(halfplane, PARAMS, 3, lam, 0.05, 0.05))


@pytest.mark.parametrize("p, q", [(2.0, 1.0), (2.0, 1.5), (1.5, 1.0)])
@pytest.mark.parametrize("frac", [0.5, 0.7, 0.9])
def test_head_ratio_needs_few_quotients(halfplane, monkeypatch, p, q, frac):
    bound = LorentzParams(p, q, halfplane)
    lam = frac * embedding_norm(halfplane, bound)
    search = bernstein._quotient_of_ratio
    calls = []

    def counted(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(bernstein, "_quotient_of_ratio", counted)
    ratio, report = bernstein._head_ratio(halfplane, bound, lam)
    assert len(calls) <= 16
    assert report == search(halfplane, bound, ratio)
    assert abs(report.quotient - lam) <= 1e-12 * max(1.0, lam)


def test_cutoffs_are_searched_once_per_system_at_q_one(halfplane,
                                                       monkeypatch):
    # beyond the first, a shell costs one check of each cutoff condition
    # at its cutoff, in verify_system: no search, at q = 1 and above
    calls = {"_window_energy": 0, "restricted_norm": 0}
    for name in calls:
        original = getattr(bernstein, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(bernstein, name, counted)
    for q in (1.0, 1.5):
        params = LorentzParams(2.0, q)
        lam = 0.5 * embedding_norm(halfplane, params)
        counts = []
        for m in (1, 6):
            calls.update(dict.fromkeys(calls, 0))
            construct_system(halfplane, params, m, lam, 0.05, 0.05)
            counts.append(dict(calls))
        for name in calls:
            assert counts[1][name] - counts[0][name] <= 5


def _bisect_log(predicate, lo: float, hi: float) -> float:
    """The largest tau in [lo, hi] with predicate(tau), for a predicate that
    holds at lo and fails past one threshold, bisected in log tau so that
    its resolution is relative."""
    if predicate(hi):
        return hi
    assert predicate(lo)
    lo, hi = math.log(lo), math.log(hi)
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        if predicate(math.exp(mid)):
            lo = mid
        else:
            hi = mid
    return math.exp(lo)


def _per_shell_cutoffs(system):
    """Each shell's cutoff_measure/delta and whether its window condition
    binds, from bisections on that shell alone."""
    bound = system.params
    star = bound.star_params()
    lam_q = system.lam ** bound.q
    inflate = (1.0 + system.eps1) ** bound.q
    rows = []
    for s in system.shells:
        head = s.head_measure

        def tail_ok(tau, s=s):
            return bernstein.restricted_norm(s.profile, star,
                                             t_cut=tau) <= s.gamma

        def window_ok(tau, s=s):
            return inflate * bernstein._window_energy(
                s.profile, bound, tau) >= lam_q

        tau_tail = _bisect_log(tail_ok, head * 1e-200, head)
        tau_window = _bisect_log(window_ok, head * 1e-200, head)
        feasible = 0.5 * min(tau_tail, tau_window, 0.75 * head)
        cutoff = min(0.5 * feasible, s.delta / (2.0 * s.index))
        rows.append((cutoff / s.delta, tau_window < min(tau_tail,
                                                        0.75 * head)))
    return rows


@pytest.mark.parametrize("q, binds", [(1.0, [True] * 4),
                                      (1.5, [True, False, False, False])])
def test_dilated_cutoffs_match_per_shell_bisection(halfplane, q, binds):
    params = LorentzParams(2.0, q)
    lam = 0.5 * embedding_norm(halfplane, params)
    system = construct_system(halfplane, params, 4, lam, 0.05, 0.3)
    rows = _per_shell_cutoffs(system)
    assert [bind for _, bind in rows] == binds
    for s, (ratio, _) in zip(system.shells, rows):
        assert s.cutoff_measure / s.delta == pytest.approx(ratio, rel=1e-11)


@pytest.mark.parametrize("p, q, frac", [(2.0, 1.5, 0.5), (1.5, 1.3, 0.7),
                                        (2.0, 1.0, 0.9)])
def test_tail_norms_spend_a_fixed_share_of_their_budgets(halfplane, p, q,
                                                         frac):
    # the tail sets every cutoff here, at a quarter of the measure where
    # the flat head's tail norm reaches gamma_j, so every tail norm is
    # gamma_j 4^(-1/p*), also where gamma_j = a^j is far below the head
    params = LorentzParams(p, q)
    lam = frac * embedding_norm(halfplane, params)
    system = construct_system(halfplane, params, 6, lam, 0.05, 0.05)
    share = 4.0 ** (-1.0 / system.params.p_star)
    for s, row in zip(system.shells, verify_system(system)["shells"]):
        assert row["tail_norm"] == pytest.approx(s.gamma * share, rel=1e-12)


def test_deepest_system_above_q_one(halfplane):
    # q = 1.5 budgets shrink geometrically, and their cutoffs with them:
    # eight shells fit in the double range at lambda 0.5, seven at 0.9
    params = LorentzParams(2.0, 1.5)
    e_norm = embedding_norm(halfplane, params)
    system = construct_system(halfplane, params, 8, 0.5 * e_norm, 0.05, 0.05)
    verify_system(system)
    with pytest.raises(ResourceError, match="shell 8"):
        construct_system(halfplane, params, 8, 0.9 * e_norm, 0.05, 0.05)


def test_window_energy_below_1e160_matches_the_first_shell(halfplane):
    # a shell is the first one dilated in measure, so its windowed energy
    # at the same tau/head is the same number, also where the adaptive
    # rule works on panels below 1e-154
    bound = LorentzParams(2.0, 1.0, halfplane)
    lam = 0.9 * embedding_norm(halfplane, bound)
    ratio, report = bernstein._head_ratio(halfplane, bound, lam)
    first, _ = bernstein._shell_at(halfplane, bound, ratio,
                                   report.denominator, 1.0)
    deep, _ = bernstein._shell_at(halfplane, bound, ratio, report.denominator,
                                  halfplane.radius_of_measure(1e-165))
    assert deep.t_max < 1e-160
    for share in (1e-6, 1e-3, 0.3):
        want = bernstein._window_energy(first, bound,
                                        share * first.table.t1[0])
        got = bernstein._window_energy(deep, bound, share * deep.table.t1[0])
        assert got == pytest.approx(want, rel=1e-12)


def test_deepest_representable_system(halfplane):
    # at lambda 0.9 on halfplane-x1 shell 23's cutoff measure is subnormal
    lam = 0.9 * embedding_norm(halfplane, PARAMS)
    system = construct_system(halfplane, PARAMS, 22, lam, 0.05, 0.05)
    verify_system(system)
    assert system.shells[-1].cutoff_measure < 1e-295
    with pytest.raises(ResourceError, match="shell 23"):
        construct_system(halfplane, PARAMS, 23, lam, 0.05, 0.05)


def test_construct_system_validation(halfplane):
    lam = 0.5 * embedding_norm(halfplane, PARAMS)
    with pytest.raises(ValidationError):
        construct_system(halfplane, PARAMS, 0, lam, 0.05, 0.05)
    with pytest.raises(ValidationError):
        construct_system(halfplane, PARAMS, 2, lam, 0.0, 0.05)
    with pytest.raises(ValidationError):
        construct_system(halfplane, PARAMS, 2, lam, 0.05, -1.0)


def test_verify_system_detects_tampering(system):
    inflated = dataclasses.replace(system, lam=system.lam * 1.1)
    with pytest.raises(InternalConsistencyError):
        verify_system(inflated)
    starved = dataclasses.replace(
        system, shells=(dataclasses.replace(system.shells[0], gamma=1e-12),)
        + system.shells[1:])
    with pytest.raises(InternalConsistencyError):
        verify_system(starved)


def test_infeasible_cutoff_search_is_caught(halfplane, monkeypatch):
    # cutoffs at the upper ends of their ranges, the head for the tail and
    # the window search's tau_max, are cutoffs where neither condition
    # holds; verify_system refuses the system
    monkeypatch.setattr(bernstein, "_tail_cutoff",
                        lambda profile, bound, gamma: profile.table.t1[0])
    monkeypatch.setattr(bernstein, "_window_cutoff",
                        lambda profile, bound, lam, eps1, tau_max: tau_max)
    lam = 0.5 * embedding_norm(halfplane, PARAMS)
    with pytest.raises(InternalConsistencyError):
        construct_system(halfplane, PARAMS, 2, lam, 0.05, 0.05)


def test_verify_system_runs_once_per_object(halfplane, monkeypatch):
    lam = 0.5 * embedding_norm(halfplane, PARAMS)
    built = construct_system(halfplane, PARAMS, 2, lam, 0.05, 0.05)
    norms = bernstein.lorentz_norms_distributional
    calls = []

    def counted(*args):
        calls.append(args)
        return norms(*args)

    monkeypatch.setattr(bernstein, "lorentz_norms_distributional", counted)
    report = verify_system(built)
    assert not calls
    report["shells"].clear()  # a copy: the kept report is untouched
    assert len(verify_system(built)["shells"]) == 2
    fresh = dataclasses.replace(built)
    assert verify_system(fresh) == verify_system(built)
    # the fresh system is checked on its own, both gradient norms in one
    # lambda-route call
    assert [len(fs) for fs, _ in calls] == [2]


def test_verify_system_measures_every_shell(system):
    # shell 3 only, its amplitude 1e-9 off: its gradient norm is not 1
    shells = list(system.shells)
    shells[2] = dataclasses.replace(
        shells[2], profile=shells[2].profile.scaled_amplitude(1.0 + 1e-9))
    with pytest.raises(InternalConsistencyError, match="shell 3"):
        verify_system(dataclasses.replace(system, shells=tuple(shells)))


def test_verify_system_pins_every_shell_quotient(system):
    # shell 3 with quotient lambda (1 - 1.5e-10) and gradient norm
    # 1 + 0.9e-10: each norm is within 1e-10 of its target, but their
    # quotient is not within 1e-10 max(1, lambda) of lambda
    cone, bound, lam = system.cone, system.params, system.lam
    ratio, report = bernstein._head_ratio(cone, bound, lam * (1.0 - 1.5e-10))
    third = system.shells[2]
    profile, _ = bernstein._shell_at(cone, bound, ratio,
                                     report.denominator / (1.0 + 0.9e-10),
                                     third.outer_radius)
    shells = list(system.shells)
    shells[2] = dataclasses.replace(third, profile=profile)
    with pytest.raises(InternalConsistencyError, match="shell 3: quotient"):
        verify_system(dataclasses.replace(system, shells=tuple(shells)))


def test_prefix_systems_stand_alone(system):
    two = system.prefix(2)
    assert two.m == 2
    verify_system(two)
    assert two.shells == system.shells[:2]
    with pytest.raises(ValidationError):
        system.prefix(0)
    with pytest.raises(ValidationError):
        system.prefix(4)


# -- certificates ---------------------------------------------------------------------

@pytest.mark.parametrize("alpha", [
    [1.0, 1.0, 1.0],
    [1.0, -2.0, 0.5],
    [0.0, 0.0, 3.0],
    [-1.0],
])
def test_certificates_hold(system, alpha):
    lhs, bound, ok = superadditivity_certificate(system, alpha)
    assert ok
    assert lhs >= bound * (1.0 - 1e-9)
    glhs, gbound, gok = gradient_upper_certificate(system, alpha)
    assert gok
    assert glhs <= gbound * (1.0 + 1e-9)


def test_certificate_alpha_validation(system):
    for certificate in (superadditivity_certificate,
                        gradient_upper_certificate):
        for bad in ([], [1.0] * 4, [1.0, 1.0, 1.0, 50.0],
                    [math.nan, 1.0, 1.0]):
            with pytest.raises(ValidationError):
                certificate(system, bad)


def test_bernstein_lower_bound_certificate(system):
    got = bernstein_lower_bound(system, directions=200, seed=3)
    want = system.lam / (1.0 + system.eps1) - system.eps2
    assert got.certified == pytest.approx(want, rel=1e-15)
    assert got.empirical_minimum >= got.certified * (1.0 - 1e-9)
    assert got.empirical_minimum <= embedding_norm(system.cone,
                                                   system.params)
    assert (got.directions, got.seed) == (200, 3)


def test_bernstein_sweep_deterministic(system):
    a = bernstein_lower_bound(system, directions=50, seed=9)
    b = bernstein_lower_bound(system, directions=50, seed=9)
    assert a.empirical_minimum == b.empirical_minimum


# -- non-compactness mechanism ----------------------------------------------------------

def test_absolute_continuity_witness_vanishes(system, halfplane):
    g = from_knots(halfplane, [(0.5, 1.0), (2.0, 0.0)])
    wit = absolute_continuity_witness(system, g)
    assert len(wit) == system.m
    assert all(a > b > 0 for a, b in zip(wit, wit[1:]))
    assert wit[-1] < 0.01 * wit[0]


def _explicit_sweep(system, trials, directions, seed):
    """Failure counts and least quotient from two separate loops over the
    public certificates, each drawing its own directions from the seed."""
    rng = np.random.default_rng(seed)
    fails = [0, 0]
    for _ in range(trials):
        alpha = rng.standard_normal(system.m)
        fails[0] += not superadditivity_certificate(system, alpha)[2]
        fails[1] += not gradient_upper_certificate(system, alpha)[2]
    rng = np.random.default_rng(seed)
    worst = math.inf
    for _ in range(directions):
        alpha = rng.standard_normal(system.m)
        worst = min(worst, superadditivity_certificate(system, alpha)[0]
                    / gradient_upper_certificate(system, alpha)[0])
    return fails[0], fails[1], worst


def test_certify_span_counts_match_the_explicit_loop(system):
    # raise the superadditivity floor to the median sampled ratio, so
    # about half the directions fail and the counts are not all zero
    q = system.params.q
    ratios = sorted(
        superadditivity_certificate(system, a)[0] / ell_q_norm(a, q)
        for a in np.random.default_rng(3).standard_normal((9, system.m)))
    strict = dataclasses.replace(
        system, eps2=system.lam / (1.0 + system.eps1) - ratios[4])
    for sys_, seed in ((system, 0), (strict, 5)):
        sweep = certify_span(sys_, 20, 20, seed)
        bound = sweep.bound
        want = _explicit_sweep(sys_, 20, 20, seed)
        assert (sweep.super_failures, sweep.grad_failures,
                bound.empirical_minimum) == want
        assert (bound.directions, bound.seed) == (20, seed)
        assert bound.certified == sys_.lam / (1.0 + sys_.eps1) - sys_.eps2
    assert 0 < sweep.super_failures < 20


@pytest.mark.parametrize("trials, directions", [(-3, 10), (10, -2)])
def test_certify_span_rejects_negative_counts(system, trials, directions):
    with pytest.raises(ValidationError):
        certify_span(system, trials, directions, 0)


@pytest.mark.parametrize("trials, directions, seed", [
    (2, 2, -1), (2, 2, 1.5), (2.5, 2, 0), (2, 2.0, 0), (2, 2, "3")])
def test_certify_span_rejects_non_counts(system, trials, directions, seed):
    with pytest.raises(ValidationError):
        certify_span(system, trials, directions, seed)


@pytest.mark.parametrize("directions, seed", [(2, -1), (2, 1.5), (2.0, 0)])
def test_bernstein_lower_bound_rejects_non_counts(system, directions, seed):
    with pytest.raises(ValidationError):
        bernstein_lower_bound(system, directions, seed)


def test_certify_span_takes_numpy_integers(system):
    got = certify_span(system, np.int64(3), np.uint8(4), np.int32(2))
    assert got == certify_span(system, 3, 4, 2)


@pytest.mark.parametrize("trials, directions", [(4, 9), (9, 4)])
def test_certify_span_splits_one_sweep(system, trials, directions):
    # the counts cover the first `trials` directions and the minimum the
    # first `directions`, whichever is longer
    got = certify_span(system, trials, directions, 11)
    want = _explicit_sweep(system, trials, directions, 11)
    assert got[:2] == want[:2]
    assert got[2].empirical_minimum == want[2]
    assert got[2] == bernstein_lower_bound(system, directions, 11)


def test_quotients_and_the_shell_chain_build_no_piece(halfplane,
                                                     monkeypatch):
    # profiles, their clips and windows, gradient densities and the span
    # templates reach both routes as piece tables; the t-route's kernel
    # still takes a Law per row, so only Piece is refused
    def built(self):
        raise AssertionError("a Piece was built")

    monkeypatch.setattr(Piece, "__post_init__", built)
    params = LorentzParams(2.0, 1.0, halfplane)
    star = params.star_params()
    prof = from_knots(halfplane, [(0.4, 2.0), (1.1, 1.2), (2.5, 0.0)])
    assert quotient(prof, params).quotient > 0.0
    assert 0.0 < restricted_norm(prof, star, 1.5) < \
        lorentz_norm_rearranged(prof, star)
    lam = 0.5 * embedding_norm(halfplane, params)
    system = construct_system(halfplane, params, 2, lam, 0.05, 0.05)
    sweep = certify_span(system, 20, 20, 0)
    assert sweep.super_failures == sweep.grad_failures == 0
    assert sweep.bound.empirical_minimum >= sweep.bound.certified


# -- the span engine against the Piece path ---------------------------------------

def _reference_norms(system, alpha):
    """Both span norms through Piece objects, abs_pieces and the reference
    object sweep, which shares no strata code with the engine."""
    pieces, lift = [], 0.0
    for a, shell in zip(alpha, system.shells):
        for pc in level_set_reference.pieces_of(shell.profile.table.clip(
                shell.cutoff_measure, shell.profile.t_max)):
            law = dataclasses.replace(pc.law, coef=a * pc.law.coef,
                                      shift=a * pc.law.shift + lift)
            pieces.append(Piece(pc.t0, pc.t1, law))
        lift += a * shell.profile.max_value
    if lift != 0.0:
        pieces.append(Piece(0.0, system.shells[len(alpha) - 1].cutoff_measure,
                            Law.constant(lift)))
    signed = level_set_reference.abs_pieces(pieces)
    function = level_set_reference.norm(signed, system.params.star_params())
    gradient = level_set_reference.norm(
        [Piece(p.t0, p.t1, level_set_reference.scaled(p.law, abs(a)))
         for a, shell in zip(alpha, system.shells) if a != 0.0
         for p in level_set_reference.pieces_of(
             gradient_density(shell.profile).table)], system.params)
    return function, gradient, len(signed) - len(pieces)


def _awkward_alphas(system, rng):
    """Random alphas, alphas with zero entries, alphas shorter than m and
    all-negative ones, and one whose sum changes sign inside an arc of the
    second shell: there alpha_2 u_2 + alpha_1 max u_1 runs from -alpha_1
    max u_1 at the head to alpha_1 max u_1 at the support's end."""
    m = system.m
    heights = [s.profile.max_value for s in system.shells]
    return ([rng.standard_normal(m) for _ in range(6)]
            + [np.where(rng.random(m) < 0.5, 0.0, rng.standard_normal(m))
               for _ in range(3)]
            + [rng.standard_normal(k) for k in range(1, m)]
            + [-np.abs(rng.standard_normal(m)) for _ in range(2)]
            + [np.array([1.0, -2.0 * heights[0] / heights[1]])])


@pytest.fixture(scope="module")
def q_two_system(halfplane_module):
    params = LorentzParams(2.0, 2.0)
    lam = 0.5 * embedding_norm(halfplane_module, params)
    return construct_system(halfplane_module, params, 3, lam, 0.05, 0.05)


@pytest.fixture(scope="module")
def quadrant_system():
    from cone_sobolev import builtin_cone
    cone = builtin_cone("quadrant-x1x2")
    lam = 0.6 * embedding_norm(cone, PARAMS)
    return construct_system(cone, PARAMS, 3, lam, 0.05, 0.05)


@pytest.mark.parametrize("frac", [0.5, 0.7, 0.9])
def test_function_span_has_no_sliver_strata(halfplane, monkeypatch, frac):
    # a shell's head value, the lift it carries into the next shell and
    # the next arc's end value are one float, so their cuts merge
    system = construct_system(halfplane, PARAMS, 6,
                              frac * embedding_norm(halfplane, PARAMS),
                              0.05, 0.05)
    engine = spans.level_set_qth_powers
    rows = []

    def spy(strata, p, q):
        rows.append(strata.rows)
        return engine(strata, p, q)

    monkeypatch.setattr(spans, "level_set_qth_powers", spy)
    for seed in range(10):
        alphas = np.random.default_rng(seed).standard_normal((20, 6))
        spans.span_norms(system._span_tables, alphas, gradient=False)
    assert rows
    for r in rows:
        finite = np.isfinite(r.b)
        assert not (finite & (r.b - r.a <= 1e-9 * r.b)).any()


@pytest.mark.parametrize("which", ["q=1", "q=2", "quadrant-x1x2"])
def test_span_engine_matches_the_piece_path(which, system, q_two_system,
                                            quadrant_system):
    sys_ = {"q=1": system, "q=2": q_two_system,
            "quadrant-x1x2": quadrant_system}[which]
    splits = 0
    for alpha in _awkward_alphas(sys_, np.random.default_rng(17)):
        function, gradient, split = _reference_norms(sys_, alpha)
        splits += split
        got = superadditivity_certificate(sys_, alpha)[0]
        assert got == pytest.approx(function, rel=1e-13, abs=0.0), alpha
        got = gradient_upper_certificate(sys_, alpha)[0]
        assert got == pytest.approx(gradient, rel=1e-13, abs=0.0), alpha
    assert splits > 0  # some alpha cut a piece at a sign root


def test_span_engine_gives_zero_norms_for_zero_alpha(system):
    assert superadditivity_certificate(system, [0.0, 0.0])[0] == 0.0
    assert gradient_upper_certificate(system, [0.0, 0.0, 0.0])[0] == 0.0


def test_span_engine_batches_bit_identically(system, quadrant_system):
    # a direction's norms do not depend on the directions batched with it
    for sys_ in (system, quadrant_system):
        alphas = np.random.default_rng(5).standard_normal((70, sys_.m))
        awkward = alphas.copy()
        awkward[3, 1] = 0.0
        awkward[4] = -np.abs(awkward[4])
        tables = sys_._span_tables
        for gradient in (False, True):
            batch = spans.span_norms(tables, awkward, gradient)
            alone = [spans.span_norms(tables, a[None], gradient)[0]
                     for a in awkward]
            assert batch == alone
        sweep = certify_span(sys_, 70, 70, 5)
        assert sweep.bound.empirical_minimum == min(
            superadditivity_certificate(sys_, a)[0]
            / gradient_upper_certificate(sys_, a)[0] for a in alphas)


def test_certify_span_margins_are_the_least_relative_slack(system):
    sweep = certify_span(system, 12, 4, 2)
    alphas = np.random.default_rng(2).standard_normal((12, system.m))
    supers = [superadditivity_certificate(system, a) for a in alphas]
    grads = [gradient_upper_certificate(system, a) for a in alphas]
    assert sweep.super_margin == min(l / b - 1.0 for l, b, _ in supers)
    assert sweep.grad_margin == min(1.0 - l / b for l, b, _ in grads)
    assert certify_span(system, 0, 4, 2).super_margin == math.inf


def test_systems_reject_a_certified_bound_that_is_not_positive(
        system, halfplane_module):
    # a bound of zero or below certifies nothing, and the superadditivity
    # margin divides by it: every way a system is built refuses it
    edge = system.lam / (1.0 + system.eps1)
    with pytest.raises(ValidationError, match="must be positive"):
        construct_system(halfplane_module, PARAMS, 2, system.lam, 0.05, 5.0)
    for eps2 in (edge, 2.0 * edge):
        with pytest.raises(ValidationError, match="must be positive"):
            dataclasses.replace(system, eps2=eps2)

