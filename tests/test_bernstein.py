"""Shell systems: construction invariants, certificates, serialization."""

import dataclasses
import math

import mpmath
import numpy as np
import pytest

from cone_sobolev import bernstein, spans
from cone_sobolev import (AlmostExtremalSystem, DomainError, InfeasibleError,
                          InternalConsistencyError, LorentzParams,
                          ResourceError, ValidationError,
                          absolute_continuity_witness, bernstein_lower_bound,
                          build_shell_function, certify_span,
                          construct_system, ell_q_norm,
                          embedding_norm, from_knots, gamma_sequence,
                          gradient_upper_certificate, quotient,
                          superadditivity_certificate, verify_system)
from cone_sobolev.profiles import gradient_density
from cone_sobolev.segments import Law, Piece, clip_pieces

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


# -- single shells -----------------------------------------------------------------

def test_shell_function_hits_its_targets(halfplane):
    e_norm = embedding_norm(halfplane, PARAMS)
    lam = 0.5 * e_norm
    profile, inner = build_shell_function(halfplane, PARAMS, lam, 1.0)
    rep = quotient(profile, PARAMS)
    assert rep.denominator == pytest.approx(1.0, rel=1e-10)
    assert rep.numerator == pytest.approx(lam, rel=1e-10)
    assert 0.0 < inner < 1.0
    head = profile.pieces[0]
    assert head.t1 == pytest.approx(
        halfplane.c_d * inner ** halfplane.big_d, rel=1e-12)


def test_shell_function_infeasible_exponents(halfplane):
    e_norm = embedding_norm(halfplane, LorentzParams(1.0, 1.0))
    with pytest.raises(InfeasibleError):
        build_shell_function(halfplane, LorentzParams(1.0, 1.0),
                             0.5 * e_norm, 1.0)


@pytest.mark.parametrize("lam_factor", [0.0, 1.0, 1.5, -0.2])
def test_shell_function_needs_subcritical_lambda(halfplane, lam_factor):
    e_norm = embedding_norm(halfplane, PARAMS)
    with pytest.raises(InfeasibleError):
        build_shell_function(halfplane, PARAMS, lam_factor * e_norm, 1.0)


def test_shell_function_validation(halfplane):
    e_norm = embedding_norm(halfplane, PARAMS)
    with pytest.raises(DomainError):
        build_shell_function(halfplane, PARAMS, 0.5 * e_norm, 0.0)


def test_shell_function_near_critical_lambda_is_resource_bounded(halfplane):
    e_norm = embedding_norm(halfplane, PARAMS)
    with pytest.raises(ResourceError):
        build_shell_function(halfplane, PARAMS, 0.9999 * e_norm, 1.0)


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
    assert system.geometric_ratio is None  # q = 1 budgets are constant


def test_system_with_q_above_one(halfplane):
    params = LorentzParams(2.0, 1.5)
    lam = 0.5 * embedding_norm(halfplane, params)
    sys2 = construct_system(halfplane, params, 2, lam, 0.05, 0.05)
    assert sys2.m == 2
    assert sys2.geometric_ratio is not None
    assert 0.0 < sys2.geometric_ratio < 1.0
    verify_system(sys2)


def test_head_ratio_is_searched_once_per_system(halfplane, monkeypatch):
    lam = 0.5 * embedding_norm(halfplane, PARAMS)
    search = bernstein._quotient_of_ratio
    calls = []

    def counted(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(bernstein, "_quotient_of_ratio", counted)
    counts = []
    for m in (1, 6):
        calls.clear()
        construct_system(halfplane, PARAMS, m, lam, 0.05, 0.05)
        counts.append(len(calls))
    assert counts[0] > 0
    assert counts[0] == counts[1]


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
    ratio = bernstein._head_ratio(halfplane, bound, lam)
    assert len(calls) <= 16
    assert abs(search(halfplane, bound, ratio) - lam) <= 1e-12 * max(1.0,
                                                                     lam)


def test_cutoffs_are_searched_once_per_system_at_q_one(halfplane,
                                                       monkeypatch):
    # beyond the first, a shell costs one feasibility check at its cutoff
    # in construct_system and one in verify_system: no bisection
    lam = 0.5 * embedding_norm(halfplane, PARAMS)
    calls = {"_window_energy": 0, "restricted_norm": 0}
    for name in calls:
        original = getattr(bernstein, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(bernstein, name, counted)
    counts = []
    for m in (1, 6):
        calls.update(dict.fromkeys(calls, 0))
        construct_system(halfplane, PARAMS, m, lam, 0.05, 0.05)
        counts.append(dict(calls))
    for name in calls:
        assert counts[1][name] - counts[0][name] <= 2 * 5


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

        tau_tail = bernstein._bisect_threshold(tail_ok, head * 1e-24, head)
        tau_window = bernstein._bisect_threshold(window_ok, head * 1e-24,
                                                 head)
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


def test_window_energy_below_1e160_matches_the_first_shell(halfplane):
    # a shell is the first one dilated in measure, so its windowed energy
    # at the same tau/head is the same number, also where the adaptive
    # rule works on panels below 1e-154
    bound = LorentzParams(2.0, 1.0, halfplane)
    lam = 0.9 * embedding_norm(halfplane, bound)
    ratio = bernstein._head_ratio(halfplane, bound, lam)
    first, _ = bernstein._shell_at(halfplane, bound, lam, ratio, 1.0)
    deep, _ = bernstein._shell_at(halfplane, bound, lam, ratio,
                                  halfplane.radius_of_measure(1e-165))
    assert deep.t_max < 1e-160
    for share in (1e-6, 1e-3, 0.3):
        want = bernstein._window_energy(first, bound,
                                        share * first.pieces[0].t1)
        got = bernstein._window_energy(deep, bound,
                                       share * deep.pieces[0].t1)
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


def test_verify_system_runs_once_per_object(halfplane, monkeypatch):
    lam = 0.5 * embedding_norm(halfplane, PARAMS)
    built = construct_system(halfplane, PARAMS, 2, lam, 0.05, 0.05)
    norm = bernstein.lorentz_norm_distributional
    calls = []

    def counted(*args):
        calls.append(args)
        return norm(*args)

    monkeypatch.setattr(bernstein, "lorentz_norm_distributional", counted)
    report = verify_system(built)
    assert not calls
    report["shells"].clear()  # a copy: the kept report is untouched
    assert len(verify_system(built)["shells"]) == 2
    loaded = AlmostExtremalSystem.from_json(built.to_json())
    assert verify_system(loaded) == verify_system(built)
    assert len(calls) == 2  # the loaded system is checked on its own


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


# -- serialization ------------------------------------------------------------------------

def test_system_json_roundtrip(system):
    clone = AlmostExtremalSystem.from_json(system.to_json())
    assert clone.m == system.m
    assert clone.lam == system.lam
    assert (clone.eps1, clone.eps2) == (system.eps1, system.eps2)
    verify_system(clone)
    for a, b in zip(clone.shells, system.shells):
        assert a.outer_radius == b.outer_radius
        assert a.cutoff_measure == b.cutoff_measure
        assert a.gamma == b.gamma


def test_system_json_rejects_malformed(system):
    data = system.to_json_dict()
    del data["shells"][0]["profile"]
    with pytest.raises(ValidationError):
        AlmostExtremalSystem.from_json_dict(data)


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


@pytest.mark.parametrize("trials, directions", [(4, 9), (9, 4)])
def test_certify_span_splits_one_sweep(system, trials, directions):
    # the counts cover the first `trials` directions and the minimum the
    # first `directions`, whichever is longer
    got = certify_span(system, trials, directions, 11)
    want = _explicit_sweep(system, trials, directions, 11)
    assert got[:2] == want[:2]
    assert got[2].empirical_minimum == want[2]
    assert got[2] == bernstein_lower_bound(system, directions, 11)


# -- the span engine against the Piece path ---------------------------------------

def _reference_norms(system, alpha):
    """Both span norms through Piece objects, abs_pieces and the reference
    object sweep, which shares no strata code with the engine."""
    pieces, lift = [], 0.0
    for a, shell in zip(alpha, system.shells):
        for pc in clip_pieces(shell.profile.pieces, shell.cutoff_measure,
                              shell.profile.t_max):
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
        [Piece(p.t0, p.t1, p.law.scaled(abs(a)))
         for a, shell in zip(alpha, system.shells) if a != 0.0
         for p in gradient_density(shell.profile).pieces], system.params)
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


@pytest.mark.parametrize("which", ["q=1", "q=2", "quadrant-x1x2", "json"])
def test_span_engine_matches_the_piece_path(which, system, q_two_system,
                                            quadrant_system):
    sys_ = {"q=1": system, "q=2": q_two_system,
            "quadrant-x1x2": quadrant_system,
            "json": AlmostExtremalSystem.from_json(system.to_json())}[which]
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
        spec = system.to_json_dict()
        spec["eps2"] = eps2
        with pytest.raises(ValidationError, match="must be positive"):
            AlmostExtremalSystem.from_json_dict(spec)

