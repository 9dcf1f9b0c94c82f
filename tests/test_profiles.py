"""Radial profiles: construction, gradient densities, scaling, files."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cone_sobolev import (DomainError, LorentzParams, RadialProfile,
                          ValidationError, alvino_profile, builtin_cone,
                          from_knots, gradient_density,
                          lorentz_norm_distributional,
                          lorentz_norm_rearranged, scale)
from cone_sobolev.segments import Law, Piece, PieceTable, _moment_integrals

import level_set_reference as ref


def tent(cone, t1=1.0, t2=2.0):
    return from_knots(cone, [(t1, 1.0), (t2, 0.0)])


# -- construction ---------------------------------------------------------------

def test_from_knots_values(halfplane):
    prof = from_knots(halfplane, [(1.0, 2.0), (2.0, 0.5), (4.0, 0.0)])
    assert prof.value(0.25) == 2.0          # constant head extension
    assert prof.value(1.0) == pytest.approx(2.0)
    assert prof.value(1.5) == pytest.approx(1.25)
    assert prof.value(3.0) == pytest.approx(0.25)
    assert prof.value(5.0) == 0.0
    assert prof.t_max == 4.0
    assert prof.max_value == 2.0
    assert not prof.is_unbounded


@pytest.mark.parametrize("knots", [
    [],
    [(0.0, 1.0), (1.0, 0.0)],
    [(1.0, 1.0), (1.0, 0.0)],
    [(1.0, 1.0), (2.0, 1.5), (3.0, 0.0)],
    [(1.0, 1.0), (2.0, 0.5)],
    [(1.0, -1.0), (2.0, -2.0)],
])
def test_from_knots_validation(halfplane, knots):
    with pytest.raises((ValidationError, DomainError)):
        from_knots(halfplane, knots)


def test_profile_rejects_gaps_and_increases(halfplane):
    with pytest.raises(ValidationError):
        RadialProfile(halfplane, PieceTable.of(
            [Piece(0.5, 1.0, Law.constant(0.0))]))
    with pytest.raises(ValidationError):
        RadialProfile(halfplane, PieceTable.of(
            [Piece(0.0, 1.0, Law(1.0, 1.0))]))


def test_alvino_profile_structure(halfplane):
    prof = alvino_profile(halfplane, 1.5, 0.5, 8.0)
    head, arc = ref.pieces_of(prof.table)
    assert (head.t0, head.t1) == (0.0, 0.5)
    assert (arc.t0, arc.t1) == (0.5, 8.0)
    # continuous at the junction, zero at the support end
    assert prof.value(0.5 - 1e-12) == pytest.approx(
        prof.value(0.5 + 1e-12), rel=1e-9)
    assert prof.value(8.0 - 1e-12) == pytest.approx(0.0, abs=1e-9)
    assert prof.value(0.25) == pytest.approx(
        0.5 ** (-1 / 1.5) - 8.0 ** (-1 / 1.5), rel=1e-12)


def test_alvino_profile_validation(halfplane):
    with pytest.raises(DomainError):
        alvino_profile(halfplane, 1.5, 2.0, 1.0)
    with pytest.raises(ValidationError):
        alvino_profile(halfplane, -1.0, 0.5, 8.0)


def test_radial_value_uses_measure_coordinates(halfplane):
    prof = tent(halfplane)
    r = 1.1
    t = halfplane.c_d * r ** halfplane.big_d
    assert prof.radial_value(r) == pytest.approx(float(prof.value(t)))


# -- gradient density -------------------------------------------------------------

def test_gradient_density_of_tent(halfplane):
    # slope -1 on (1, 2): psi = D c_d^(1/D) t^((D-1)/D)
    psi = gradient_density(tent(halfplane))
    (piece,) = ref.pieces_of(psi)
    assert (piece.t0, piece.t1) == (1.0, 2.0)
    front = halfplane.big_d * halfplane.c_d ** (1.0 / halfplane.big_d)
    for t in (1.2, 1.7):
        assert piece.law.value(t) == pytest.approx(
            front * t ** (2.0 / 3.0), rel=1e-12)
    assert ref.pieces_value([piece], 0.5) == 0.0
    assert ref.pieces_value([piece], 2.5) == 0.0


def test_gradient_density_of_power_arc(halfplane):
    # phi ~ t^(-1/p*) maps to psi ~ t^(-1/p) through 1/p = 1/p* + 1/D
    p_star = 3.0
    prof = alvino_profile(halfplane, p_star, 1.0, 100.0)
    psi = gradient_density(prof)
    (piece,) = ref.pieces_of(psi)
    expo = piece.law.expo
    inv_p = 1.0 / p_star + 1.0 / halfplane.big_d
    assert expo == pytest.approx(-inv_p, rel=1e-12)


def test_gradient_density_refuses_unbounded_heads(halfplane):
    unbounded = RadialProfile(halfplane, PieceTable.of([
        Piece(0.0, 1.0, Law(1.0, -1.0 / 3.0, shift=-1.0))]))
    assert unbounded.is_unbounded
    with pytest.raises(DomainError):
        gradient_density(unbounded)


# -- scaling -----------------------------------------------------------------------

@settings(deadline=None)
@given(kappa=st.floats(min_value=0.05, max_value=20.0),
       t=st.floats(min_value=0.01, max_value=3.0))
def test_scale_value_identity(kappa, t):
    cone = __import__("cone_sobolev").builtin_cone("halfplane-x1")
    prof = tent(cone)
    k = kappa ** cone.big_d
    assert float(scale(prof, kappa).value(t)) == pytest.approx(
        float(prof.value(k * t)), rel=1e-12, abs=1e-300)


def test_scale_support_and_gradient_identity(halfplane):
    prof = tent(halfplane)
    kappa = 3.0
    k = kappa ** halfplane.big_d
    scaled = scale(prof, kappa)
    assert scaled.t_max == pytest.approx(prof.t_max / k, rel=1e-14)
    psi, psi_k = gradient_density(prof), gradient_density(scaled)
    for t in (0.04, 0.06):
        assert float(ref.pieces_value(ref.pieces_of(psi_k), t)) == \
            pytest.approx(kappa * float(ref.pieces_value(
                ref.pieces_of(psi), k * t)), rel=1e-12)


def test_scale_validation(halfplane):
    with pytest.raises(ValidationError):
        scale(tent(halfplane), 0.0)


# -- profile files ------------------------------------------------------------------

def test_profile_json_reads_every_law_kind(halfplane):
    # 3 - t/2, then 2.5 t^(-1/2), then 5 t^(-1/2) - 1.25: continuous,
    # nonincreasing, and zero at t = 16
    data = {"segments": [
        {"t0": 0.0, "t1": 1.0, "law": "affine", "params": [3.0, -0.5]},
        {"t0": 1.0, "t1": 4.0, "law": "power", "params": [2.5, -0.5]},
        {"t0": 4.0, "t1": 16.0, "law": "power",
         "params": [5.0, -0.5, -1.25]}]}
    expected = [Piece(0.0, 1.0, Law(-0.5, 1.0, shift=3.0)),
                Piece(1.0, 4.0, Law(2.5, -0.5)),
                Piece(4.0, 16.0, Law(5.0, -0.5, shift=-1.25))]
    prof = RadialProfile.from_json_dict(data, halfplane)
    assert prof.cone is halfplane
    assert ref.pieces_of(prof.table) == tuple(expected)
    for got, want in zip(ref.pieces_of(prof.table), expected):
        ts = np.linspace(want.t0, want.t1, 9)[1:]
        assert np.array_equal(np.asarray(got.law.value(ts)),
                              np.asarray(want.law.value(ts)))
    assert prof.value(0.5) == 2.75
    assert prof.value(4.0) == pytest.approx(1.25, rel=1e-15)
    assert prof.value(16.0) == 0.0


def test_profile_json_rejects_unknown_laws(halfplane):
    data = {"segments": [{"t0": 0.0, "t1": 1.0, "law": "spline",
                          "params": [1.0]}]}
    with pytest.raises(ValidationError):
        RadialProfile.from_json_dict(data, halfplane)


# -- the table path against the object path -------------------------------------

PQ = [(1.5, 1.0), (1.5, 1.25), (1.2, 1.1)]


def columns(table):
    return [[x.hex() for x in col.tolist()] for col in table]


def outcome(fn, *args):
    """fn's value under float.hex, a profile's or piece list's columns, or
    the type and message of what it raised."""
    try:
        value = fn(*args)
    except Exception as exc:   # compared, not hidden
        return type(exc).__name__, str(exc)
    if isinstance(value, float):
        return value.hex()
    return columns(PieceTable.of(value) if isinstance(value, list)
                   else value.table)


def checked(pieces):
    """The pieces, once the object path's profile checks pass them."""
    ref.check_profile(pieces)
    return pieces


@st.composite
def knot_lists(draw):
    """Valid knots: positions rising from above 0, values falling to 0."""
    n = draw(st.integers(1, 12))
    ts = sorted(draw(st.lists(st.floats(1e-3, 8.0), min_size=n, max_size=n,
                              unique=True)))
    drops = draw(st.lists(st.floats(0.0, 2.0), min_size=n - 1,
                          max_size=n - 1))
    vs = [math.fsum(drops[i:]) for i in range(n - 1)] + [0.0]
    return list(zip(ts, vs))


@settings(deadline=None, max_examples=60)
@given(knots=knot_lists(), cone_name=st.sampled_from(
    ["halfplane-x1", "quadrant-x1x2", "disc-unweighted"]),
       pq=st.sampled_from(PQ), k=st.floats(0.1, 10.0))
# subnormal values: the last piece ends at -2^-1074 with magnitude 7e-323,
# inside the sign rule only through its absolute part
@example(knots=[(0.5, 5e-324), (1.0, 5e-324), (6.0, 5e-324), (7.5, 0.0)],
         cone_name="halfplane-x1", pq=(1.5, 1.0), k=1.0)
def test_table_path_matches_the_object_path(knots, cone_name, pq, k):
    """from_knots, gradient_density, scale and scaled_amplitude give the
    columns of the profiles built one Piece and Law at a time, and the
    same lambda-route and t-route norms, bit for bit (or the same
    error)."""
    cone = builtin_cone(cone_name)
    params = LorentzParams(*pq, cone)
    star = params.star_params()
    made = outcome(from_knots, cone, knots)
    assert made == outcome(ref.knot_pieces, knots)
    if isinstance(made, tuple):   # knots closer than the checks allow
        return
    pieces = ref.knot_pieces(knots)
    prof = from_knots(cone, knots)
    assert ref.pieces_of(prof.table) == tuple(pieces)
    psi = gradient_density(prof)
    psi_pieces = ref.density_pieces(cone, pieces)
    assert columns(psi) == columns(PieceTable.of(psi_pieces))
    for f, want, pq_of in ((prof, pieces, star), (psi, psi_pieces, params)):
        assert (outcome(lorentz_norm_distributional, f, pq_of)
                == outcome(lorentz_norm_distributional, want, pq_of))
    # a piece list takes the t-route's nonincreasing check, which a
    # profile leaves to its own; where only that check refuses the pieces,
    # the profile's norm is their moments' through the same kernel
    want = outcome(lorentz_norm_rearranged, pieces, star)
    if want == ("ValidationError",
                "rearranged-route input must be nonincreasing"):
        want = outcome(lambda: math.fsum(_moment_integrals(
            PieceTable.of(pieces), star.q / star.p, star.q))
            ** (1.0 / star.q))
    assert outcome(lorentz_norm_rearranged, prof, star) == want
    kappa = k ** (1.0 / cone.big_d)
    dilation = kappa ** cone.big_d
    assert outcome(scale, prof, kappa) == outcome(lambda: checked(
        [Piece(p.t0 / dilation, p.t1 / dilation,
               ref.with_argument_scaled(p.law, dilation)) for p in pieces]))
    assert outcome(prof.scaled_amplitude, k) == outcome(lambda: checked(
        [Piece(p.t0, p.t1, ref.scaled(p.law, k)) for p in pieces]))


any_float = st.one_of(st.floats(-1.0, 5.0), st.sampled_from(
    [0.0, -0.0, 1e-300, math.inf, -math.inf, math.nan]))


@settings(deadline=None, max_examples=300)
@given(knots=st.one_of(knot_lists(), st.lists(
    st.tuples(any_float, any_float), max_size=5)))
def test_knots_are_checked_as_the_object_path_checks_them(knots):
    cone = builtin_cone("halfplane-x1")
    assert outcome(from_knots, cone, knots) == outcome(ref.knot_pieces,
                                                       knots)


def object_profile(cone, rows):
    """The profile of (t0, t1, coef, expo, shift) rows, checked one
    object at a time."""
    pieces = [Piece(t0, t1, Law(coef, expo, shift=shift))
              for t0, t1, coef, expo, shift in rows]
    ref.check_profile(pieces)
    return RadialProfile(cone, PieceTable.of(pieces))


@pytest.mark.parametrize("k", [1.0, 1e6])
def test_a_junction_is_judged_by_its_values_magnitudes(halfplane, k):
    # 1e-12 then 3e-12 at t = 1: within 1e-9 max(|v|, 1), so an absolute
    # floor took it, and its two norm routes read 9.2% apart at (1.5, 1);
    # against the magnitudes 3e-12 and 9e-12 that the values are rounded
    # from it is a jump at every scale
    t0, t1, coef, shift = np.array([(0.0, 1.0, -1e-12, 2e-12),
                                    (1.0, 2.0, -3e-12, 6e-12)]).T
    one = np.ones(2)
    table = PieceTable(t0, t1, k * coef, k * shift, one, 0.0 * one, one)
    with pytest.raises(ValidationError,
                       match=r"profile discontinuity at t = 1\.0"):
        RadialProfile(halfplane, table)


@pytest.mark.parametrize("rows", [
    [],
    [(0.0, 1.0, 1.0, 1.0, 0.0)],                          # rises
    [(0.5, 1.0, 0.0, 0.0, 0.0)],                          # gap at 0
    [(0.0, 1.0, 2.0, 0.0, 0.0), (1.5, 2.0, -1.0, 1.0, 2.0)],   # gap
    [(0.0, 1.0, 2.0, 0.0, 0.0), (1.0, 2.0, -1.0, 1.0, 2.5)],   # jump
    [(0.0, 1.0, 1.0, 0.0, 0.0), (1.0, 1.0, -1.0, 1.0, 2.0)],   # empty
    [(0.0, 1.0, 1.0, 0.0, 0.0), (1.0, math.nan, -1.0, 1.0, 2.0)],
    [(0.0, 1.0, 1.0, 0.0, 0.0), (1.0, math.inf, -1.0, 1.0, 2.0)],
    [(0.0, 2.0, -1.0, 1.0, 2.5)],                         # no decay
    [(0.0, 2.0, -1.0, 1.0, 2.0 + 1e-8)],                  # decay, rounding
    [(0.0, 1.0, 1.0, -0.5, -1.0)],                        # pole at 0
    [(0.0, 1.0, 1.0, 0.0, 0.0), (1.0, 2.0, -1.0, 1.0, 2.0),
     (2.0, 3.0, 1.0, 1.0, -2.0)],                         # rises at t = 2
    [(0.0, 1.0, 3.0, 0.0, 0.0), (1.0, 4.0, 3.0, -0.5, 0.0),
     (4.0, 9.0, 3.0, -0.5, -1.0)],                        # jump at t = 4
])
def test_profiles_are_checked_as_the_object_path_checks_them(halfplane,
                                                             rows):
    t0, t1, coef, expo, shift = np.array(rows, dtype=float).reshape(-1, 5).T
    table = PieceTable(t0, t1, coef, shift, expo, 0.0 * t0, 0.0 * t0 + 1.0)
    assert outcome(RadialProfile, halfplane, table) == outcome(
        object_profile, halfplane, rows)


def test_unanchored_laws_are_refused_as_before(halfplane):
    pieces = [Piece(0.0, 1.0, Law(-1.0, 1.0, base=-1.0, shift=2.0)),
              Piece(1.0, 2.0, Law(5.0, 0.0, base=7.0, orient=-1.0))]
    with pytest.raises(ValidationError, match="anchored at the origin"):
        ref.check_profile(pieces)
    with pytest.raises(ValidationError, match="anchored at the origin"):
        RadialProfile(halfplane, PieceTable.of(pieces))
    # a constant law may sit anywhere: only the power term is anchored
    RadialProfile(halfplane, PieceTable.of(
        [Piece(0.0, 1.0, Law(2.0, 0.0, base=7.0, orient=-1.0)),
         Piece(1.0, 2.0, Law(-2.0, 1.0, shift=4.0))]))
