"""Sharp embedding constant, quotients, maximizing family, rearrangement check."""

import math
from dataclasses import astuple

import numpy as np
import pytest

from cone_sobolev import (DomainError, LorentzParams, RadialProfile,
                          SampledField, ValidationError, WeightedCone,
                          alvino_search, builtin_cone,
                          bump_superposition_field, embedding_norm,
                          acceptance, from_knots, quotient, quotients,
                          polya_szego_check, scale)
from cone_sobolev.segments import Law, Piece, PieceTable

BOX = [(0.0, 3.0), (-1.5, 1.5)]


def tent(cone):
    return from_knots(cone, [(1.0, 1.0), (2.0, 0.0)])


# -- the sharp constant ---------------------------------------------------------

def test_embedding_norm_oracles(halfplane, quadrant, disc):
    # p / ((D - p) c_d^(1/D)) against hand-computed closed forms
    assert embedding_norm(halfplane, LorentzParams(1.0, 1.0)) == \
        pytest.approx(0.5 * 1.5 ** (1.0 / 3.0), rel=1e-14)
    assert embedding_norm(quadrant, LorentzParams(1.0, 1.0)) == \
        pytest.approx(2.0 ** 0.75 / 3.0, rel=1e-14)
    assert embedding_norm(disc, LorentzParams(1.5, 1.0)) == \
        pytest.approx(3.0 / math.sqrt(math.pi), rel=1e-14)
    assert embedding_norm(disc, LorentzParams(1.5, 1.0)) == \
        pytest.approx(1.692568750643269, rel=1e-14)


def test_embedding_norm_grows_with_p(halfplane):
    norms = [embedding_norm(halfplane, LorentzParams(p, 1.0))
             for p in (1.0, 1.5, 2.0, 2.5)]
    assert all(a < b for a, b in zip(norms, norms[1:]))


def test_embedding_norm_rejects_supercritical(halfplane):
    with pytest.raises(DomainError):
        embedding_norm(halfplane, LorentzParams(3.0, 1.0))
    with pytest.raises(DomainError):
        embedding_norm(halfplane, LorentzParams(4.0, 1.0))


# -- quotients -------------------------------------------------------------------

def test_quotient_report_fields(halfplane):
    rep = quotient(tent(halfplane), LorentzParams(2.0, 1.0))
    assert rep.quotient == pytest.approx(
        rep.numerator / rep.denominator, rel=1e-15)
    assert rep.ratio == pytest.approx(
        rep.quotient / rep.embedding_norm, rel=1e-15)
    assert 0 < rep.ratio <= 1.0 + 1e-9


def test_every_radial_profile_attains_the_constant_at_p_one(halfplane,
                                                            quadrant):
    # p = q = 1: the quotient equals the sharp constant for every profile
    knots = [(0.3, 2.0), (1.1, 1.2), (2.0, 0.7), (3.5, 0.0)]
    for cone in (halfplane, quadrant):
        rep = quotient(from_knots(cone, knots), LorentzParams(1.0, 1.0))
        assert rep.ratio == pytest.approx(1.0, rel=1e-12)


def test_quotient_strictly_below_constant_for_p_above_one(halfplane):
    rep = quotient(tent(halfplane), LorentzParams(2.0, 1.0))
    assert rep.ratio < 1.0 - 1e-3


def test_quotient_scale_invariant(halfplane):
    prof = from_knots(halfplane, [(0.3, 2.0), (1.1, 1.2), (3.5, 0.0)])
    params = LorentzParams(2.0, 1.5)
    base = quotient(prof, params).quotient
    for kappa in (0.1, 2.7, 40.0):
        got = quotient(scale(prof, kappa), params).quotient
        assert got == pytest.approx(base, rel=1e-12)


def test_quotient_rejects_zero_profiles(halfplane):
    flat = RadialProfile(halfplane, PieceTable.of(
        [Piece(0.0, 1.0, Law.constant(0.0))]))
    with pytest.raises(DomainError):
        quotient(flat, LorentzParams(2.0, 1.0))


def test_quotients_match_quotient_on_criterion_3_draws():
    # criterion 3's 2000 profiles at seed 0: each batched report equals
    # its own single call bit for bit
    rng = np.random.default_rng(0)
    cases = [("halfplane-x1", 1.0, 1.0), ("quadrant-x1x2", 1.0, 1.0),
             ("disc-unweighted", 1.0, 1.0), ("quadrant-x1x2", 2.0, 1.0)]
    for name, p, q in cases:
        cone = builtin_cone(name)
        params = LorentzParams(p, q, cone)
        profiles = [acceptance._random_affine_profile(cone, rng)
                    for _ in range(500)]
        batch = quotients(profiles, params)
        alone = [quotient(prof, params) for prof in profiles]
        assert [[x.hex() for x in astuple(r)] for r in batch] == [
            [x.hex() for x in astuple(r)] for r in alone]


def test_quotients_batch_mixed_cones_and_refuse_a_flat_profile(halfplane,
                                                                quadrant):
    params = LorentzParams(1.5, 1.0)
    profiles = [tent(halfplane), tent(quadrant),
                from_knots(halfplane, [(0.5, 2.0), (1.0, 0.0)])]
    assert quotients(profiles, params) == [quotient(prof, params)
                                           for prof in profiles]
    assert quotients([], params) == []
    flat = RadialProfile(halfplane, PieceTable.of(
        [Piece(0.0, 1.0, Law.constant(0.0))]))
    with pytest.raises(DomainError):
        quotients(profiles + [flat], params)


def report_hexes(reports):
    return [[x.hex() for x in astuple(r)] for r in reports]


def test_batch_entries_read_their_input_once(halfplane, quadrant):
    params = LorentzParams(1.5, 1.0)
    profiles = [tent(halfplane), tent(quadrant),
                from_knots(halfplane, [(0.5, 2.0), (1.0, 0.0)])]
    want = report_hexes(quotients(profiles, params))
    array = np.empty(len(profiles), dtype=object)
    array[:] = profiles
    for given in ((p for p in profiles), tuple(profiles), array):
        assert report_hexes(quotients(given, params)) == want
    assert quotients(iter(()), params) == []
    ratios = [1e2, 1e4]
    want = report_hexes(alvino_search(halfplane, params, ratios))
    for given in ((r for r in ratios), tuple(ratios), np.array(ratios)):
        assert report_hexes(alvino_search(halfplane, params, given)) == want
    for empty in (iter(()), (), np.array([])):
        with pytest.raises(ValidationError):
            alvino_search(halfplane, params, empty)


# -- the maximizing family --------------------------------------------------------

def test_alvino_family_fractions_frozen(halfplane):
    reports = alvino_search(halfplane, LorentzParams(1.5, 1.0),
                            [1e2, 1e4, 1e8])
    fracs = [r.ratio for r in reports]
    assert fracs[0] == pytest.approx(0.8619322988877716, rel=1e-12)
    assert fracs[1] == pytest.approx(0.9255390254328306, rel=1e-12)
    assert fracs[2] == pytest.approx(0.961328130217226, rel=1e-12)


def test_alvino_family_approaches_the_constant(halfplane):
    reports = alvino_search(halfplane, LorentzParams(2.0, 1.0),
                            [1e2, 1e4, 1e8, 1e16, 1e40])
    fracs = [r.ratio for r in reports]
    assert all(a <= b for a, b in zip(fracs, fracs[1:]))
    assert all(f < 1.0 for f in fracs)
    assert fracs[-1] > 0.98
    e_norm = embedding_norm(halfplane, LorentzParams(2.0, 1.0))
    assert all(r.embedding_norm == pytest.approx(e_norm, rel=1e-15)
               for r in reports)


def test_alvino_family_flat_at_p_one(quadrant):
    reports = alvino_search(quadrant, LorentzParams(1.0, 1.0), [10.0, 1e3])
    for rep in reports:
        assert rep.ratio == pytest.approx(1.0, rel=1e-12)


def test_alvino_search_validation(halfplane):
    params = LorentzParams(2.0, 1.0)
    with pytest.raises(ValidationError):
        alvino_search(halfplane, params, [])
    with pytest.raises(ValidationError):
        alvino_search(halfplane, params, [100.0, 1.0])


# -- rearrangement does not increase the gradient norm ------------------------------

def test_polya_szego_on_bump_fields(halfplane):
    field = bump_superposition_field(halfplane, BOX, (32, 32), 3, seed=0)
    lhs, rhs, ok = polya_szego_check(field, LorentzParams(2.0, 1.0))
    assert ok
    assert 0 < lhs < rhs


def test_polya_szego_equality_for_radial_data(disc):
    def cone_fn(pts):
        return np.maximum(0.0, 1.0 - np.sqrt(np.sum(pts * pts, axis=1)))
    field = SampledField.from_function(
        disc, [(-1.2, 1.2), (-1.2, 1.2)], (48, 48), cone_fn)
    lhs, rhs, ok = polya_szego_check(field, LorentzParams(1.5, 1.0))
    assert ok
    # equality case: the two sides agree at grid resolution
    assert lhs == pytest.approx(rhs, rel=field.max_cell_diameter)


def test_polya_szego_seed_and_exponent_sweep(quadrant):
    box = [(0.0, 2.0), (0.0, 2.0)]
    for seed in (1, 2):
        field = bump_superposition_field(quadrant, box, (24, 24), 2, seed)
        for p, q in [(1.0, 1.0), (2.0, 1.5), (3.0, 2.0)]:
            lhs, rhs, ok = polya_szego_check(field, LorentzParams(p, q))
            assert ok, (seed, p, q, lhs, rhs)


def test_polya_szego_of_a_zero_field_is_exactly_zero(halfplane):
    # the flat rearrangement's gradient density has no pieces, and the
    # lambda route gives it the norm 0.0 like any empty table
    field = SampledField.from_function(halfplane, BOX, (8, 8),
                                       lambda x: np.zeros(len(x)))
    for p, q in [(2.0, 1.0), (2.5, 1.4)]:
        got = polya_szego_check(field, LorentzParams(p, q))
        assert got == (0.0, 0.0, True)
        assert [x.hex() for x in got[:2]] == [(0.0).hex()] * 2


# -- bump superposition fields -------------------------------------------------------

def test_bump_field_vanishes_at_artificial_faces(halfplane):
    field = bump_superposition_field(halfplane, BOX, (24, 24), 3, seed=0)
    v = field.values
    peak = v.max()
    assert peak > 0.5
    # ramped faces carry almost nothing
    assert v[-1, :].max() < 0.06 * peak
    assert v[:, 0].max() < 0.06 * peak
    assert v[:, -1].max() < 0.06 * peak
    # the cone wall x0 = 0 is not ramped
    assert v[0, :].max() > 10.0 * v[-1, :].max()


def test_bump_field_deterministic_in_seed(halfplane):
    a = bump_superposition_field(halfplane, BOX, (16, 16), 2, seed=5)
    b = bump_superposition_field(halfplane, BOX, (16, 16), 2, seed=5)
    c = bump_superposition_field(halfplane, BOX, (16, 16), 2, seed=6)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def point_array_bump_field(cone, box, shape, n_bumps, seed):
    """Bumps and face ramps evaluated over the (cells, d) point array and
    sampled by ``from_function``: the per-axis code must match it bit for
    bit."""
    box = [(float(lo), float(hi)) for lo, hi in box]
    rng = np.random.default_rng(seed)
    extents = np.array([hi - lo for lo, hi in box])
    centers = np.array([[rng.uniform(lo, hi) for lo, hi in box]
                        for _ in range(n_bumps)])
    widths = rng.uniform(0.08, 0.25, n_bumps)[:, None] * extents[None, :]
    amps = rng.uniform(0.5, 1.5, n_bumps)
    walls = {a for a in cone.constrained_axes if box[a][0] == 0.0}

    def smooth_ramp(s):
        s = np.clip(s, 0.0, 1.0)
        return s * s * (3.0 - 2.0 * s)

    def fn(pts):
        out = np.zeros(pts.shape[0])
        for c, w, a in zip(centers, widths, amps):
            z = (pts - c[None, :]) / w[None, :]
            out += a * np.exp(-0.5 * np.sum(z * z, axis=1))
        for axis, (lo, hi) in enumerate(box):
            margin = 0.15 * extents[axis]
            if axis not in walls:
                out *= smooth_ramp((pts[:, axis] - lo) / margin)
            out *= smooth_ramp((hi - pts[:, axis]) / margin)
        return out

    return SampledField.from_function(cone, box, shape, fn)


@pytest.mark.parametrize("name, box, shape", [
    ("halfplane-x1", BOX, (40, 40)),                   # a wall face
    ("disc-unweighted", [(-1.5, 1.5)] * 2, (32, 32)),  # no wall
    ("halfspace3-x1", [(0.0, 3.0), (-1.5, 1.5), (-1.5, 1.5)], (12, 12, 12)),
    ("quadrant-x1x2", [(0.0, 2.0), (0.0, 3.0)], (17, 45)),
])
@pytest.mark.parametrize("n_bumps, seed", [(1, 0), (4, 11)])
def test_bump_field_matches_point_array_sampling(name, box, shape, n_bumps,
                                                 seed):
    cone = (WeightedCone.create(3, [(0, 1.0)], False)
            if name == "halfspace3-x1" else builtin_cone(name))
    got = bump_superposition_field(cone, box, shape, n_bumps, seed)
    want = point_array_bump_field(cone, box, shape, n_bumps, seed)
    assert (got.box, got.shape) == (want.box, want.shape)
    for a, b in [(got.values, want.values),
                 (got.cell_measures, want.cell_measures),
                 (got.gradient_magnitude, want.gradient_magnitude)]:
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_bump_field_takes_integral_shapes(halfplane):
    a = bump_superposition_field(halfplane, BOX, (16.0, 20), 2, seed=5)
    b = bump_superposition_field(halfplane, BOX, (16, 20), 2, seed=5)
    assert a.shape == (16, 20) and type(a.shape[0]) is int
    assert np.array_equal(a.values, b.values)


def test_bump_field_validation(halfplane):
    with pytest.raises(ValidationError):
        bump_superposition_field(halfplane, BOX, (16, 16), 0, seed=0)
