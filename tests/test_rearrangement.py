"""Rearrangement operators: steps, sampled fields, radial interpolants."""

import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cone_sobolev.lorentz as lorentz
import cone_sobolev.segments as segments
from cone_sobolev import (DomainError, LorentzParams, SampledField,
                          StepFunction1D, ValidationError, WeightedCone,
                          builtin_cone, bump_superposition_field,
                          distribution_function, polya_szego_check,
                          radial_rearrangement, rearrangement)
from cone_sobolev.rearrangement import _canonical_step, _pooled_knots

BOX = ((-1.2, 1.2), (-1.2, 1.2))


def steps(max_size=10):
    return st.lists(
        st.tuples(st.floats(min_value=0.01, max_value=5.0),
                  st.floats(min_value=0.0, max_value=3.0)),
        min_size=1, max_size=max_size)


def build_step(cells):
    bps, t = [], 0.0
    for width, _ in cells:
        t += width
        bps.append(t)
    return StepFunction1D(tuple(bps), tuple(v for _, v in cells))


def step_inner(f, g):
    # integral of f*g over (0, inf) via merged plateau edges
    edges = sorted(set(f.breakpoints) | set(g.breakpoints))
    total, prev = 0.0, 0.0
    for e in edges:
        mid = 0.5 * (prev + e)
        total += float(f.value(mid)) * float(g.value(mid)) * (e - prev)
        prev = e
    return total


def bump_field(center, grid=48):
    def fn(pts):
        r2 = np.sum((pts - np.asarray(center)) ** 2, axis=1) / 0.25
        out = np.zeros(len(pts))
        inside = r2 < 1
        out[inside] = np.exp(-1.0 / (1.0 - r2[inside]))
        return out
    return SampledField.from_function(
        builtin_cone("disc-unweighted"), BOX, (grid, grid), fn)


# -- step functions ------------------------------------------------------------

@pytest.mark.parametrize("bps, vals", [
    ((1.0,), (1.0, 2.0)),
    ((1.0, 1.0), (1.0, 2.0)),
    ((2.0, 1.0), (1.0, 2.0)),
    ((0.0,), (1.0,)),
    ((-1.0,), (1.0,)),
    ((1.0,), (-0.5,)),
    ((1.0,), (math.inf,)),
])
def test_step_validation(bps, vals):
    with pytest.raises(ValidationError):
        StepFunction1D(bps, vals)


def test_step_evaluation():
    f = StepFunction1D((1.0, 3.0), (2.0, 0.5))
    assert f.value(0.5) == 2.0
    assert f.value(2.0) == 0.5
    assert f.value(4.0) == 0.0
    assert f.value(0.0) == 0.0
    assert f.support_end == 3.0
    assert [p.value(p.t0 + 0.1) for p in f.as_pieces()] == [2.0, 0.5]


def test_step_distribution_exact():
    f = StepFunction1D((1.0, 3.0, 4.5), (2.0, 0.5, 1.0))
    assert f.distribution_function(0.75) == pytest.approx(2.5, abs=0)
    assert f.distribution_function(1.5) == 1.0
    assert f.distribution_function(2.5) == 0.0
    with pytest.raises(DomainError):
        f.distribution_function(0.0)


def test_rearrangement_merges_and_drops_zeros():
    f = StepFunction1D((1.0, 2.0, 3.0, 4.0), (1.0, 0.0, 1.0, 2.0))
    r = rearrangement(f)
    assert r.breakpoints == (1.0, 3.0)
    assert r.values == (2.0, 1.0)


@given(cells=steps())
def test_rearrangement_idempotent_exactly(cells):
    r = rearrangement(build_step(cells))
    assert rearrangement(r) == r
    assert all(a > b for a, b in zip(r.values, r.values[1:]))


@given(cells=steps())
def test_rearrangement_equimeasurable(cells):
    f = build_step(cells)
    r = rearrangement(f)
    for _, v in cells:
        for tau in (0.5 * v, v, 1.0000001 * v + 1e-9):
            if tau <= 0:
                continue
            assert r.distribution_function(tau) == pytest.approx(
                f.distribution_function(tau), rel=1e-12, abs=1e-12)


@given(fc=steps(6), gc=steps(6))
@settings(deadline=None)
def test_hardy_littlewood_inequality(fc, gc):
    f, g = build_step(fc), build_step(gc)
    lhs = step_inner(f, g)
    rhs = step_inner(rearrangement(f), rearrangement(g))
    assert lhs <= rhs * (1.0 + 1e-12) + 1e-12


def test_dispatcher_rejects_other_types():
    with pytest.raises(ValidationError):
        distribution_function([1.0, 2.0], 0.5)
    with pytest.raises(ValidationError):
        rearrangement(np.array([1.0]))


# -- sampled fields ------------------------------------------------------------

def test_cell_measures_match_monomial_integrals(halfplane):
    f = SampledField.from_function(
        halfplane, [(0.0, 2.0), (-1.0, 1.0)], (4, 3), lambda p: p[:, 0])
    # integral of x1 over the box: 2 * 2
    assert f.total_measure() == pytest.approx(4.0, rel=1e-13)
    square = WeightedCone.create(2, [(0, 2.0)])
    g = SampledField.from_function(
        square, [(0.0, 1.0), (0.0, 1.0)], (5, 2), lambda p: p[:, 0])
    assert g.total_measure() == pytest.approx(1.0 / 3.0, rel=1e-13)
    frac = WeightedCone.create(2, [(0, 0.5)])
    h = SampledField.from_function(
        frac, [(0.0, 1.0), (0.0, 1.0)], (16, 2), lambda p: p[:, 0])
    assert h.total_measure() == pytest.approx(2.0 / 3.0, rel=1e-14)


@pytest.mark.parametrize("power", [0.3, 0.5, 2.5])
def test_cell_measures_match_40_digit_integrals(power):
    # 8 cells on [0, 1] along the weighted axis, the wall cell (0, 1/8)
    # included, times 3 cells on [0, 3]: every edge is exact
    cone = WeightedCone.create(2, [(0, power)])
    f = SampledField.from_function(
        cone, [(0.0, 1.0), (0.0, 3.0)], (8, 3), lambda p: p[:, 0])
    with mpmath.workdps(40):
        a1 = mpmath.mpf(power) + 1
        for i in range(8):
            lo, hi = mpmath.mpf(i) / 8, mpmath.mpf(i + 1) / 8
            want = (hi ** a1 - lo ** a1) / a1
            for j in range(3):
                got = f.cell_measures[i, j]
                assert abs(got - want) <= 1e-15 * want, (i, j)


def test_csv_coordinates_are_the_sampled_points():
    cone = builtin_cone("quadrant-x1x2")
    sampled = []

    def fn(p):
        sampled.append(p.copy())
        return p[:, 0] * p[:, 1]

    f = SampledField.from_function(cone, [(0.0, 3.0), (0.0, 3.0)],
                                   (97, 97), fn)
    rows = f.to_csv().splitlines()[2:]
    written = np.array([[float(x) for x in row.split(",")[:-1]]
                        for row in rows])
    assert written.shape == sampled[0].shape
    assert np.array_equal(written, sampled[0])


def test_from_function_validation(halfplane):
    with pytest.raises(ValidationError):
        SampledField.from_function(
            halfplane, [(-0.5, 1.0), (0.0, 1.0)], (4, 4), lambda p: p[:, 0])
    with pytest.raises(ValidationError):
        SampledField.from_function(
            halfplane, [(0.0, 1.0), (0.0, 1.0)], (1, 4), lambda p: p[:, 0])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_fields_reject_non_finite_cells(halfplane, bad):
    box = [(0.0, 1.0), (0.0, 1.0)]

    def fn(p):
        out = p[:, 0] + p[:, 1]
        out[5] = bad
        return out

    with pytest.raises(ValidationError):
        SampledField.from_function(halfplane, box, (4, 4), fn)
    good = SampledField.from_function(halfplane, box, (4, 4),
                                      lambda p: p[:, 0] + p[:, 1])
    values = good.values.copy()
    values[1, 2] = bad
    with pytest.raises(ValidationError):
        dataclasses.replace(good, values=values)
    measures = good.cell_measures.copy()
    measures[2, 1] = math.nan
    with pytest.raises(ValidationError):
        dataclasses.replace(good, cell_measures=measures)
    text = good.to_csv().splitlines()
    text[3] = text[3].rsplit(",", 1)[0] + f",{bad!r}"
    with pytest.raises(ValidationError):
        SampledField.from_csv("\n".join(text))


def test_affine_field_has_exact_gradient(halfplane):
    f = SampledField.from_function(
        halfplane, [(0.0, 1.0), (0.0, 1.0)], (6, 7),
        lambda p: 3.0 * p[:, 0] - p[:, 1] + 2.0)
    r = rearrangement(f, use_gradient=True)
    # one plateau up to roundoff in the finite differences
    assert np.allclose(r.values, math.sqrt(10.0), rtol=1e-13)
    assert r.breakpoints[-1] == pytest.approx(f.total_measure(), rel=1e-14)


def test_rearrangement_ignores_cell_layout(disc):
    rng = np.random.default_rng(3)
    vals = rng.random((6, 5))
    meas = rng.random((6, 5)) + 0.1
    zero = np.zeros((6, 5))
    perm = rng.permutation(vals.size)
    a = SampledField(disc, ((0.0, 1.0), (0.0, 1.0)), (6, 5),
                     vals, meas, zero)
    b = SampledField(disc, ((0.0, 1.0), (0.0, 1.0)), (6, 5),
                     vals.ravel()[perm].reshape(6, 5),
                     meas.ravel()[perm].reshape(6, 5), zero)
    assert rearrangement(a) == rearrangement(b)


def test_rearrangement_translation_invariant():
    h = 2.4 / 48
    f0 = bump_field((0.0, 0.0))
    f1 = bump_field((3.0 * h, -2.0 * h))
    assert f0.total_measure() == f1.total_measure()
    for tau in (0.02, 0.05, 0.1, 0.2, 0.3):
        assert f1.distribution_function(tau) == pytest.approx(
            f0.distribution_function(tau), rel=1e-12)


def test_field_csv_roundtrip():
    f = bump_field((0.1, -0.3), grid=12)
    clone = SampledField.from_csv(f.to_csv())
    assert np.array_equal(clone.values, f.values)
    assert np.allclose(clone.cell_measures, f.cell_measures, rtol=1e-15)
    assert rearrangement(clone) == rearrangement(f)
    assert clone.cone.c_d == pytest.approx(math.pi, rel=1e-12)


@pytest.mark.parametrize("mangle", [
    lambda text: text.splitlines()[1] + "\n" + text,       # no metadata line
    lambda text: text.replace('"shape": [12, 12]', '"shape": [12, 13]'),
    lambda text: "\n".join(text.splitlines()[:-3]),        # truncated rows
])
def test_field_csv_rejects_malformed(mangle):
    text = bump_field((0.0, 0.0), grid=12).to_csv()
    with pytest.raises(ValidationError):
        SampledField.from_csv(mangle(text))


# -- radial rearrangement -------------------------------------------------------

def test_radial_rearrangement_recovers_radial_cone(disc):
    def fn(pts):
        return np.maximum(0.0, 1.0 - np.sqrt(np.sum(pts * pts, axis=1)))
    f = SampledField.from_function(disc, BOX, (64, 64), fn)
    prof = radial_rearrangement(f)
    for r in (0.2, 0.5, 0.8):
        assert prof.radial_value(r) == pytest.approx(1.0 - r, abs=5e-3)
    step = rearrangement(f)
    assert prof.t_max == pytest.approx(step.support_end, rel=1e-12)
    # interpolation preserves mass at the grid scale
    edges = np.concatenate(([0.0], step.breakpoints))
    mass_step = float(np.sum(np.diff(edges) * np.asarray(step.values)))
    ts = np.linspace(1e-9, prof.t_max, 20001)
    mass_prof = float(np.trapezoid(np.asarray(prof.value(ts)), ts))
    assert mass_prof == pytest.approx(mass_step, rel=1e-2)


def test_radial_rearrangement_of_zero_field(disc):
    f = SampledField.from_function(disc, BOX, (8, 8),
                                   lambda p: np.zeros(len(p)))
    prof = radial_rearrangement(f)
    assert float(prof.value(0.5)) == 0.0
    assert rearrangement(f).breakpoints == ()


# -- the array path: reference loops and structure --------------------------------

def reference_canonical_step(measures, values):
    """The cell-by-cell loop the array code must reproduce bit for bit."""
    order = np.argsort(-values, kind="stable")
    breakpoints, step_values = [], []
    t = 0.0
    for idx in order:
        v, m = float(values[idx]), float(measures[idx])
        if v <= 0.0 or m <= 0.0:
            continue
        t += m
        if step_values and step_values[-1] == v:
            breakpoints[-1] = t
        else:
            breakpoints.append(t)
            step_values.append(v)
    return StepFunction1D(tuple(breakpoints), tuple(step_values))


def reference_pooled_knots(step, ring, expo):
    knots, prev = [], 0.0
    start, mass, moment = 0.0, 0.0, 0.0
    for b, v in zip(step.breakpoints, step.values):
        width = b - prev
        prev = b
        mass += width
        moment += width * v
        if mass >= ring * (start + 0.5 * mass) ** expo:
            knots.append((start + 0.5 * mass, moment / mass))
            start, mass, moment = start + mass, 0.0, 0.0
    if mass > 0.0:
        if knots:
            (t_last, v_last), t0 = knots[-1], start
            prev_mass = 2.0 * (t0 - t_last)
            total = prev_mass + mass
            knots[-1] = (t_last - 0.5 * prev_mass + 0.5 * total,
                         (v_last * prev_mass + moment) / total)
        else:
            knots.append((start + 0.5 * mass, moment / mass))
    return knots


# few distinct values and exact zeros, so ties, dropped cells and
# zero-measure cells all occur
CELLS = st.lists(
    st.tuples(st.one_of(st.just(0.0), st.floats(1e-3, 5.0)),
              st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0]),
                        st.floats(0.0, 3.0))),
    min_size=0, max_size=40)


@given(cells=CELLS)
def test_canonical_step_matches_cell_loop(cells):
    meas = np.array([m for m, _ in cells], dtype=float)
    vals = np.array([v for _, v in cells], dtype=float)
    got = _canonical_step(meas, vals)
    want = reference_canonical_step(meas, vals)
    assert got == want
    assert got.breakpoints == want.breakpoints
    assert got.values == want.values
    assert rearrangement(got) is got


@given(cells=CELLS.filter(lambda c: any(m > 0 and v > 0 for m, v in c)),
       ring=st.floats(0.01, 10.0), dim=st.floats(1.0, 6.0))
def test_pooled_knots_match_plateau_loop(cells, ring, dim):
    meas = np.array([m for m, _ in cells], dtype=float)
    vals = np.array([v for _, v in cells], dtype=float)
    step = _canonical_step(meas, vals)
    expo = 1.0 - 1.0 / dim
    assert _pooled_knots(step, ring, expo) == reference_pooled_knots(
        step, ring, expo)


def test_step_arrays_are_read_only():
    f = StepFunction1D([1.0, 2.0], np.array([2.0, 1.0]))
    assert f.breakpoints == (1.0, 2.0) and f.values == (2.0, 1.0)
    assert f == StepFunction1D((1.0, 2.0), (2.0, 1.0))
    assert hash(f) == hash(StepFunction1D((1.0, 2.0), (2.0, 1.0)))
    with pytest.raises(ValueError):
        f.value_array[0] = 5.0
    with pytest.raises(AttributeError):
        f.values = (1.0, 1.0)


def test_polya_szego_avoids_per_cell_objects(halfplane, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("per-cell scalar path used")

    monkeypatch.setattr(StepFunction1D, "as_pieces", forbidden)
    monkeypatch.setattr(segments, "moment_integral", forbidden)
    monkeypatch.setattr(lorentz, "moment_integral", forbidden)
    field = bump_superposition_field(
        halfplane, [(0.0, 3.0), (-1.5, 1.5)], (256, 256), 3, seed=0)
    lhs, rhs, ok = polya_szego_check(field, LorentzParams(2.0, 1.0))
    assert ok and 0.0 < lhs <= rhs
