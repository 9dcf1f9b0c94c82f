"""Rearrangement operators: steps, sampled fields, radial interpolants."""

import dataclasses
import fractions
import importlib
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cone_sobolev.lorentz as lorentz
import cone_sobolev.segments as segments
from cone_sobolev import (DomainError, LorentzParams, NumericalError,
                          SampledField, StepFunction1D, ValidationError,
                          WeightedCone, builtin_cone, bump_superposition_field,
                          from_knots, gradient_density,
                          lorentz_norm_distributional, polya_szego_check,
                          radial_rearrangement, rearrangement)
from cone_sobolev.rearrangement import (_canonical_step, _exact_sum,
                                        _gradient_magnitude, _pooled_knots)
from level_set_reference import distribution_function

# the package exports a function of the same name as the module
rearrangement_module = importlib.import_module("cone_sobolev.rearrangement")

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
    assert [p.law.value(p.t0 + 0.1) for p in f.as_pieces()] == [2.0, 0.5]


def test_step_distribution_exact():
    f = StepFunction1D((1.0, 3.0, 4.5), (2.0, 0.5, 1.0))
    assert distribution_function(f, 0.75) == pytest.approx(2.5, abs=0)
    assert distribution_function(f, 1.5) == 1.0
    assert distribution_function(f, 2.5) == 0.0
    with pytest.raises(DomainError):
        distribution_function(f, 0.0)


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
            assert distribution_function(r, tau) == pytest.approx(
                distribution_function(f, tau), rel=1e-12, abs=1e-12)


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
    assert f.cell_measures.sum() == pytest.approx(4.0, rel=1e-13)
    square = WeightedCone.create(2, [(0, 2.0)])
    g = SampledField.from_function(
        square, [(0.0, 1.0), (0.0, 1.0)], (5, 2), lambda p: p[:, 0])
    assert g.cell_measures.sum() == pytest.approx(1.0 / 3.0, rel=1e-13)
    frac = WeightedCone.create(2, [(0, 0.5)])
    h = SampledField.from_function(
        frac, [(0.0, 1.0), (0.0, 1.0)], (16, 2), lambda p: p[:, 0])
    assert h.cell_measures.sum() == pytest.approx(2.0 / 3.0, rel=1e-14)


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


def test_affine_field_has_exact_gradient(halfplane):
    f = SampledField.from_function(
        halfplane, [(0.0, 1.0), (0.0, 1.0)], (6, 7),
        lambda p: 3.0 * p[:, 0] - p[:, 1] + 2.0)
    r = rearrangement(f, use_gradient=True)
    # one plateau up to roundoff in the finite differences
    assert np.allclose(r.values, math.sqrt(10.0), rtol=1e-13)
    assert r.breakpoints[-1] == pytest.approx(f.cell_measures.sum(), rel=1e-14)


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
    assert f0.cell_measures.sum() == f1.cell_measures.sum()
    for tau in (0.02, 0.05, 0.1, 0.2, 0.3):
        assert distribution_function(f1, tau) == pytest.approx(
            distribution_function(f0, tau), rel=1e-12)


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


def stable_canonical_step(measures, values):
    """The sort as one stable argsort over every cell, the order that the
    default sort with ties put in cell-index order must reproduce."""
    order = np.argsort(-values, kind="stable")
    vals, meas = values[order], measures[order]
    keep = ~((vals <= 0.0) | (meas <= 0.0))
    vals, ends = vals[keep], np.cumsum(meas[keep])
    last = np.ones(vals.size, dtype=bool)
    last[:-1] = vals[1:] != vals[:-1]
    return StepFunction1D(ends[last], vals[last])


def assert_same_step_bits(got, want):
    assert [b.hex() for b in got.breakpoints] == \
        [b.hex() for b in want.breakpoints]
    assert [v.hex() for v in got.values] == [v.hex() for v in want.values]


@st.composite
def tied_cells(draw):
    """Cells whose values come from a pool of 3-4 floats holding 0 and a
    negative value, with some zero measures; long enough lists go past
    the insertion-sort cutoff of numpy's default sort."""
    pool = [0.0, -draw(st.floats(0.1, 3.0))] + draw(
        st.lists(st.floats(1e-3, 5.0), min_size=1, max_size=2))
    n = draw(st.integers(0, 200))
    vals = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    meas = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 5.0)),
                         min_size=n, max_size=n))
    return np.array(meas, dtype=float), np.array(vals, dtype=float)


@given(cells=tied_cells())
def test_canonical_step_keeps_the_stable_tie_order(cells):
    meas, vals = cells
    got = _canonical_step(meas, vals)
    assert_same_step_bits(got, stable_canonical_step(meas, vals))
    assert rearrangement(got) is got


def test_canonical_step_tie_order_on_many_cells():
    rng = np.random.default_rng(3)
    vals = rng.choice([0.0, -0.5, 0.25, 1.5], 20000)
    meas = rng.choice([0.0, 0.1, 0.3, 1.7, 2.9e-3], 20000)
    meas = meas * rng.uniform(0.5, 2.0, meas.size)
    assert_same_step_bits(_canonical_step(meas, vals),
                          stable_canonical_step(meas, vals))


def test_canonical_step_ties_on_a_mirror_symmetric_field(disc):
    # v + mirror(v) is exactly symmetric, and so is its central-difference
    # gradient, so every cell ties with its mirror image
    field = bump_superposition_field(disc, BOX, (40, 30), 3, seed=4)
    sym = field.values + field.values[::-1, :]
    mirrored = SampledField._on_grid(disc, field.box, field.shape, sym)
    for data in (mirrored.values, mirrored.gradient_magnitude):
        assert np.array_equal(data, data[::-1, :])
        meas, vals = mirrored.cell_measures.ravel(), np.abs(data.ravel())
        step = _canonical_step(meas, vals)
        assert step.value_array.size <= vals.size // 2
        assert_same_step_bits(step, stable_canonical_step(meas, vals))
        assert rearrangement(step) is step
    assert_same_step_bits(
        rearrangement(mirrored, use_gradient=True),
        stable_canonical_step(mirrored.cell_measures.ravel(),
                              mirrored.gradient_magnitude.ravel()))


def test_canonical_step_rejects_nan_cells():
    with pytest.raises(ValidationError):
        _canonical_step(np.ones(3), np.array([1.0, math.nan, 2.0]))
    with pytest.raises(ValidationError):
        _canonical_step(np.array([1.0, math.nan, 1.0]), np.ones(3))


@pytest.mark.parametrize("shape", [(17, 23), (6, 9, 5)])
def test_gradient_magnitude_matches_the_stacked_sum(shape):
    rng = np.random.default_rng(len(shape))
    values = rng.standard_normal(shape)
    box = tuple((-1.0, 0.5 + a) for a in range(len(shape)))
    spacings = [(hi - lo) / n for (lo, hi), n in zip(box, shape)]
    grads = np.gradient(values, *spacings, edge_order=1)
    want = np.sqrt(np.sum([g * g for g in grads], axis=0))
    got = _gradient_magnitude(values, box, shape)
    assert got.shape == shape and got.tobytes() == want.tobytes()


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


@pytest.mark.parametrize("p, q", [(2.0, 1.0), (1.5, 1.2)])
def test_polya_szego_never_reaches_the_adaptive_rule(halfplane, monkeypatch,
                                                     p, q):
    # the adaptive rule is quadratic at its split budget; grid checks
    # must stay on exact moments and the lambda route's own rule, and a
    # profile goes to the strata as one piece table, with no Piece or Law
    def forbidden(*args, **kwargs):
        raise AssertionError("adaptive quadrature used")

    def built(self):
        raise AssertionError(f"a {type(self).__name__} was built")

    field = bump_superposition_field(
        halfplane, [(0.0, 3.0), (-1.5, 1.5)], (64, 64), 3, seed=0)
    monkeypatch.setattr(segments, "integrate_adaptive", forbidden)
    monkeypatch.setattr(lorentz, "integrate_adaptive", forbidden)
    monkeypatch.setattr(segments.Piece, "__post_init__", built)
    monkeypatch.setattr(segments.Law, "__post_init__", built)
    lhs, rhs, ok = polya_szego_check(field, LorentzParams(p, q))
    assert ok and 0.0 < lhs <= rhs
    psi = gradient_density(from_knots(halfplane, [(0.4, 2.0), (1.1, 1.2),
                                                  (2.5, 0.0)]))
    assert lorentz_norm_distributional(psi, LorentzParams(p, q)) > 0.0


# -- exact step moments: the kernel against math.fsum -------------------------

def assert_fsum_bits(terms):
    terms = np.asarray(terms, dtype=float)
    assert _exact_sum(terms).hex() == math.fsum(terms.tolist()).hex()


SMALLEST_NORMAL = 2.0 ** -1022
MAX_FLOAT = 1.7976931348623157e308


@given(st.lists(st.one_of(
    st.just(0.0), st.just(5e-324),
    st.floats(0.0, SMALLEST_NORMAL, exclude_max=True),  # subnormals
    st.floats(0.0, 1e300)), max_size=60))
def test_exact_sum_matches_fsum_with_zeros_and_subnormals(terms):
    assert_fsum_bits(terms)


@given(st.lists(st.tuples(st.floats(1.0, 10.0, exclude_max=True),
                          st.integers(-300, 299)), min_size=1, max_size=60))
def test_exact_sum_matches_fsum_across_600_decades(pairs):
    assert_fsum_bits([m * 10.0 ** k for m, k in pairs])


@pytest.mark.parametrize("terms", [
    [],
    [0.0],
    [5e-324],
    [2.5],
    [1.0, 2.0 ** -53],                  # a tie, to even: 1
    [1.0, 2.0 ** -53, 5e-324],          # just above the tie: up
    [1.0 + 2.0 ** -52, 2.0 ** -53],     # a tie, to even: up
    [SMALLEST_NORMAL, -5e-324, 5e-324, 3 * 5e-324],
    [1e300, 1e-300, 1e300, -1e300],
    [1e308, 7.976931348623157e307, 1e-300],         # near overflow
    [8.98846567431158e307, 8.98846567431157e307, 2.0 ** 969],
    [MAX_FLOAT, 2.0 ** 970 - 2.0 ** 918],   # just below the halfway
    [0.1] * 10 + [1e16, -1e16],
    list(np.geomspace(1e-300, 1e300, 4001)),
])
def test_exact_sum_matches_fsum_on_hard_cases(terms):
    assert_fsum_bits(terms)


@pytest.mark.parametrize("terms", [
    [MAX_FLOAT, 1e292, -1e292],
    [MAX_FLOAT, MAX_FLOAT, -MAX_FLOAT, 5e-324],
])
def test_exact_sum_near_overflow_where_fsum_overflows(terms):
    # fsum's float partials overflow here, so the exact rational sum,
    # rounded once, is the oracle
    with pytest.raises(OverflowError):
        math.fsum(terms)
    want = float(sum(map(fractions.Fraction, terms)))
    assert _exact_sum(np.array(terms)).hex() == want.hex() == MAX_FLOAT.hex()


def test_exact_sum_matches_fsum_on_a_grid_moment(halfplane):
    field = bump_superposition_field(
        halfplane, [(0.0, 3.0), (-1.5, 1.5)], (160, 160), 3, seed=7)
    step = rearrangement(field, use_gradient=True)
    assert step.value_array.size == 25600
    for gamma, q in [(0.5, 1.0), (0.75, 1.5), (1.0 / 3.0, 2.2)]:
        prim = segments.power_primitives(*step.plateaus(), gamma)
        terms = step.value_array ** q * prim
        assert_fsum_bits(terms)
        assert step.moment(gamma, q).hex() == \
            math.fsum(terms.tolist()).hex()


def test_exact_sum_passes_keep_buckets_exact(monkeypatch):
    # whole parts below 2^27, so a pass of _SUM_CHUNK terms stays below
    # 2^53; with 5-term passes, terms whose 53 mantissa bits are all set
    # bring every bucket to that pass's bound
    assert rearrangement_module._SUM_CHUNK * 2 ** 27 <= 2 ** 53
    monkeypatch.setattr(rearrangement_module, "_SUM_CHUNK", 5)
    full = (2.0 ** 53 - 1.0) * 2.0 ** -53
    for terms in ([full] * 23,
                  [math.ldexp(full, k % 7) for k in range(41)],
                  [math.ldexp(full, -1040 - k % 40) for k in range(33)],
                  list(np.geomspace(1e-30, 1e30, 101))):
        assert_fsum_bits(terms)


@pytest.mark.parametrize("terms", [
    [1.0, math.inf], [math.nan, 2.0], [math.inf, math.nan],
    [MAX_FLOAT, MAX_FLOAT],
    [MAX_FLOAT, 1e292],                 # rounds up past the largest float
    [MAX_FLOAT, 2.0 ** 970],            # the halfway: to even, past it
])
def test_exact_sum_raises_on_non_finite_totals(terms):
    with pytest.raises(NumericalError, match="overflows"):
        _exact_sum(np.array(terms))


@pytest.mark.parametrize("bps, vals, gamma, q", [
    ([1.0, 2.0], [1e300, 1e300], 1.0, 2.0),         # inf terms
    ([1.0, 2.0], [1.7e308, 1.7e308], 1.0, 1.0),     # finite terms
])
def test_step_moment_overflow_raises(bps, vals, gamma, q):
    with pytest.raises(NumericalError, match="overflows"):
        StepFunction1D(bps, vals).moment(gamma, q)


# -- pooled knots against the two-cumsum loop ---------------------------------

def two_cumsum_pooled_knots(step, ring, expo):
    """The windowed loop with one cumsum for the masses and one for the
    moments per group, whose floats the one-accumulate loop must give."""
    widths, vals = step.widths(), step.value_array
    n = widths.size
    knots = []
    start, lo, window = 0.0, 0, 16
    while lo < n:
        hi = min(n, lo + window)
        mass = np.cumsum(widths[lo:hi])
        closes = mass >= ring * (start + 0.5 * mass) ** expo
        closed = bool(closes.any())
        if not closed and hi < n:
            window *= 2
            continue
        end = int(np.argmax(closes)) + 1 if closed else hi - lo
        m = float(mass[end - 1])
        moment = float(np.cumsum(widths[lo:lo + end]
                                 * vals[lo:lo + end])[-1])
        if closed or not knots:
            knots.append((start + 0.5 * m, moment / m))
        else:
            t_last, v_last = knots[-1]
            prev_mass = 2.0 * (start - t_last)
            total = prev_mass + m
            knots[-1] = (t_last - 0.5 * prev_mass + 0.5 * total,
                         (v_last * prev_mass + moment) / total)
        start += m
        lo += end
        window = 2 * end
    return knots


def knot_bits(knots):
    return [(t.hex(), v.hex()) for t, v in knots]


def group_sizes(step, ring, expo):
    """Plateaus per closed group, and whether a remainder is folded."""
    sizes, start, mass, count = [], 0.0, 0.0, 0
    prev = 0.0
    for b in step.breakpoints:
        mass += b - prev
        prev, count = b, count + 1
        if mass >= ring * (start + 0.5 * mass) ** expo:
            sizes.append(count)
            start, mass, count = start + mass, 0.0, 0
    return sizes, count > 0


@st.composite
def long_steps(draw):
    """Steps of up to 400 plateaus with rings that make groups of tens to
    hundreds of plateaus (so windows double) and often leave a remainder."""
    n = draw(st.integers(1, 400))
    widths = draw(st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n))
    vals = sorted(set(draw(st.lists(st.floats(1e-3, 10.0), min_size=n,
                                    max_size=n))), reverse=True)
    widths = widths[:len(vals)]
    return StepFunction1D(np.cumsum(widths), vals)


@settings(max_examples=150, deadline=None)
@given(step=long_steps(), ring=st.floats(0.05, 200.0),
       dim=st.floats(1.0, 6.0))
def test_pooled_knots_match_the_two_cumsum_loop(step, ring, dim):
    expo = 1.0 - 1.0 / dim
    assert knot_bits(_pooled_knots(step, ring, expo)) == knot_bits(
        two_cumsum_pooled_knots(step, ring, expo))


def test_pooled_knots_double_windows_and_fold_remainders():
    # 600 unit plateaus: groups of hundreds at this ring, so the first
    # windows double, and the last 600 - 494 plateaus do not close
    step = StepFunction1D(np.arange(1.0, 601.0), np.linspace(9.0, 1.0, 600))
    ring, expo = 28.0, 0.5
    sizes, folded = group_sizes(step, ring, expo)
    assert sizes[0] > 16 and folded
    got = _pooled_knots(step, ring, expo)
    assert len(got) == len(sizes)
    assert knot_bits(got) == knot_bits(
        two_cumsum_pooled_knots(step, ring, expo))
    assert knot_bits(got) == knot_bits(reference_pooled_knots(step, ring,
                                                              expo))


FOUR_CONES = [
    ("halfplane-x1", [(0.0, 3.0), (-1.5, 1.5)], (96, 80)),
    ("quadrant-x1x2", [(0.0, 2.0), (0.0, 3.0)], (64, 72)),
    ("disc-unweighted", [(-1.5, 1.5)] * 2, (90, 90)),
    ("halfspace3-x1", [(0.0, 3.0), (-1.5, 1.5), (-1.5, 1.5)], (18, 20, 16)),
]


@pytest.mark.parametrize("name, box, shape", FOUR_CONES)
@pytest.mark.parametrize("n_bumps, seed", [(1, 2), (3, 7), (4, 11)])
def test_grid_steps_and_knots_match_the_previous_path(name, box, shape,
                                                      n_bumps, seed):
    cone = (WeightedCone.create(3, [(0, 1.0)], False)
            if name == "halfspace3-x1" else builtin_cone(name))
    field = bump_superposition_field(cone, box, shape, n_bumps, seed)
    meas = field.cell_measures.ravel()
    for use_gradient in (False, True):
        data = field.gradient_magnitude if use_gradient else field.values
        step = rearrangement(field, use_gradient=use_gradient)
        assert_same_step_bits(step, stable_canonical_step(
            meas, np.abs(data.ravel())))
        assert rearrangement(step) is step
    ring = cone.big_d * cone.c_d ** (1.0 / cone.big_d) \
        * field.max_cell_diameter
    expo = 1.0 - 1.0 / cone.big_d
    step = rearrangement(field)
    assert knot_bits(_pooled_knots(step, ring, expo)) == knot_bits(
        two_cumsum_pooled_knots(step, ring, expo))


# -- steps own their arrays ---------------------------------------------------

@pytest.mark.parametrize("kind", [list, tuple, np.array])
def test_step_copies_caller_data(kind):
    bps, vals = kind([1.0, 2.5, 4.0]), kind([3.0, 2.0, 0.5])
    f = StepFunction1D(bps, vals)
    for given_data, kept in ((bps, f.breakpoint_array),
                             (vals, f.value_array)):
        assert not kept.flags.writeable
        if isinstance(given_data, np.ndarray):
            assert given_data.flags.writeable
            assert not np.shares_memory(given_data, kept)
    if kind is not tuple:
        bps[0], vals[0] = 0.5, 9.0      # the caller's data stays its own
    assert f.breakpoints == (1.0, 2.5, 4.0) and f.values == (3.0, 2.0, 0.5)


def test_canonical_step_hands_over_its_arrays(monkeypatch):
    def copying_constructor(*args, **kwargs):
        raise AssertionError("the sorted arrays were copied")

    meas = np.array([1.0, 2.0, 0.5, 3.0])
    vals = np.array([2.0, 1.0, 2.0, 0.0])
    monkeypatch.setattr(StepFunction1D, "__init__", copying_constructor)
    step = _canonical_step(meas, vals)
    assert step.breakpoints == (1.5, 3.5) and step.values == (2.0, 1.0)
    for kept in (step.breakpoint_array, step.value_array):
        assert kept.flags.owndata and not kept.flags.writeable
        assert not np.shares_memory(kept, meas)
        assert not np.shares_memory(kept, vals)
    assert meas.flags.writeable and vals.flags.writeable


def test_canonical_step_keeps_the_step_validation():
    with pytest.raises(ValidationError, match="finite and >= 0"):
        _canonical_step(np.ones(2), np.array([1.0, math.inf]))
    with pytest.raises(ValidationError, match="increasing"):
        _canonical_step(np.array([1.0, math.inf]), np.ones(2))
