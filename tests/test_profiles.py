"""Radial profiles: construction, gradient densities, scaling, files."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cone_sobolev import (DomainError, RadialProfile, ValidationError,
                          alvino_profile, from_knots, gradient_density,
                          scale)
from cone_sobolev.segments import Law, Piece


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
        RadialProfile(halfplane, (Piece(0.5, 1.0, Law.constant(0.0)),))
    with pytest.raises(ValidationError):
        RadialProfile(halfplane, (Piece(0.0, 1.0, Law(1.0, 1.0)),))


def test_alvino_profile_structure(halfplane):
    prof = alvino_profile(halfplane, 1.5, 0.5, 8.0)
    head, arc = prof.pieces
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
    assert len(psi.pieces) == 1
    piece = psi.pieces[0]
    assert (piece.t0, piece.t1) == (1.0, 2.0)
    front = halfplane.big_d * halfplane.c_d ** (1.0 / halfplane.big_d)
    for t in (1.2, 1.7):
        assert piece.value(t) == pytest.approx(
            front * t ** (2.0 / 3.0), rel=1e-12)
    assert psi.value(0.5) == 0.0
    assert psi.value(2.5) == 0.0


def test_gradient_density_of_power_arc(halfplane):
    # phi ~ t^(-1/p*) maps to psi ~ t^(-1/p) through 1/p = 1/p* + 1/D
    p_star = 3.0
    prof = alvino_profile(halfplane, p_star, 1.0, 100.0)
    psi = gradient_density(prof)
    assert len(psi.pieces) == 1
    expo = psi.pieces[0].law.expo
    inv_p = 1.0 / p_star + 1.0 / halfplane.big_d
    assert expo == pytest.approx(-inv_p, rel=1e-12)


def test_gradient_density_refuses_unbounded_heads(halfplane):
    unbounded = RadialProfile(halfplane, (
        Piece(0.0, 1.0, Law(1.0, -1.0 / 3.0, shift=-1.0)),))
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
        assert float(psi_k.value(t)) == pytest.approx(
            kappa * float(psi.value(k * t)), rel=1e-12)


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
    assert prof.pieces == tuple(expected)
    for got, want in zip(prof.pieces, expected):
        ts = np.linspace(want.t0, want.t1, 9)[1:]
        assert np.array_equal(np.asarray(got.value(ts)),
                              np.asarray(want.law.value(ts)))
    assert prof.value(0.5) == 2.75
    assert prof.value(4.0) == pytest.approx(1.25, rel=1e-15)
    assert prof.value(16.0) == 0.0


def test_profile_json_rejects_unknown_laws(halfplane):
    data = {"segments": [{"t0": 0.0, "t1": 1.0, "law": "spline",
                          "params": [1.0]}]}
    with pytest.raises(ValidationError):
        RadialProfile.from_json_dict(data, halfplane)
