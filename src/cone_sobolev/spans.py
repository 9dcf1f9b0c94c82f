"""The span engine: norms of shell-span directions, many at a time.

A direction alpha of an m-shell system spans two piece lists in the
measure coordinate t:

* sum alpha_j u_j.  Inside shell j's annulus every earlier shell is flat,
  so there it is shell j's profile scaled by alpha_j and lifted by the
  constant sum_{i<j} alpha_i max u_i; on (0, delta_{k+1}) it is the lift
  of all k = len(alpha) shells.
* sum |alpha_j| psi_j, with psi_j shell j's gradient density.

Every direction has the same pieces in t; only each law's coefficient and
shift move with alpha.  So the pieces are tabulated once per system
(``SpanTables``), with everything alpha does not move, and ``span_norms``
turns a batch of directions into the strata of their level sets as
arrays: no ``Piece``, ``Law``, ``Stratum`` or ``LevelSet`` per direction.
The strata of each pass of directions go in one call to
``segments.level_set_qth_powers``, which also serves
``LevelSet.lorentz_qth_power``.  Every step is per direction, and each
direction's parts are added by math.fsum, so a norm is bit-identical
whether its direction is evaluated alone or in any batch.

The steps are those of ``segments.abs_pieces`` (the function span only;
the gradient span is nonnegative for every alpha),
``LevelSet.from_pieces`` and ``LevelSet.lorentz_qth_power``, which stay
the reference for analytic profiles.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

from .lorentz import LorentzParams
from .profiles import gradient_density
from .segments import Law, Piece, clip_pieces, level_set_qth_powers
from .tanhsinh import Rows

if TYPE_CHECKING:
    from .bernstein import ShellSpec

__all__ = ["SpanTables", "span_norms"]

_SPAN_CHUNK = 8  # directions per engine pass; bounds its stratum arrays


class _Template(NamedTuple):
    """The n pieces of one span for alphas of one length, as arrays.

    Per piece: its alpha entry ``shell`` (the lift's is -1), (t0, t1), the
    unscaled law coef * (orient (t - base))**expo + shift, 1/expo, and the
    power max(orient (t - base), 0)**expo at both ends (w0, w1), which no
    alpha moves.  A signed span's pieces are cut in two at their sign
    roots, giving 2n halves (all first parts, then all second parts); per
    half, or per piece of an unsigned span: base, orient, expo * orient,
    1/expo and -1/expo.
    """

    signed: bool
    params: LorentzParams  # of the span's norm
    shell: np.ndarray
    t0: np.ndarray
    t1: np.ndarray
    coef: np.ndarray
    shift: np.ndarray
    expo: np.ndarray
    base: np.ndarray
    orient: np.ndarray
    inv_expo: np.ndarray
    w0: np.ndarray
    w1: np.ndarray
    base_h: np.ndarray
    orient_h: np.ndarray
    expo_orient_h: np.ndarray
    inv_h: np.ndarray
    neg_inv_h: np.ndarray

    @staticmethod
    def of(pieces: Sequence[tuple[int, Piece]], signed: bool,
           params: LorentzParams) -> "_Template":
        t0, t1, coef, shift, expo, base, orient = np.array(
            [(p.t0, p.t1, p.law.coef, p.law.shift, p.law.expo, p.law.base,
              p.law.orient) for _, p in pieces], dtype=float).reshape(-1, 7).T
        with np.errstate(divide="ignore", over="ignore"):
            inv_expo = 1.0 / expo
            w0, w1 = (np.maximum(orient * (t - base), 0.0) ** expo
                      for t in (t0, t1))
        base_h, orient_h, expo_h, inv_h = (
            np.tile(x, 2 if signed else 1)
            for x in (base, orient, expo, inv_expo))
        return _Template(signed, params,
                         np.array([j for j, _ in pieces], dtype=int),
                         t0, t1, coef, shift, expo, base, orient, inv_expo,
                         w0, w1, base_h, orient_h, expo_h * orient_h, inv_h,
                         -inv_h)


class SpanTables(NamedTuple):
    """The per-system law tables of both spans.

    Each shell's pieces (its profile clipped to its annulus; its gradient
    density) are taken once per system, and the ``_Template`` of each
    span and alpha length once, on first use.
    """

    params: LorentzParams
    function: tuple[list[Piece], ...]
    gradient: tuple[list[Piece], ...]
    heights: np.ndarray  # max u_j: the lift shell j adds to later shells
    cutoffs: tuple[float, ...]  # delta_{j+1}: where the lift of 1..j ends
    templates: dict

    @staticmethod
    def of(shells: Sequence[ShellSpec], params: LorentzParams
           ) -> "SpanTables":
        return SpanTables(
            params,
            tuple(clip_pieces(s.profile.pieces, s.cutoff_measure,
                              s.profile.t_max) for s in shells),
            tuple(list(gradient_density(s.profile).pieces) for s in shells),
            np.array([s.profile.max_value for s in shells]),
            tuple(s.cutoff_measure for s in shells), {})

    def template(self, gradient: bool, k: int) -> _Template:
        """The pieces of the first k shells.  The function span is signed
        and ends with the lift of all k shells, a constant on (0,
        delta_{k+1}); the gradient span is nonnegative for every alpha."""
        if (gradient, k) not in self.templates:
            per_shell = self.gradient if gradient else self.function
            pieces = [(j, pc) for j in range(k) for pc in per_shell[j]]
            if not gradient:
                pieces.append((-1, Piece(0.0, self.cutoffs[k - 1],
                                         Law.constant(0.0))))
            self.templates[gradient, k] = _Template.of(
                pieces, not gradient,
                self.params if gradient else self.params.star_params())
        return self.templates[gradient, k]


def _signed_halves(tpl: _Template, coef, shift, v0, v1, keep, varying):
    """|f| on the halves of each piece: (t0, root) and (root, t1) with the
    law's root in closed form, as ``abs_pieces`` takes it (the second half
    is empty without a root inside), each flipped where negative.  The
    law is 0 at its root, and monotone, so a half's sign is that of the
    sum of its end values.  Returns the end values, coef, shift, (t0, t1),
    keep and varying per half."""
    n = coef.shape[1]
    ratio = -shift / coef
    root = tpl.base + tpl.orient * ratio ** tpl.inv_expo
    split = varying & (ratio > 0.0) & (tpl.t0 < root) & (root < tpl.t1)
    cut = np.where(split, root, tpl.t1)
    v_cut = np.where(split, 0.0, v1)
    lo_t, hi_t = np.concatenate((cut, cut), axis=1), np.concatenate(
        (cut, cut), axis=1)
    lo_t[:, :n], hi_t[:, n:] = tpl.t0, tpl.t1
    va = np.concatenate((v0, v_cut), axis=1)
    vb = np.concatenate((v_cut, v1), axis=1)
    sign = np.where(va + vb < 0.0, -1.0, 1.0)
    return (va * sign, vb * sign, np.concatenate((coef, coef), axis=1) * sign,
            np.concatenate((shift, shift), axis=1) * sign, lo_t, hi_t,
            np.concatenate((keep, split), axis=1),
            np.concatenate((varying, split), axis=1))


def _span_qth_powers(tpl: _Template, coef: np.ndarray, shift: np.ndarray
                     ) -> list[float]:
    """p * integral lam^(q-1) m(lam)^(q/p) of |f| for a batch of piece lists.

    Row d of ``coef`` and ``shift`` gives f_d the template's pieces with
    the laws coef * (orient (t - base))**expo + shift.  The steps are those
    of ``abs_pieces`` (signed spans only, ``_signed_halves``),
    ``LevelSet.from_pieces`` and ``LevelSet.lorentz_qth_power``, on arrays:

    * strata lie between consecutive value-range ends of the pieces; on
      each, a piece is above the level (its length counts), straddles it
      (its inverse law is a term, with a constant) or lies below it;
      terms are not merged by law, so m is the same sum, term by term;
    * a stratum's constant is the math.fsum of its pieces' contributions,
      so survivors far below transients keep every digit;
    * the strata of all directions go to ``level_set_qth_powers`` in
      one call, which adds each direction's parts by math.fsum, so no
      value depends on the other directions.
    """
    p, q = tpl.params.p, tpl.params.q
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        flat = coef == 0.0
        va = np.where(flat, shift, coef * tpl.w0 + shift)
        vb = np.where(flat, shift, coef * tpl.w1 + shift)
        varying = ~flat & (tpl.expo != 0.0)
        keep = varying | (va != 0.0)  # a zero constant has no level set
        lo_t, hi_t = tpl.t0, tpl.t1
        if tpl.signed:
            va, vb, coef, shift, lo_t, hi_t, keep, varying = _signed_halves(
                tpl, coef, shift, va, vb, keep, varying)
        lo = np.maximum(np.minimum(va, vb), 0.0) + 0.0
        hi = np.maximum(va, vb)
        # the inverse law of each piece, and the constant that comes with
        # it: the piece is (t0, inverse) while falling, (inverse, t1) else
        inv_coef = tpl.orient_h * np.abs(coef) ** tpl.neg_inv_h
        falling = np.signbit(coef * tpl.expo_orient_h)
    cuts = np.sort(np.concatenate((
        np.zeros((len(lo), 1)), np.where(keep, lo, np.nan),
        np.where(keep, hi, np.nan)), axis=1), axis=1)
    level, k = np.nonzero(cuts[:, :-1] < cuts[:, 1:])
    lam0, lam1 = cuts[level, k], cuts[level, k + 1]
    lo_r = lo[level]
    above = keep[level] & (lo_r >= lam1[:, None])
    strad = varying[level] & (lo_r <= lam0[:, None]) & (
        hi[level] > lam0[:, None])
    inside = above | strad
    length = hi_t - lo_t
    contrib = np.where(above, length[level] if tpl.signed else length,
                       np.where(falling, tpl.base_h - lo_t,
                                hi_t - tpl.base_h)[level])[inside].tolist()
    const = []
    i = 0
    for count in np.count_nonzero(inside, axis=1).tolist():
        const.append(math.fsum(contrib[i:i + count]))
        i += count
    const = np.array(const)
    term_row, piece = np.nonzero(strad)
    term_level = level[term_row]
    terms = (np.where(falling, inv_coef, -inv_coef)[term_level, piece],
             tpl.inv_h[piece], shift[term_level, piece],
             np.where(coef > 0.0, 1.0, -1.0)[term_level, piece])
    counts = np.count_nonzero(strad, axis=1)
    ruled, flat = counts > 0, counts == 0
    # dropping the strata without terms leaves the term arrays as they are
    return level_set_qth_powers(
        Rows(lam0[ruled], lam1[ruled], const[ruled], counts[ruled], *terms),
        level[ruled], zip(level[flat].tolist(), lam0[flat].tolist(),
                          lam1[flat].tolist(), const[flat].tolist()),
        len(lo), p, q)


def span_norms(tables: SpanTables, alphas: np.ndarray,
               gradient: bool) -> list[float]:
    """The span norm of each row of ``alphas`` (1 to m columns): the
    gradient span's L^{p,q} norm, or the function span's L^{p*,q} norm.

    Rows go through the engine _SPAN_CHUNK at a time, which keeps its
    stratum arrays and the rule's near the size of one level set's; no
    norm depends on how the rows are split.
    """
    k = alphas.shape[1]
    tpl = tables.template(gradient, k)
    powers: list[float] = []
    for i in range(0, len(alphas), _SPAN_CHUNK):
        a = alphas[i:i + _SPAN_CHUNK]
        if gradient:
            scale = np.abs(a)[:, tpl.shell]
            coef, shift = scale * tpl.coef, scale * tpl.shift
        else:
            lifts = np.cumsum(a * tables.heights[:k], axis=1)
            below = np.concatenate((np.zeros((len(a), 1)), lifts[:, :-1]),
                                   axis=1)
            coef = a[:, tpl.shell] * tpl.coef
            shift = a[:, tpl.shell] * tpl.shift + below[:, tpl.shell]
            coef[:, -1], shift[:, -1] = lifts[:, -1], 0.0
        powers += (_span_qth_powers(tpl, coef, shift)
                   if len(tpl.t0) else [0.0] * len(a))
    return [power ** (1.0 / tpl.params.q) for power in powers]
