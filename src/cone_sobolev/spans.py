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
scales a batch of directions into one coef/shift row each: no ``Piece``,
``Law`` or ``LevelSet`` at all, only each shell's ``PieceTable``.  The
function span's end values are alpha_j u + lift_(j-1), from each piece's
unscaled end values u (``PieceTable.ends``, a shell's identities made
exact by ``_shell_end_values``), the same rounded expression as the
cumulative lifts: a shell's head value, the lift it carries into the next
shell and the next arc's end value are one float, so the builder merges
their cuts instead of leaving ulp-wide strata between them.  Both spans
take their sign the same way: each template holds every piece as itself
and negated, scaled by alpha_j, not |alpha_j|, and the function span's
pieces lifted by the lift times the same sign.  The builder counts a piece
only where it lies above a level lam >= 0, and |f| > lam exactly where f >
lam or -f > lam; the gradient densities are nonnegative on disjoint
annuli, so the gradient span's alpha_j psi_j and -alpha_j psi_j give sum
|alpha_j| psi_j.  No piece is cut at a root, and neither span has a path
of its own.  The strata of each pass of directions come from
``segments.level_set_strata``, the builder ``segments.table_strata`` calls
too, and go in one call to ``segments.level_set_qth_powers``.  Every step
is per direction, and each direction's parts are added by math.fsum, so a
norm is bit-identical whether its direction is evaluated alone or in any
batch.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

from .lorentz import LorentzParams
from .profiles import gradient_density
from .segments import PieceTable, level_set_qth_powers, level_set_strata

if TYPE_CHECKING:
    from .bernstein import ShellSpec

__all__ = ["SpanTables", "span_norms"]

# directions per engine pass, bounding its stratum arrays: a pass's fixed
# cost is shared by up to this many directions, and its arrays grow with it
_SPAN_CHUNK = 256


class _Template(NamedTuple):
    """The n pieces of one span for alphas of one length, each held twice.

    Entry 2i is piece i as itself and entry 2i + 1 the piece negated
    (``sign`` +1, -1), so a scaled template is f and -f side by side: the
    builder measures a piece only where it lies above a level lam >= 0,
    and |f| > lam exactly where f > lam or -f > lam.  Per entry: its
    alpha entry ``shell`` (the lift's is -1), (t0, t1), and in ``laws``
    the law's coef and shift and the end values (u0, u1), signed, that
    alpha_j scales and the lift shifts.  ``heights`` are the
    lifts the shells add to later ones: max u_j on the function span, 0
    on the gradient span.
    """

    params: LorentzParams  # of the span's norm
    heights: np.ndarray
    sign: np.ndarray
    shell: np.ndarray
    t0: np.ndarray
    t1: np.ndarray
    expo: np.ndarray
    base: np.ndarray
    orient: np.ndarray
    laws: np.ndarray

    @staticmethod
    def of(shell: np.ndarray, table: PieceTable, ends: np.ndarray,
           heights: np.ndarray, params: LorentzParams) -> "_Template":
        t0, t1, coef, shift, expo, base, orient = np.repeat(table, 2, axis=1)
        sign = np.tile([1.0, -1.0], shell.size)
        return _Template(params, heights, sign, shell.repeat(2), t0, t1,
                         expo, base, orient,
                         np.vstack(((coef, shift), np.repeat(ends, 2, axis=1)))
                         * sign)


def _shell_end_values(shell: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """The pieces' values (u0, u1) at t0+ and t1-, with a shell's
    identities exact.

    ``shell`` runs through each shell's pieces in t order.  A shell's
    first piece starts at its own value (its flat head's, the shell's max
    u), every later piece starts at the value the piece before it ends
    at, and the last one ends at 0, where the shell's support ends (the
    lift's one constant piece is 0 at both ends).  So alpha_j u + lift,
    evaluated as the cumulative lifts are, gives the head value, the lift
    carried into the next shell and the arc's end values as one float
    each.
    """
    u0, u1 = ends = ends.copy()
    same = shell[1:] == shell[:-1]
    np.copyto(u0[1:], u1[:-1], where=same)
    u1[np.append(~same, True)] = 0.0
    return ends


class SpanTables(NamedTuple):
    """The per-system piece tables of both spans.

    Each shell's pieces (its profile clipped to its annulus; its gradient
    density) are taken once per system, and the ``_Template`` of each
    span and alpha length once, on first use.
    """

    params: LorentzParams
    function: tuple[PieceTable, ...]
    gradient: tuple[PieceTable, ...]
    heights: np.ndarray  # max u_j: the lift shell j adds to later shells
    cutoffs: tuple[float, ...]  # delta_{j+1}: where the lift of 1..j ends
    templates: dict

    @staticmethod
    def of(shells: Sequence[ShellSpec], params: LorentzParams
           ) -> "SpanTables":
        return SpanTables(
            params,
            tuple(s.profile.table.clip(s.cutoff_measure, s.profile.t_max)
                  for s in shells),
            tuple(gradient_density(s.profile) for s in shells),
            np.array([s.profile.max_value for s in shells]),
            tuple(s.cutoff_measure for s in shells), {})

    def template(self, gradient: bool, k: int) -> _Template:
        """The pieces of the first k shells.  The function span ends with
        the lift of all k shells, a constant 0 row on (0, delta_{k+1}) that
        alpha lifts, and takes its end values from ``_shell_end_values``;
        the gradient span lifts nothing and takes each piece's own end
        values."""
        if (gradient, k) not in self.templates:
            tables = list((self.gradient if gradient else self.function)[:k])
            shell = np.repeat(np.arange(k), [t.t0.size for t in tables])
            if gradient:
                heights, params = np.zeros(k), self.params
            else:
                tables.append(np.array([[0.0], [self.cutoffs[k - 1]], [0.0],
                                        [0.0], [0.0], [0.0], [1.0]]))
                shell = np.append(shell, -1)
                heights, params = self.heights[:k], self.params.star_params()
            table = PieceTable(*np.concatenate(tables, axis=1))
            ends = table.ends()[0]
            self.templates[gradient, k] = _Template.of(
                shell, table, ends if gradient else _shell_end_values(
                    shell, ends), heights, params)
        return self.templates[gradient, k]


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
        # below[:, j] is the lift of the shells before j, and below[:, -1]
        # (the lift piece's) that of all k
        below = np.zeros((len(a), k + 1))
        np.add.accumulate(a * tpl.heights, axis=1, out=below[:, 1:])
        with np.errstate(over="ignore", invalid="ignore"):
            # a signed entry scales to the scaled piece negated, bit for bit
            laws = a.take(tpl.shell, axis=1)[:, None] * tpl.laws
            laws[:, 1:] += (below.take(tpl.shell, axis=1) * tpl.sign)[:, None]
        coef, shift, va, vb = laws.transpose(1, 0, 2)
        powers += level_set_qth_powers(
            level_set_strata(tpl.t0, tpl.t1, coef, shift, tpl.expo, tpl.base,
                             tpl.orient, va, vb),
            tpl.params.p, tpl.params.q)
    return [power ** (1.0 / tpl.params.q) for power in powers]
