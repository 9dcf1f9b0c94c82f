"""Batched tanh-sinh integration of level-set strata: the lambda route's rule.

The lambda route of the Lorentz norm integrates lam^(q-1) m(lam)^(q/p)
over the strata of a level set (built by ``segments.level_set_strata``),
on each of which the distribution function is

    m(lam) = const + sum of coef * (orient * (lam - base))**expo.

Every finite stratum with terms is integrated here by one tanh-sinh
(double-exponential) rule, x = tanh(pi/2 sinh t) on the grid t = j h,
h = 2^-level (Takahasi & Mori 1974; Bailey, Jeyabalan & Li 2005).  The
integrand is analytic inside a stratum and only algebraically singular
where a term's argument vanishes, which the rule's double-exponential
clustering at the ends absorbs.  Strata are rows of one struct-of-arrays
table (``Rows``), evaluated together; nodes are measured from the nearer
panel end, so a term whose base sits at or near that end keeps its
distance instead of losing it to rounding.

``row_integrals`` is the one entry, called through
``segments.level_set_qth_powers`` with the strata of a batch of piece
tables (``segments.table_strata``) or of spans (``spans``), each row's
level set in ``owner``; ``segments.level_set_strata`` builds them as this
table.  A row's value and bound depend on that row alone, so they are
bit-identical however the rows are batched (a one-term table too:
``array_power``); only the sliver check reads a whole level set.  One call
tests slivers, grading and singular ends on the (terms, 2) end arguments
and evaluates levels 2 to 4 in one pass over terms x nodes, under one
``np.errstate``, so its cost is a fixed count of array operations plus
work linear in terms x nodes.

The module shares no code with the t route's adaptive Gauss-Kronrod rule
in ``quadrature``, so the agreement of the two routes checks two
independent integrators.  It meets the same fixed relative tolerance of
1e-12 with an error bound per stratum, or raises NumericalError.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple

import numpy as np

from .errors import DivergentIntegralError, NumericalError

__all__ = ["Rows", "array_power", "row_integrals"]

# relative tolerance of every stratum integral (a fixed accuracy contract,
# not a setting; the t route states the same contract for its moments)
_REL_TOL = 1e-12

_TS_FIRST = 4     # first level evaluated; levels 2 and 3 are its subsets
_TS_LAST = 7      # a row still above its bound at this level raises
_TS_SPAN = 3.25   # |t| reach of a regular row: weights below 1e-15 past it
# reach of a row with a singular end: complements down to 1e-275, enough
# to truncate orders down to -0.9 below 1e-16
_TS_SPAN_SINGULAR = 6.0
_SLIVER = 1e-9    # relative width up to which a stratum takes its bracket
_GRADE = 64.0     # panel ratio toward an end with a nearby outside base
_CHUNK = 1 << 16  # term-by-node elements evaluated at once
_STEPS = 2.0 ** -np.arange(2.0, _TS_FIRST + 1)  # h of levels 2 to _TS_FIRST
_EPS = float(np.finfo(float).eps)


@functools.lru_cache(maxsize=None)
def _ts_nodes(span: float, level: int) -> tuple[np.ndarray, ...]:
    """Nodes first used at ``level`` (all of them at level 2), |t| <= span.

    Returns (side, sc, w): ``side`` is 0 where t < 0, whose nodes are
    measured from the panel's left end, and 1 elsewhere; ``sc`` is the
    complement 1 - |x|, exact to underflow, signed + on the left and - on
    the right; ``w`` is the weight (pi/2) cosh t (1 - x^2).
    """
    k = int(round(span * 2 ** level))
    j = np.arange(-k, k + 1)
    if level > 2:
        j = j[j % 2 != 0]
    t = j * 2.0 ** -level
    with np.errstate(over="ignore"):
        c = 2.0 / (np.exp(np.pi * np.sinh(np.abs(t))) + 1.0)
    left = t < 0.0
    w = 0.5 * np.pi * np.cosh(t) * c * (2.0 - c)
    return (~left).astype(np.intp), np.where(left, c, -c), w


@functools.lru_cache(maxsize=None)
def _ts_first(span: float) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """All nodes of levels 2 to _TS_FIRST, in blocks, and the block starts.

    The blocks are the two outermost nodes (the ends of level 2), the
    rest of level 2, then each finer level's new nodes, so one evaluation
    yields the truncation term and, by prefix sums, every level.
    """
    levels = [_ts_nodes(span, lev) for lev in range(2, _TS_FIRST + 1)]
    n2 = len(levels[0][0])
    order = np.concatenate(([0, n2 - 1], np.arange(1, n2 - 1)))
    levels[0] = tuple(part[order] for part in levels[0])
    starts = np.cumsum([0, 2, n2 - 2] + [len(v[0]) for v in levels[1:-1]])
    return tuple(np.concatenate(parts) for parts in zip(*levels)), starts


class Rows(namedtuple("Rows",
                       "ends const first row coef expo base orient args")):
    """Struct-of-arrays table of stratum panels for the tanh-sinh rule.

    Row i is the panel ``ends[i]`` = (a[i], b[i]) with m = const[i] plus
    the terms first[i]:first[i+1]; ``row`` maps each term to its row.  A
    term keeps its argument orient*(lam - base) at both panel ends,
    clamped at 0, as the two columns of ``args``; ``Rows.of`` derives
    first, row and args.
    """

    __slots__ = ()

    @staticmethod
    def of(ends, const, counts, coef, expo, base, orient) -> "Rows":
        """The panels ``ends`` (rows (a, b)) with counts[i] terms each."""
        first = np.zeros(len(counts) + 1, dtype=np.intp)
        np.add.accumulate(counts, out=first[1:])
        row = np.arange(len(counts)).repeat(counts)
        return Rows(ends, const, first, row, coef, expo, base, orient,
                    np.maximum(orient[:, None] * (ends[row] - base[:, None]),
                               0.0))

    a = property(lambda self: self.ends[:, 0])
    b = property(lambda self: self.ends[:, 1])

    def take(self, sel: np.ndarray) -> "Rows":
        """The sub-table of rows ``sel`` (increasing indices)."""
        if len(sel) == len(self.const):
            return self
        keep = np.zeros(len(self.const), dtype=bool)
        keep[sel] = True
        terms = keep[self.row]
        return Rows.of(self.ends[sel], self.const[sel],
                       (self.first[1:] - self.first[:-1])[sel],
                       self.coef[terms], self.expo[terms], self.base[terms],
                       self.orient[terms])

    def graded(self, width: np.ndarray) -> tuple["Rows", np.ndarray | None]:
        """The rows cut into graded panels and each panel's row, or None.

        The distance of the nearest term base outside each end is the
        smallest positive argument there (see ``_grade_cuts``).
        """
        near = np.minimum.reduceat(np.where(self.args > 0.0, self.args,
                                            math.inf), self.first[:-1])
        todo = (np.minimum.reduce(near, axis=1) < width / _GRADE).nonzero()[0]
        if not todo.size:
            return self, None
        cuts, near = self.ends.tolist(), near.tolist()
        for i in todo.tolist():
            cuts[i] = _grade_cuts(*cuts[i], *near[i])
        owner = np.arange(len(cuts)).repeat([len(c) - 1 for c in cuts])
        counts = (self.first[1:] - self.first[:-1])[owner]  # row's terms
        ends = np.add.accumulate(counts)
        pick = (np.arange(ends[-1])
                + (self.first[owner] - ends + counts).repeat(counts))
        return Rows.of(np.column_stack(([x for c in cuts for x in c[:-1]],
                                        [x for c in cuts for x in c[1:]])),
                       self.const[owner], counts, self.coef[pick],
                       self.expo[pick], self.base[pick],
                       self.orient[pick]), owner

    def m_power(self, side: np.ndarray, sc: np.ndarray, qq: float,
                half: np.ndarray) -> np.ndarray:
        """m^qq at every node of every row, given each row's half width."""
        # every term's argument at every node, from the nearer end
        arg = self.args.take(side, axis=1)
        arg += (self.orient * half[self.row])[:, None] * sc
        np.maximum(arg, 0.0, out=arg)
        term = array_power(arg, self.expo[:, None])
        term *= self.coef[:, None]
        m = np.add.reduceat(term, self.first[:-1], axis=0)
        m += self.const[:, None]
        # m is a distribution function, so a negative value near a
        # stratum edge is roundoff; floor it before fractional powers
        np.maximum(m, 0.0, out=m)
        if qq == 1.0:
            return m
        huge = np.isinf(m)
        np.power(m, qq, out=m)
        if qq < 1.0 and np.count_nonzero(huge):
            # a term overflowed where m^qq need not: redo those nodes
            m[huge] = self._log_m_power(arg, qq)[huge]
        return m

    def _log_m_power(self, arg: np.ndarray, qq: float) -> np.ndarray:
        """m^qq with the largest term factored out, in logarithms.

        Loses about qq |log term| ulps, against pow's one, so it only
        serves nodes where a term overflows.
        """
        first = self.first[:-1]
        log_t = (np.log(np.abs(self.coef))[:, None]
                 + self.expo[:, None] * np.log(arg))
        top = np.maximum(np.maximum.reduceat(log_t, first, axis=0), 0.0)
        scaled = np.add.reduceat(np.sign(self.coef)[:, None]
                                 * np.exp(log_t - top[self.row]),
                                 first, axis=0)
        scaled += self.const[:, None] * np.exp(-top)
        out = np.exp(qq * (top + np.log(np.maximum(scaled, 0.0))))
        # an argument that is exactly 0 under a negative power is a true pole
        return np.where(np.isinf(top), np.inf, out)

    def weighted_sums(self, nodes: tuple[np.ndarray, ...], q: float,
                      qq: float, starts: np.ndarray, half: np.ndarray
                      ) -> np.ndarray:
        """Sums of w lam^(q-1) m^qq over each block of node columns (the
        blocks begin at ``starts``), one row per row.

        Rows are evaluated in chunks of at most _CHUNK term-by-node
        elements, so memory does not grow with the level set.
        """
        side, sc, w = nodes
        out = np.empty((len(self.const), len(starts)))
        ends = self.first[1:]
        budget = max(_CHUNK // len(w), 1)
        lo = 0
        while lo < len(self.const):
            hi = max(int(ends.searchsorted(self.first[lo] + budget, "right")),
                     lo + 1)
            rows, h = self.take(np.arange(lo, hi)), half[lo:hi]
            f = rows.m_power(side, sc, qq, h)
            if q != 1.0:
                lam = rows.ends.take(side, axis=1)
                lam += h[:, None] * sc
                f *= lam ** (q - 1.0)
            f *= w
            np.add.reduceat(f, starts, axis=1, out=out[lo:hi])
            lo = hi
        return out


def array_power(x: np.ndarray, expo: np.ndarray) -> np.ndarray:
    """x ** expo by numpy's array loop, whatever the shapes.

    An exponent that broadcasts one value over a loop of several elements
    takes numpy's scalar paths for 2, 0.5 and -1 (square, sqrt,
    reciprocal), which round differently from its array loop: about 6% of
    values by an ulp, numpy 2.4.6.  A one-term row table or a one-piece
    level set would then round otherwise than the same row or piece in a
    batch, so such an exponent is spread over x's shape first.
    """
    if expo.size == 1 and x.size > 1:
        spread = np.empty(x.shape)
        spread.fill(expo.item())
        expo = spread
    return np.power(x, expo)


def _grade_cuts(a: float, b: float, da: float, db: float) -> list[float]:
    """Panel ends of (a, b), graded toward an end with a nearby base.

    ``da`` and ``db`` are the distances of the nearest term base outside
    each end.  Toward an end closer than (b - a)/64 the panel widths grow
    by _GRADE from that distance, so each panel sees the base at least
    1/64 of its width away; with both ends close, each half is graded.
    """
    width = b - a
    near_a, near_b = da < width / _GRADE, db < width / _GRADE
    if near_a and near_b:
        mid = a + 0.5 * width
        return _grade_cuts(a, mid, da, math.inf)[:-1] + _grade_cuts(
            mid, b, math.inf, db)
    if not (near_a or near_b):
        return [a, b]
    dist, dists = (da if near_a else db), [0.0]
    while dist < width:
        dists.append(dist)
        dist *= _GRADE
    # a last cut within 1/_GRADE of its panel from the far end would leave
    # a sliver panel there, which cannot meet the tolerance of its own
    # value where m cancels; the panel before it takes that end instead
    if width - dists[-1] < (dists[-1] - dists[-2]) / _GRADE:
        dists.pop()
    inner = [a + d if near_a else b - d for d in dists[1:]]
    if near_b:
        inner.reverse()
    return [a] + [c for c in inner if a < c < b] + [b]


def _reaches(rows: Rows, q: float, qq: float
             ) -> list[tuple[float, np.ndarray | None]]:
    """Each node reach and its rows (None: all rows): the wider reach
    for rows with a negative-order term whose argument vanishes at an end.

    Raises DivergentIntegralError when the order there, with lam^(q-1) at
    lam = 0, is -1 or below.
    """
    term, end = ((rows.args == 0.0) & (rows.expo < 0.0)[:, None]).nonzero()
    if not term.size:
        return [(_TS_SPAN, None)]
    order = np.full((2, len(rows.const)), math.inf)
    np.minimum.at(order, (end, rows.row[term]), qq * rows.expo[term])
    order += np.where(rows.ends.T == 0.0, q - 1.0, 0.0)
    if (order <= -1.0).any():
        raise DivergentIntegralError(
            "level-set integral diverges at a stratum end")
    singular = np.isfinite(order).any(axis=0)
    return [(_TS_SPAN, (~singular).nonzero()[0]),
            (_TS_SPAN_SINGULAR, singular.nonzero()[0])]


def _rule(rows: Rows, q: float, qq: float, span: float
          ) -> tuple[np.ndarray, np.ndarray]:
    """Tanh-sinh values and error bounds of every row, |t| <= span.

    Levels 2, 3 and 4 come from one evaluation at the level-4 nodes; a
    row whose bound exceeds the 1e-12 contract moves up a level, which
    evaluates only its new odd nodes, until _TS_LAST.  The bound is the
    largest of
      * the level difference |I_L - I_(L-1)|;
      * its square-law guard (I_(L-1) - I_(L-2))^2 / |I_L|, in case the
        difference vanishes by coincidence;
      * the truncation, 1/4 of |w f| at the two outermost nodes;
      * the summation roundoff n eps sum |w f| of the level's n nodes.
    """
    half = 0.5 * (rows.b - rows.a)
    nodes, starts = _ts_first(span)
    sums = np.add.accumulate(rows.weighted_sums(nodes, q, qq, starts, half), 1)
    tail = 0.25 * half * sums[:, 0]
    levels = half[:, None] * sums[:, 1:] * _STEPS
    n_nodes = len(nodes[0])
    value, err = _level_error(*levels.T, tail, n_nodes)
    # a non-finite value or bound is never within the contract
    todo = (~(err <= np.maximum(_REL_TOL * value, 1e-300))).nonzero()[0]
    if todo.size:
        total, older, prev = sums[todo, -1], levels[todo, -2], levels[todo, -1]
    level = _TS_FIRST
    while todo.size:
        if level == _TS_LAST:
            i = todo[0]
            raise NumericalError(
                f"tanh-sinh rule did not converge on ({rows.a[i]}, "
                f"{rows.b[i]}): estimate {value[i]:.6e}, error bound "
                f"{err[i]:.3e}")
        level += 1
        extra = _ts_nodes(span, level)
        n_nodes += len(extra[0])
        total = total + rows.take(todo).weighted_sums(
            extra, q, qq, [0], half[todo])[:, 0]
        cur = half[todo] * total * 2.0 ** -level
        v, e = _level_error(older, prev, cur, tail[todo], n_nodes)
        value[todo], err[todo] = v, e
        keep = ~(e <= np.maximum(_REL_TOL * v, 1e-300))
        todo, total, older, prev = todo[keep], total[keep], prev[keep], \
            cur[keep]
    return value, err


def _level_error(older: np.ndarray, prev: np.ndarray, cur: np.ndarray,
                 tail: np.ndarray, n_nodes: int
                 ) -> tuple[np.ndarray, np.ndarray]:
    """The finest level's value and its error bound (see ``_rule``)."""
    step = np.abs(cur - prev)
    guard = np.where(cur > 0.0, (prev - older) ** 2 / cur, step)
    return cur, np.maximum(np.maximum(step, guard),
                           np.maximum(tail, n_nodes * _EPS * cur))


def row_integrals(rows: Rows, q: float, qq: float, owner: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Values and error bounds of integral lam^(q-1) m(lam)^qq per row.

    The rows are strata with terms, ``owner`` maps each to its level set.
    Rows with an unbounded end are left at 0: their integrals have closed
    forms (``segments.level_set_qth_powers``).  A sliver
    (relative width at most 1e-9) is bracketed instead of ruled: m is
    nonincreasing and lam^(q-1) nondecreasing, so its integral lies in
    width * [lam0^(q-1) m(lam1)^qq, lam1^(q-1) m(lam0)^qq]; it takes the
    midpoint, with the half-width as its error bound.  NumericalError is
    raised if the slivers' bounds of a level set pass the 1e-12 contract
    of that level set's total.  A sliver whose bracket is unbounded (a
    singular term at its end) is ruled.  Other strata are graded into
    panels and ruled, with the wider node reach for panels that have a
    singular end; a stratum's panels are added in that order.
    """
    n = len(rows.const)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        width = rows.b - rows.a
        live = np.isfinite(rows.b)
        sliver = (live & (width <= _SLIVER * rows.b)).nonzero()[0]
        if sliver.size:
            sub = rows.take(sliver)
            ends = sub.m_power(np.arange(2), np.zeros(2), qq,
                               0.5 * width[sliver])
            lo = width[sliver] * sub.a ** (q - 1.0) * ends[:, 1]
            hi = width[sliver] * sub.b ** (q - 1.0) * ends[:, 0]
            bounded = np.isfinite(hi)
            sliver = sliver[bounded]
            lo, hi = lo[bounded], hi[bounded]
            live[sliver] = False
        ruled = live.nonzero()[0]
        if ruled.size:
            panels, pick = rows.take(ruled).graded(width[ruled])
            stratum = ruled if pick is None else ruled[pick]
            parts = [(stratum, *_rule(panels, q, qq, span)) if sel is None
                     else (stratum[sel], *_rule(panels.take(sel), q, qq, span))
                     for span, sel in _reaches(panels, q, qq)
                     if sel is None or sel.size]
            at, v, e = parts[0] if len(parts) == 1 else (
                np.concatenate(x) for x in zip(*parts))
            values = np.bincount(at, v, n)
            errors = np.bincount(at, e, n)
        else:
            values, errors = np.zeros(n), np.zeros(n)
    if sliver.size:
        values[sliver] = 0.5 * (lo + hi)
        errors[sliver] = 0.5 * np.abs(hi - lo)
        for level_set in set(owner[sliver].tolist()):
            mine = owner == level_set
            bound = math.fsum(errors[sliver[mine[sliver]]])
            total = math.fsum(values[mine])
            if bound > _REL_TOL * total:
                raise NumericalError(
                    f"sliver strata are bracketed only to {bound:.3e} of "
                    f"a total {total:.6e}")
    return values, errors
