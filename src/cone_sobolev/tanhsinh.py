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
``segments.level_set_qth_powers`` with the strata of one level set
(``LevelSet.lorentz_qth_power``) or of many (the span engine, ``spans``),
each row's level set in ``owner``; ``segments.level_set_strata`` builds
them as this table.  A row's value and bound depend on that row alone,
so they are bit-identical however the rows are batched; only the sliver
check reads a whole level set.

The module shares no code with the t route's adaptive Gauss-Kronrod rule
in ``quadrature``, so the agreement of the two routes checks two
independent integrators.  It meets the same fixed relative tolerance of
1e-12 with an error bound per stratum, or raises NumericalError.
"""

from __future__ import annotations

import functools
import math
from typing import Sequence

import numpy as np

from .errors import DivergentIntegralError, NumericalError

__all__ = ["Rows", "row_integrals"]

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
_EPS = float(np.finfo(float).eps)


@functools.lru_cache(maxsize=None)
def _ts_nodes(span: float, level: int) -> tuple[np.ndarray, ...]:
    """Nodes first used at ``level`` (all of them at level 2), |t| <= span.

    Returns (left, sc, w): ``left`` marks t < 0, whose nodes are measured
    from the panel's left end; ``sc`` is the complement 1 - |x|, exact to
    underflow, signed + on the left and - on the right; ``w`` is the
    weight (pi/2) cosh t (1 - x^2).
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
    return left, np.where(left, c, -c), w


@functools.lru_cache(maxsize=None)
def _ts_first(span: float) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """All nodes of levels 2 to _TS_FIRST, in blocks, and the block ends.

    The blocks are the two outermost nodes (the ends of level 2), the
    rest of level 2, then each finer level's new nodes, so one evaluation
    yields the truncation term and, by prefix sums, every level.
    """
    levels = [_ts_nodes(span, lev) for lev in range(2, _TS_FIRST + 1)]
    n2 = len(levels[0][0])
    order = np.concatenate(([0, n2 - 1], np.arange(1, n2 - 1)))
    levels[0] = tuple(part[order] for part in levels[0])
    blocks = np.cumsum([2, n2 - 2] + [len(v[0]) for v in levels[1:]])
    return tuple(np.concatenate(parts) for parts in zip(*levels)), blocks


class Rows:
    """Struct-of-arrays table of stratum panels for the tanh-sinh rule.

    Row i is the panel (a[i], b[i]) with m = const[i] plus the terms
    first[i]:first[i+1]; ``row`` maps each term to its row.  A term keeps
    its argument orient*(lam - base) at both panel ends, clamped at 0, in
    ``arg_a`` and ``arg_b`` (``take`` passes them in ``args``, since a row
    keeps its ends).
    """

    __slots__ = ("a", "b", "const", "first", "row", "coef", "expo",
                 "orient", "base", "arg_a", "arg_b")

    def __init__(self, a, b, const, counts, coef, expo, base, orient,
                 args=None):
        self.a, self.b, self.const = a, b, const
        self.first = np.concatenate(([0], np.cumsum(counts)))
        self.row = np.repeat(np.arange(len(a)), counts)
        self.coef, self.expo, self.base, self.orient = coef, expo, base, orient
        self.arg_a, self.arg_b = args if args is not None else (
            np.maximum(orient * (a[self.row] - base), 0.0),
            np.maximum(orient * (b[self.row] - base), 0.0))

    def take(self, sel: np.ndarray) -> "Rows":
        """The sub-table of rows ``sel`` (increasing indices)."""
        if len(sel) == len(self.a):
            return self
        keep = np.zeros(len(self.a), dtype=bool)
        keep[sel] = True
        terms = keep[self.row]
        return Rows(self.a[sel], self.b[sel], self.const[sel],
                    (self.first[1:] - self.first[:-1])[sel], self.coef[terms],
                    self.expo[terms], self.base[terms], self.orient[terms],
                    (self.arg_a[terms], self.arg_b[terms]))

    def graded(self) -> tuple["Rows", np.ndarray]:
        """The rows cut into graded panels, and each panel's row.

        The distance of the nearest term base outside each end is the
        smallest positive argument there (see ``_grade_cuts``).
        """
        near = [np.minimum.reduceat(np.where(arg > 0.0, arg, math.inf),
                                    self.first[:-1])
                for arg in (self.arg_a, self.arg_b)]
        width = self.b - self.a
        todo = (np.minimum(near[0], near[1]) < width / _GRADE).nonzero()[0]
        owner = np.arange(len(self.a))
        if not todo.size:
            return self, owner
        cuts = [[lo, hi] for lo, hi in zip(self.a.tolist(), self.b.tolist())]
        for i in todo.tolist():
            cuts[i] = _grade_cuts(cuts[i][0], cuts[i][1], float(near[0][i]),
                                  float(near[1][i]))
        owner = np.repeat(owner, [len(c) - 1 for c in cuts])
        pick = np.concatenate([np.arange(self.first[i], self.first[i + 1])
                               for i in owner.tolist()])
        return Rows(np.array([x for c in cuts for x in c[:-1]]),
                    np.array([x for c in cuts for x in c[1:]]),
                    self.const[owner],
                    (self.first[1:] - self.first[:-1])[owner],
                    self.coef[pick], self.expo[pick], self.base[pick],
                    self.orient[pick]), owner

    def args(self, left: np.ndarray, sc: np.ndarray) -> np.ndarray:
        """Every term's argument at every node, from the nearer end."""
        half = 0.5 * (self.b - self.a)
        arg = np.where(left, self.arg_a[:, None], self.arg_b[:, None])
        arg += (self.orient * half[self.row])[:, None] * sc
        return np.maximum(arg, 0.0, out=arg)

    def m_power(self, left: np.ndarray, sc: np.ndarray, qq: float
                ) -> np.ndarray:
        """m^qq at every node of every row, one numpy expression."""
        arg = self.args(left, sc)
        with np.errstate(divide="ignore", over="ignore"):
            term = np.power(arg, self.expo[:, None])
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
        if huge.any() and qq < 1.0:
            # a term overflowed where m^qq need not: redo those nodes
            m[huge] = self._log_m_power(arg, qq)[huge]
        return m

    def _log_m_power(self, arg: np.ndarray, qq: float) -> np.ndarray:
        """m^qq with the largest term factored out, in logarithms.

        Loses about qq |log term| ulps, against pow's one, so it only
        serves nodes where a term overflows.
        """
        first = self.first[:-1]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
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

    def integrand(self, left: np.ndarray, sc: np.ndarray, q: float,
                  qq: float) -> np.ndarray:
        """lam^(q-1) m^qq at every node of every row."""
        f = self.m_power(left, sc, qq)
        if q != 1.0:
            lam = np.where(left, self.a[:, None], self.b[:, None])
            lam += (0.5 * (self.b - self.a))[:, None] * sc
            f *= lam ** (q - 1.0)
        return f

    def weighted_sums(self, nodes: tuple[np.ndarray, ...], q: float,
                      qq: float, blocks: Sequence[int]) -> np.ndarray:
        """Sums of w f over each block of node columns, per row.

        Rows are evaluated in chunks of at most _CHUNK term-by-node
        elements, so memory does not grow with the level set.
        """
        left, sc, w = nodes
        out = np.empty((len(blocks), len(self.a)))
        ends = self.first[1:]
        budget = max(_CHUNK // len(w), 1)
        lo = 0
        while lo < len(self.a):
            start = ends[lo - 1] if lo else 0
            hi = max(int(np.searchsorted(ends, start + budget, "right")),
                     lo + 1)
            f = self.take(np.arange(lo, hi)).integrand(left, sc, q, qq) * w
            out[:, lo:hi] = np.add.reduceat(f, [0, *blocks[:-1]], axis=1).T
            lo = hi
        return out


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


def _singular_ends(rows: Rows, q: float, qq: float) -> np.ndarray:
    """Rows with a negative-order term whose argument vanishes at an end.

    Raises DivergentIntegralError when the order there, with lam^(q-1) at
    lam = 0, is -1 or below.
    """
    singular = np.zeros(len(rows.a), dtype=bool)
    for args, ends in ((rows.arg_a, rows.a), (rows.arg_b, rows.b)):
        hit = (args == 0.0) & (rows.expo < 0.0)
        if not hit.any():
            continue
        order = np.full(len(rows.a), math.inf)
        np.minimum.at(order, rows.row[hit], qq * rows.expo[hit])
        order += np.where(ends == 0.0, q - 1.0, 0.0)
        if (order <= -1.0).any():
            raise DivergentIntegralError(
                "level-set integral diverges at a stratum end")
        singular |= np.isfinite(order)
    return singular


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
    nodes, blocks = _ts_first(span)
    sums = np.cumsum(rows.weighted_sums(nodes, q, qq, blocks), axis=0)
    tail = 0.25 * half * sums[0]
    levels = [half * sums[i] * 2.0 ** -(i + 1)
              for i in range(1, len(blocks))]
    n_nodes = int(blocks[-1])
    value, err = _level_error(*levels, tail, n_nodes)
    # a non-finite value or bound is never within the contract
    todo = (~(err <= np.maximum(_REL_TOL * value, 1e-300))).nonzero()[0]
    total = sums[-1][todo]
    older, prev = levels[-2][todo], levels[-1][todo]
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
            extra, q, qq, [len(extra[0])])[0]
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
    with np.errstate(divide="ignore", invalid="ignore"):
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
    singular end.
    """
    values, errors = np.zeros(len(rows.a)), np.zeros(len(rows.a))
    live = np.isfinite(rows.b)
    width = rows.b - rows.a
    sliver = (live & (width <= _SLIVER * rows.b)).nonzero()[0]
    if sliver.size:
        sub = rows.take(sliver)
        ends = sub.m_power(np.array([True, False]), np.zeros(2), qq)
        lo = width[sliver] * sub.a ** (q - 1.0) * ends[:, 1]
        hi = width[sliver] * sub.b ** (q - 1.0) * ends[:, 0]
        bounded = np.isfinite(hi)
        sliver = sliver[bounded]
        values[sliver] = 0.5 * (lo + hi)[bounded]
        errors[sliver] = 0.5 * np.abs(hi - lo)[bounded]
    live[sliver] = False
    ruled = live.nonzero()[0]
    if ruled.size:
        panels, stratum = rows.take(ruled).graded()
        stratum = ruled[stratum]
        singular = _singular_ends(panels, q, qq)
        for span, pick in ((_TS_SPAN, ~singular),
                           (_TS_SPAN_SINGULAR, singular)):
            sel = pick.nonzero()[0]
            if sel.size:
                v, e = _rule(panels.take(sel), q, qq, span)
                np.add.at(values, stratum[sel], v)
                np.add.at(errors, stratum[sel], e)
    if sliver.size:
        for level_set in set(owner[sliver].tolist()):
            mine = owner == level_set
            bound = math.fsum(errors[sliver[mine[sliver]]])
            total = math.fsum(values[mine])
            if bound > _REL_TOL * total:
                raise NumericalError(
                    f"sliver strata are bracketed only to {bound:.3e} of "
                    f"a total {total:.6e}")
    return values, errors
