"""Almost-extremal shell systems and non-compactness certificates.

The embedding of the gradient-Lorentz space into L^{p*,q} is maximally
non-compact: its Bernstein numbers equal its norm.  The constructive
witness is a nested system of radial shell functions u_1, u_2, ... with

* ||grad u_j|| = 1 and ||u_j|| = lambda, for a chosen lambda < ||E||,
* gradients supported in disjoint annuli (flat heads cover the successors),
* tail budgets gamma_j controlling how much of ||u_j|| survives inside the
  next shell, with || {gamma_j} ||_{ell_q'} <= eps2,
* a windowed-energy condition: (1+eps1)^q times the Lorentz integrand of
  u_j restricted to the annulus between consecutive measures delta_{j+1},
  delta_j still covers lambda^q.

Together these give the superadditivity bound

    || sum alpha_j u_j || >= (lambda/(1+eps1) - eps2) ||alpha||_q

while disjoint gradient supports give || sum alpha_j grad u_j || <=
||alpha||_q, so every span direction has quotient at least
lambda/(1+eps1) - eps2: a certified Bernstein lower bound, valid for
every m since the shells keep coming.  Restricted norms along the
shrinking supports vanish (absolute continuity), which is the mechanism
that defeats any fixed finite cover.

Shell profiles are truncated power arcs placed by one monotone search,
bracketed regula falsi (Illinois): the head ratio in log ratio, the
window cutoff in log tau.  Every shell is the first one dilated in the
measure coordinate, with the same norms, so each search runs once per
system and is dilated to every shell, and so is the normalization: every
shell divides by the gradient norm of the head-ratio search's own unit-ball
profile, and building a system makes no quotient outside the search
(one, if the search ends on a closed bracket).  Every shell is flat on
its head, so its tail cutoff is a closed form.  ``verify_system`` then
measures both norms of every shell (all gradient norms in one lambda-route
call), checks that their quotient is pinned to lambda, and checks both
cutoff conditions at each shell's own cutoff; every integral is a closed
form, an incomplete beta series with a certified 1e-12 bound
(``segments._moment_integrals``), the lambda route's tanh-sinh rule, or
the adaptive rule (an Appell F1 moment, or a series that cannot certify
1e-12).

Span directions go to the span engine (``spans``).  Each system keeps the
law tables of its two spans, built on first use: every direction has the
same pieces, and only their coefficients and lifts move with alpha.
``certify_span`` evaluates all its directions as one batch per span, and
a direction's norms are bit-identical alone (the certificate functions)
or in any batch.
"""

from __future__ import annotations

import copy
import functools
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .cones import WeightedCone, ball_measure
from .errors import (DomainError, InfeasibleError, InternalConsistencyError,
                     ResourceError, ValidationError)
from .lorentz import (LorentzParams, ell_q_norm, lorentz_norm_rearranged,
                      lorentz_norms_distributional, restricted_norm)
from .profiles import RadialProfile, alvino_profile, gradient_density
from .segments import PieceTable, _moment_integrals
from .sobolev import QuotientReport, embedding_norm, quotient
from .spans import SpanTables, span_norms

__all__ = [
    "ShellSpec",
    "AlmostExtremalSystem",
    "gamma_sequence",
    "construct_system",
    "superadditivity_certificate",
    "gradient_upper_certificate",
    "certify_span",
    "bernstein_lower_bound",
    "BernsteinBound",
    "SpanSweep",
    "absolute_continuity_witness",
    "verify_system",
]

_NORM_RTOL = 1e-10
_CERT_SLACK = 1e-9
_MAX_LOG10_RANGE = 300.0
_QUOTIENT_TOL = 1e-12
# how far a shell's measured quotient may sit from lambda: the head-ratio
# search's tolerance with room for the rounding of both norms
_PIN_TOL = 100.0 * _QUOTIENT_TOL


@dataclass(frozen=True)
class ShellSpec:
    """One shell: radii, measures, budget, and the profile itself.

    ``cutoff_radius`` is the next outer radius R_{j+1} (the tail and
    window conditions are stated relative to it); ``cutoff_measure`` is
    delta_{j+1}.
    """

    index: int
    outer_radius: float
    inner_radius: float
    cutoff_radius: float
    delta: float
    cutoff_measure: float
    gamma: float
    profile: RadialProfile

    @property
    def head_measure(self) -> float:
        """mu(B_{r_j}), the flat-head extent in measure units."""
        return self.profile.table.t1[0].tolist()


def _certified_floor(lam: float, eps1: float, eps2: float) -> float:
    """The certified quotient lambda/(1+eps1) - eps2.

    Raises ValidationError unless it is positive: a bound of zero or below
    certifies nothing, and the certificates' relative margins divide by it.
    """
    floor = lam / (1.0 + eps1) - eps2
    if not floor > 0.0:
        raise ValidationError(
            f"the certified bound lambda/(1+eps1) - eps2 must be positive; "
            f"got {floor!r} (lambda {lam!r}, eps1 {eps1!r}, eps2 {eps2!r})")
    return floor


@dataclass(frozen=True)
class AlmostExtremalSystem:
    """The full shell system with its defining scalars.

    Its certified bound lambda/(1+eps1) - eps2 is positive on every
    construction (``construct_system``, ``prefix``,
    ``dataclasses.replace``).
    """

    cone: WeightedCone
    params: LorentzParams
    lam: float
    eps1: float
    eps2: float
    shells: tuple[ShellSpec, ...]

    def __post_init__(self) -> None:
        _certified_floor(self.lam, self.eps1, self.eps2)

    @property
    def m(self) -> int:
        return len(self.shells)

    @functools.cached_property
    def _verification(self) -> dict:
        """The report of ``verify_system``, checked on first use."""
        return _verification_report(self)

    @functools.cached_property
    def _span_tables(self) -> SpanTables:
        """The law tables of both spans, built on first use."""
        return SpanTables.of(self.shells, self.params)

    def prefix(self, k: int) -> "AlmostExtremalSystem":
        """The subsystem of the first k shells (valid on its own)."""
        if not 1 <= k <= self.m:
            raise ValidationError(f"prefix length must be in 1..{self.m}")
        return AlmostExtremalSystem(self.cone, self.params, self.lam,
                                    self.eps1, self.eps2, self.shells[:k])


# -- tail budgets ------------------------------------------------------------

def _geometric_ratio(q_prime: float, eps2: float) -> float:
    """The a in (0,1) with a^q' / (1 - a^q') = eps2^q', in closed form:
    a^q' = eps2^q' / (1 + eps2^q')."""
    return eps2 * (1.0 + eps2 ** q_prime) ** (-1.0 / q_prime)


def gamma_sequence(params: LorentzParams, eps2: float,
                   count: int) -> list[float]:
    """Tail budgets with ell_{q'} norm within eps2.

    q = 1 (q' = inf) allows the constant choice gamma_j = eps2; for q > 1
    a geometric sequence a^j is used with a chosen so the full series
    stays within budget.
    """
    if not eps2 > 0.0:   # NaN too
        raise ValidationError("eps2 must be positive")
    if count < 1:
        raise ValidationError("at least one budget term is required")
    if params.q == 1.0:
        return [eps2] * count
    a = _geometric_ratio(params.q_prime, eps2)
    return [a ** j for j in range(1, count + 1)]


# -- single shell ------------------------------------------------------------

def _quotient_of_ratio(cone: WeightedCone, bound: LorentzParams,
                       ratio: float) -> QuotientReport:
    """The quotient report of the unit-ball profile with head ratio
    ``ratio``: shell 1 before its normalization."""
    t_unit = cone.c_d  # the unit ball's measure, ball_measure(cone, 1.0)
    profile = alvino_profile(cone, bound.p_star, t_unit / ratio, t_unit)
    return quotient(profile, bound)


def _illinois(f, lo: float, f_lo: float, hi: float, f_hi: float,
              tol: float) -> tuple[float, float]:
    """Illinois regula falsi (Dowell & Jarratt 1971) for a root of f on
    lo < hi with f_lo <= 0 <= f_hi: (x, x) for the first x, an end
    included, with |f(x)| <= tol, else the bracket once it closes to 1e-15
    of its ends.  Its ends keep f of opposite measured signs, so f's own
    error cannot lose the root; a step that would leave the bracket takes
    its midpoint instead."""
    for x, fx in ((lo, f_lo), (hi, f_hi)):
        if abs(fx) <= tol:
            return x, x
    # f_lo < 0 < f_hi from here on; ``side`` is the end moved last
    side = 0
    for _ in range(200):
        x = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
        fx = f(x)
        if abs(fx) <= tol:
            return x, x
        if fx < 0.0:
            lo, f_lo = x, fx
            if side < 0:
                f_hi *= 0.5  # Illinois: the other end stalled, halve it
            side = -1
        else:
            hi, f_hi = x, fx
            if side > 0:
                f_lo *= 0.5
            side = 1
        if hi - lo <= 1e-15 * max(1.0, abs(lo), abs(hi)):
            break
    return lo, hi


def _head_ratio(cone: WeightedCone, bound: LorentzParams,
                lam: float) -> tuple[float, QuotientReport]:
    """Head-to-support ratio (in measure) of the profile with quotient lam,
    and the quotient report of its unit-ball profile.

    The quotient of alvino_profile(cone, p*, t/ratio, t) does not depend
    on the scale t, so the search runs once, on the unit ball: the ratio
    is expanded until its quotient brackets lambda, then ``_illinois``
    finds the root of f(x) = Q(e^x) - lambda in log space, to |f| <=
    1e-12 max(1, lam), or the middle of the bracket it closes.  The
    report is the search's own at a root, and one more quotient at the
    middle of a closed bracket.
    """
    e_norm = embedding_norm(cone, bound)
    if not 0.0 < lam < e_norm:
        raise InfeasibleError(
            f"a shell needs 0 < lambda < the sharp constant {e_norm}; "
            f"got {lam} (the supremum is not attained)")
    if bound.p == 1.0 and bound.q == 1.0:
        raise InfeasibleError(
            "at p = q = 1 every radial nonincreasing profile attains the "
            "sharp constant exactly, so no profile has quotient "
            "lambda < ||E||; use q = 1 with p > 1 instead")

    reports: dict[float, QuotientReport] = {}

    def f(x: float) -> float:
        reports[x] = _quotient_of_ratio(cone, bound, math.exp(x))
        return reports[x].quotient - lam

    # bracket the quotient in log-ratio space (quotient grows with ratio)
    lo, hi = math.log(2.0), math.log(16.0)
    cap = _MAX_LOG10_RANGE * math.log(10.0)
    f_lo, f_hi = None, f(hi)
    while f_hi < 0.0:
        lo, f_lo = hi, f_hi
        hi *= 2.0
        if hi > cap:
            raise ResourceError(
                f"lambda = {lam} is so close to the sharp constant "
                f"{e_norm} that the required head-to-support ratio "
                f"exceeds 1e{_MAX_LOG10_RANGE:.0f} in measure units")
        f_hi = f(hi)
    if f_lo is None:
        f_lo = f(lo)
    while f_lo > 0.0:
        hi, f_hi = lo, f_lo
        lo *= 0.5
        if lo < 1e-12:
            raise InternalConsistencyError(
                "quotient bracketing failed at vanishing head ratio")
        f_lo = f(lo)
    lo, hi = _illinois(f, lo, f_lo, hi, f_hi, _QUOTIENT_TOL * max(1.0, lam))
    x = 0.5 * (lo + hi)
    if x not in reports:
        f(x)
    return math.exp(x), reports[x]


def _shell_at(cone: WeightedCone, bound: LorentzParams, ratio: float,
              denominator: float, outer_radius: float
              ) -> tuple[RadialProfile, float]:
    """The shell in B_{outer_radius} with head ratio ``ratio``, divided by
    the gradient norm ``denominator`` of the unit-ball shell; returns the
    profile and its flat-head radius.

    The shell is the unit-ball one dilated in measure by s = mu(B_R)/c_d,
    s^(-1/p*) phi(t/s), and 1/p* = 1/p - 1/D makes that dilation keep the
    gradient norm, so every shell takes shell 1's ``denominator`` (the
    report of ``_head_ratio``) and no quotient of its own.
    ``verify_system`` measures both norms of every shell."""
    if outer_radius <= 0:
        raise DomainError("the outer radius must be positive")
    t_outer = ball_measure(cone, outer_radius)
    raw = alvino_profile(cone, bound.p_star, t_outer / ratio, t_outer)
    profile = raw.scaled_amplitude(1.0 / denominator)
    inner_radius = cone.radius_of_measure(t_outer / ratio)
    return profile, inner_radius


# -- windowed energy ----------------------------------------------------------

def _window_energy(profile: RadialProfile, bound: LorentzParams,
                   tau: float) -> float:
    """integral over (tau, delta) of t^(q/p*-1) u*(t + tau)^q dt.

    u* restricted outside measure tau has rearrangement u*(. + tau), a
    shifted-argument law on each overlapping segment; the flat head
    contributes an exact power moment, each arc a sum of incomplete beta
    integrals, all in one ``_moment_integrals`` call.
    """
    t0, t1, coef, shift, expo, base, orient = profile.table
    # t -> law(t + tau): a law's base moves by -tau, a constant's stays
    moved = np.where((coef != 0.0) & (expo != 0.0), base - tau, base)
    window = PieceTable(t0 - tau, t1 - tau, coef, shift, expo, moved,
                        orient).clip(tau, math.inf)
    q = bound.q
    return sum(_moment_integrals(window.segments(), q / bound.p_star, q))


def _tail_cutoff(profile: RadialProfile, bound: LorentzParams,
                 gamma: float) -> float:
    """The tau at which the tail norm ||u chi_(0,tau)|| reaches gamma, or
    head if it does not by then: u is flat at M = max_value on (0, head),
    so the norm there is M (p*/q)^(1/q) tau^(1/p*), solved for tau."""
    p_star, q = bound.p_star, bound.q
    tau = (gamma / profile.max_value) ** p_star * (q / p_star) ** (p_star / q)
    return min(profile.table.t1[0].tolist(), tau)


def _window_cutoff(profile: RadialProfile, bound: LorentzParams,
                   lam: float, eps1: float, tau_max: float) -> float:
    """The largest tau <= tau_max where the windowed energy, falling in
    tau, inflated by (1+eps1)^q covers lambda^q: tau_max if it does there,
    else the low end of ``_illinois``'s closed bracket on tau = tau_max e^x,
    after a scan down by factors 1e-6 to where it does."""
    def f(x: float) -> float:
        energy = _window_energy(profile, bound, tau_max * math.exp(x))
        return lam ** bound.q - (1.0 + eps1) ** bound.q * energy

    f_hi = f(0.0)
    if f_hi <= 0.0:
        return tau_max
    for k in range(1, 41):
        lo = -k * math.log(1e6)
        f_lo = f(lo)
        if f_lo <= 0.0:
            break
    else:
        raise InternalConsistencyError(
            "no feasible window cutoff: windowed energies are not monotone")
    lo, _ = _illinois(f, lo, f_lo, 0.0, f_hi, 0.0)
    return tau_max * math.exp(lo)


# -- the inductive construction ----------------------------------------------

def construct_system(cone: WeightedCone, params: LorentzParams, m: int,
                     lam: float, eps1: float, eps2: float
                     ) -> AlmostExtremalSystem:
    """Build the m-shell almost-extremal system, verifying every invariant.

    Per shell: a quotient-lambda profile in B_{R_j}; a cutoff measure
    where the tail norm stays within gamma_j while the windowed energy
    inflated by (1+eps1) still covers lambda; then the next outer radius
    shrinks further to meet the measure-decay rule delta_{j+1} < delta_j / j.

    The tail cutoff is a closed form.  Every shell is shell 1 dilated in
    measure, so the window cutoff is searched once, on shell 1, and
    dilated, and every shell takes shell 1's normalizing gradient norm
    (``_shell_at``); ``verify_system`` checks both norms, the quotient and
    both cutoff conditions at every shell.  Raises ResourceError once a
    shell's delta or cutoff measure is below the normal double range.
    """
    if (not isinstance(m, (int, np.integer)) or isinstance(m, bool)
            or m < 1):
        raise ValidationError("shell count m must be a positive integer")
    if eps1 <= 0 or eps2 <= 0:
        raise ValidationError("eps1 and eps2 must be positive")
    _certified_floor(lam, eps1, eps2)
    bound = LorentzParams(params.p, params.q, cone)
    gammas = gamma_sequence(bound, eps2, m)
    head_ratio, report = _head_ratio(cone, bound, lam)

    shells: list[ShellSpec] = []
    outer = 1.0
    for j in range(1, m + 1):
        delta = ball_measure(cone, outer)
        _check_representable(j, "delta", delta)
        profile, inner = _shell_at(cone, bound, head_ratio,
                                   report.denominator, outer)
        head = profile.table.t1[0].tolist()  # mu(B_{r_j})
        gamma = gammas[j - 1]
        tau_tail = _tail_cutoff(profile, bound, gamma)
        if j == 1:
            window_cut, delta_1 = _window_cutoff(
                profile, bound, lam, eps1, min(tau_tail, 0.75 * head)), delta
        tau_window = window_cut * (delta / delta_1)
        tau_feasible = 0.5 * min(tau_tail, tau_window, 0.75 * head)
        cutoff_measure = min(0.5 * tau_feasible, delta / (2.0 * j))
        _check_representable(j, "cutoff measure", cutoff_measure)
        cutoff_radius = cone.radius_of_measure(cutoff_measure)
        shells.append(ShellSpec(j, outer, inner, cutoff_radius, delta,
                                cutoff_measure, gamma, profile))
        outer = cutoff_radius
    system = AlmostExtremalSystem(cone, bound, lam, eps1, eps2,
                                  tuple(shells))
    verify_system(system)
    return system


def _check_representable(j: int, name: str, measure: float) -> None:
    """Raise ResourceError once shell j's measure is not a normal double."""
    if not measure >= sys.float_info.min:
        raise ResourceError(
            f"shell {j}: its {name} {measure!r} is below the smallest "
            f"normal double; only systems of at most {j - 1} shells are "
            f"representable with these parameters")


def verify_system(system: AlmostExtremalSystem) -> dict:
    """Check every system invariant exactly; raise on any failure.

    Returns a report dict with the measured values for each shell.  The
    checks run once per system object, whose report is kept (a failed
    check keeps nothing and raises again); every call returns a copy of
    it.  ``prefix`` and ``dataclasses.replace`` make new objects, so their
    systems are checked on their first call.
    """
    return copy.deepcopy(system._verification)


def _verification_report(system: AlmostExtremalSystem) -> dict:
    """The checks and the report of ``verify_system``."""
    cone, bound = system.cone, system.params
    star = bound.star_params()
    e_norm = embedding_norm(cone, bound)
    if not 0.0 < system.lam < e_norm:
        raise InternalConsistencyError("lambda outside (0, ||E||)")
    budgets = [s.gamma for s in system.shells]
    if ell_q_norm(budgets, bound.q_prime) > system.eps2 * (1.0 + 1e-12):
        raise InternalConsistencyError("tail budgets exceed eps2")
    lam_q = system.lam ** bound.q
    inflate = (1.0 + system.eps1) ** bound.q
    report = {"shells": [], "lambda": system.lam, "embedding_norm": e_norm}
    grad_norms = lorentz_norms_distributional(
        [gradient_density(s.profile) for s in system.shells], bound)
    for k, (s, grad_norm) in enumerate(zip(system.shells, grad_norms)):
        fn_norm = lorentz_norm_rearranged(s.profile, star)
        if abs(grad_norm - 1.0) > _NORM_RTOL:
            raise InternalConsistencyError(
                f"shell {s.index}: gradient norm {grad_norm} is not 1")
        if abs(fn_norm - system.lam) > _NORM_RTOL * system.lam:
            raise InternalConsistencyError(
                f"shell {s.index}: function norm {fn_norm} is not lambda")
        if abs(fn_norm / grad_norm - system.lam) > _PIN_TOL * max(
                1.0, system.lam):
            raise InternalConsistencyError(
                f"shell {s.index}: quotient {fn_norm / grad_norm} is not "
                f"pinned to lambda")
        if not 0.0 < s.cutoff_radius < s.inner_radius < s.outer_radius:
            raise InternalConsistencyError(
                f"shell {s.index}: radii are not strictly nested")
        if not s.cutoff_measure < s.delta / s.index:
            raise InternalConsistencyError(
                f"shell {s.index}: measure decay delta/{s.index} violated")
        if s.cutoff_measure >= s.profile.t_max:
            raise InternalConsistencyError(
                f"shell {s.index}: cutoff ball is not inside the support")
        tail = restricted_norm(s.profile, star, t_cut=s.cutoff_measure)
        if tail > s.gamma * (1.0 + 1e-12):
            raise InternalConsistencyError(
                f"shell {s.index}: tail norm {tail} exceeds gamma")
        window = inflate * _window_energy(s.profile, bound,
                                          s.cutoff_measure)
        if window < lam_q * (1.0 - 1e-12):
            raise InternalConsistencyError(
                f"shell {s.index}: windowed energy fails to cover lambda^q")
        if k + 1 < system.m:
            nxt = system.shells[k + 1]
            if nxt.outer_radius != s.cutoff_radius:
                raise InternalConsistencyError(
                    "shell chain broken: outer radius mismatch")
            if nxt.profile.t_max > s.head_measure:
                raise InternalConsistencyError(
                    f"shell {s.index + 1} support leaks into the gradient "
                    f"annulus of shell {s.index}")
        report["shells"].append({
            "index": s.index, "gradient_norm": grad_norm,
            "function_norm": fn_norm, "tail_norm": tail,
            "windowed_energy_qth_power": window,
            "delta": s.delta, "cutoff_measure": s.cutoff_measure,
        })
    return report


# -- span arithmetic -----------------------------------------------------------
#
# The norms of sum alpha_j u_j and sum alpha_j grad u_j come from the span
# engine (``spans``), on the per-system law tables (``_span_tables``).

def _span_coefficients(system: AlmostExtremalSystem,
                       alpha: Sequence[float]) -> np.ndarray:
    """alpha as a one-row array: one to m finite entries, one per leading
    shell."""
    alpha = [float(a) for a in alpha]
    if not alpha or len(alpha) > system.m:
        raise ValidationError(
            f"alpha must have between 1 and {system.m} entries; "
            f"got {len(alpha)}")
    if not all(math.isfinite(a) for a in alpha):
        raise ValidationError("alpha entries must be finite")
    return np.array([alpha])


# -- certificates ---------------------------------------------------------------

def _superadditivity(system: AlmostExtremalSystem, alpha: Sequence[float],
                     lhs: float) -> tuple[float, float, bool]:
    floor = _certified_floor(system.lam, system.eps1, system.eps2)
    bound_val = floor * ell_q_norm(alpha, system.params.q)
    return lhs, bound_val, lhs >= bound_val * (1.0 - _CERT_SLACK)


def _gradient_upper(system: AlmostExtremalSystem, alpha: Sequence[float],
                    lhs: float) -> tuple[float, float, bool]:
    bound_val = ell_q_norm(alpha, system.params.q)
    return lhs, bound_val, lhs <= bound_val * (1.0 + _CERT_SLACK)


def superadditivity_certificate(system: AlmostExtremalSystem,
                                alpha: Sequence[float]
                                ) -> tuple[float, float, bool]:
    """||sum alpha_j u_j|| against (lambda/(1+eps1) - eps2) ||alpha||_q."""
    (lhs,) = span_norms(system._span_tables,
                        _span_coefficients(system, alpha), gradient=False)
    return _superadditivity(system, alpha, lhs)


def gradient_upper_certificate(system: AlmostExtremalSystem,
                               alpha: Sequence[float]
                               ) -> tuple[float, float, bool]:
    """||sum alpha_j grad u_j|| against ||alpha||_q (disjoint supports)."""
    (lhs,) = span_norms(system._span_tables,
                        _span_coefficients(system, alpha), gradient=True)
    return _gradient_upper(system, alpha, lhs)


@dataclass(frozen=True)
class BernsteinBound:
    """A certified Bernstein lower bound with its empirical witness."""

    certified: float
    empirical_minimum: float
    directions: int
    seed: int


class SpanSweep(NamedTuple):
    """Both certificates over the trials, and the Bernstein bound.

    The margins are the least relative slack over the trials:
    min(lhs/bound) - 1 for superadditivity and 1 - max(lhs/bound) for the
    gradient upper bound (inf without trials).
    """

    super_failures: int
    grad_failures: int
    bound: BernsteinBound
    super_margin: float
    grad_margin: float


def certify_span(system: AlmostExtremalSystem, trials: int, directions: int,
                 seed: int) -> SpanSweep:
    """Both certificates and the Bernstein bound from one sweep.

    Evaluates both span norms once on each of the first max(trials,
    directions) directions, the rows of default_rng(seed).standard_normal
    ((n, m)) (the same numbers as n draws of m), as one batch per span.
    Returns the failure counts and margins over the first ``trials`` and
    the bound (least function/gradient span-norm quotient, zero gradient
    norms skipped) over the first ``directions``.  Each norm equals what
    the certificate functions give for its direction, bit for bit.
    """
    if not all(isinstance(n, (int, np.integer)) and n >= 0
               for n in (trials, directions, seed)):
        raise ValidationError(
            "trials, directions and seed must be integers >= 0")
    alphas = np.random.default_rng(seed).standard_normal(
        (max(trials, directions), system.m))
    nums = span_norms(system._span_tables, alphas, gradient=False)
    dens = span_norms(system._span_tables, alphas, gradient=True)
    supers = [_superadditivity(system, a, lhs)
              for a, lhs in zip(alphas[:trials], nums)]
    grads = [_gradient_upper(system, a, lhs)
             for a, lhs in zip(alphas[:trials], dens)]
    low = min((num / den for num, den in zip(nums[:directions],
                                             dens[:directions])
               if den != 0.0), default=math.inf)
    return SpanSweep(
        sum(not ok for _, _, ok in supers), sum(not ok for _, _, ok in grads),
        BernsteinBound(_certified_floor(system.lam, system.eps1,
                                        system.eps2), low, directions, seed),
        min((lhs / bound - 1.0 for lhs, bound, _ in supers),
            default=math.inf),
        min((1.0 - lhs / bound for lhs, bound, _ in grads),
            default=math.inf))


def bernstein_lower_bound(system: AlmostExtremalSystem,
                          directions: int = 5000,
                          seed: int = 0) -> BernsteinBound:
    """The certified bound lambda/(1+eps1) - eps2, with a random sweep.

    Every direction of the shell span has Sobolev quotient at least the
    certified value; the sweep over random directions reports the
    empirical minimum as a direct witness.
    """
    return certify_span(system, 0, directions, seed).bound


def absolute_continuity_witness(system: AlmostExtremalSystem,
                                g: RadialProfile) -> list[float]:
    """Restricted norms of g along the system's shrinking supports.

    Returns [ ||g chi_{B_{R_j}}|| for j = 1..m ]: nonincreasing, and
    vanishing as the supports shrink, which is what defeats any fixed
    finite cover in the non-compactness argument.
    """
    star = system.params.star_params()
    return [restricted_norm(g, star, t_cut=s.delta)
            for s in system.shells]
