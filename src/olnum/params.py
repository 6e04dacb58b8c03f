"""Derivation of on-line run parameters: delay, window length and the
division truncation radius, certified by exact field comparisons where the
constants stay in the quadratic field and by escalating rational intervals
otherwise.  Every returned exponent is minimal: the defining inequality is
re-checked to fail one step earlier.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor

from .errors import DomainError
from .field import RationalInterval, RealQuad, sqrt_interval
from .numeration import NumerationSystem
from .region import OLCertificate

_MAX_EXP = 4096


@dataclass(frozen=True)
class ParamSet:
    delta: int
    window_l: int
    mode: str
    alpha: Fraction | None = None
    d_min: RationalInterval | None = None


def _first_k(pred, start: int) -> int:
    k = start
    while k < start + _MAX_EXP:
        if pred(k):
            return k
        k += 1
    raise DomainError("no exponent satisfies the inequality within the search cap")


_P0 = Fraction(1, 10**6)  # the first precision _certainly_less tries


def _least_k(pred, start: int, sys: NumerationSystem, ratio: RationalInterval) -> int:
    """Least k >= start at which pred, the monotone statement ratio < |beta|^k,
    holds: bracketed from one enclosure (|beta|^k <= ratio.lo below the
    bracket), then certified by pred holding at k and failing at k - 1."""
    ab, k, power = sys.abs_beta(_P0).hi, 0, Fraction(1)
    while power <= ratio.lo and k < start + _MAX_EXP:
        k, power = k + 1, power * ab
    k = _first_k(pred, max(k, start))
    while k > start and pred(k - 1):
        k -= 1
    return k


def _least_power(sys: NumerationSystem, cert: OLCertificate, lhs_fn, start: int) -> int:
    """Least k >= start with lhs < (eps/2) |beta|^k, lhs enclosed by lhs_fn(prec)."""
    def pred(k):
        return _certainly_less(lhs_fn, lambda p: cert.epsilon.to_interval(p) * sys.abs_beta(p).pow_int(k) / 2)
    return _least_k(pred, start, sys, 2 * lhs_fn(_P0) / cert.epsilon.to_interval(_P0))


def _certainly_less(lhs_fn, rhs_fn) -> bool:
    """Strict comparison of interval-valued quantities with escalation;
    raises when undecidable at the precision cap."""
    prec = _P0
    for _ in range(24):
        lhs = lhs_fn(prec)
        rhs = rhs_fn(prec)
        if lhs.hi < rhs.lo:
            return True
        if lhs.lo >= rhs.hi:
            return False
        prec /= 2**12
    raise DomainError("comparison undecided within interval resolution")


def mult_params(sys: NumerationSystem, cert: OLCertificate) -> ParamSet:
    if cert.selects_nearest:
        raise DomainError("mu/nu certificates use the dedicated frontier derivation")
    eps_half = cert.epsilon / 2
    beta_abs = sys.abs_beta_exact()
    a_exact = sys.a_sq.sqrt_exact()

    def least_power_exact(c: RealQuad, start: int) -> int:  # c < (eps/2) |beta|^k, decided in the field
        return _least_k(lambda k: (eps_half * beta_abs**k - c).sign() > 0, start, sys, (c / eps_half).to_interval(_P0))

    if beta_abs is not None:
        delta = least_power_exact((sys.a_sq + sys.a_sq) / (beta_abs - 1), 1)
    else:
        delta = _least_power(sys, cert, lambda p: 2 * sys.a_sq.to_interval(p) / (sys.abs_beta(p) - 1), 1)
    if beta_abs is not None and a_exact is not None:
        window_l = least_power_exact(a_exact / (beta_abs - 1), 0)
    else:
        window_l = _least_power(sys, cert, lambda p: sys.a_max(p) / (sys.abs_beta(p) - 1), 0)
    return ParamSet(delta=delta, window_l=window_l, mode="mult")


ALPHA_FRACTION = Fraction(7, 8)
_GRID = 10**9


def round_down(fr: Fraction, grid: int = _GRID) -> Fraction:
    return Fraction(floor(fr * grid), grid)


def round_up(fr: Fraction, grid: int = _GRID) -> Fraction:
    return Fraction(ceil(fr * grid), grid)


def div_alpha(sys: NumerationSystem, cert: OLCertificate, d_min: RationalInterval) -> Fraction:
    """Truncation radius of the division windows: 7/8 of the supremum of
    alpha (1 + |beta| K + eps) < (eps/2) d_min, rounded down and re-checked."""
    if cert.selects_nearest:
        raise DomainError("mu/nu certificates use the dedicated frontier derivation")
    if d_min.lo <= 0:
        raise DomainError("the divisor lower bound must be certainly positive")

    def alpha_sup(prec):
        eps = cert.epsilon.to_interval(prec)
        denom = 1 + sys.abs_beta(prec) * cert.k_bound + eps
        return (eps / 2) * RationalInterval.point(d_min.lo) / denom

    alpha = round_down(ALPHA_FRACTION * alpha_sup(Fraction(1, 10**9)).lo, 10**12)
    if alpha <= 0:
        raise DomainError("alpha derivation collapsed to zero")
    # defining inequality check for the chosen alpha
    if not _certainly_less(
        lambda p: RationalInterval.point(alpha) * (1 + sys.abs_beta(p) * cert.k_bound + cert.epsilon.to_interval(p)),
        lambda p: cert.epsilon.to_interval(p) * RationalInterval.point(d_min.lo) / 2,
    ):
        raise DomainError("alpha inequality not satisfiable at this precision")
    return alpha


def div_params(sys: NumerationSystem, cert: OLCertificate, d_min: RationalInterval) -> ParamSet:
    alpha = div_alpha(sys, cert, d_min)

    def delta_lhs(prec):
        a = sys.a_max(prec)
        ab = sys.abs_beta(prec)
        eps = cert.epsilon.to_interval(prec)
        return (a / RationalInterval.point(d_min.lo)) * (1 + a / (ab - 1) + cert.k_bound + eps)

    delta = _least_power(sys, cert, delta_lhs, 1)
    window_l = _least_k(
        lambda k: _certainly_less(
            lambda p: sys.a_max(p) / (sys.abs_beta(p).pow_int(k) * (sys.abs_beta(p) - 1)),
            lambda p: RationalInterval.point(alpha),
        ),
        0,
        sys,
        sys.a_max(_P0) / ((sys.abs_beta(_P0) - 1) * alpha),
    )
    return ParamSet(delta=delta, window_l=window_l, mode="div", alpha=alpha, d_min=d_min)


# -- Eisenstein mu/nu frontier -------------------------------------------------------


@dataclass(frozen=True)
class FrontierPoint:
    delta: int
    window_l: int
    mu: Fraction
    nu: Fraction


_SQRT3 = RealQuad.sqrt_d(3)
_R_BUDGET = RealQuad(0, 1, 6, 3)  # sqrt(3)/6


def _budget_ok(mu: Fraction, nu: Fraction) -> bool:
    lhs = _SQRT3 * RealQuad.from_fraction(mu) + RealQuad.from_fraction(nu)
    return (_R_BUDGET - lhs).sign() >= 0


def _eis_constants(prec: Fraction):
    s3 = sqrt_interval(3, prec)
    s7 = sqrt_interval(7, prec)
    d_max = s7 / 2
    d_min = s3 * (6 - s7) / 18
    k = s3 / 3
    r = s3 / 6
    return s3, s7, d_max, d_min, k, r


def _eis_mult_mins(delta: int, L: int, prec: Fraction):
    s3, s7, _, _, _, _ = _eis_constants(prec)
    mu_min = s7 / s3.pow_int(L)
    nu_min = s7 / s3.pow_int(delta)
    return mu_min, nu_min


def _eis_div_mins(delta: int, L: int, mu: RationalInterval, prec: Fraction):
    s3, s7, d_max, d_min, k, r = _eis_constants(prec)
    mu_min = 2 * d_max * (s3 * k + r + 1) / (d_min * s3.pow_int(L))
    nu_min = (d_max + 1 + k + mu) / (d_min * s3.pow_int(delta))
    return mu_min, nu_min


_WITNESS_MARGINS = (
    Fraction(21, 20),
    Fraction(101, 100),
    Fraction(1001, 1000),
    Fraction(1000001, 1000000),
)


def _eis_feasible(kind: str, delta: int, L: int) -> FrontierPoint | None:
    prec = Fraction(1, 10**8)
    for _ in range(12):
        if kind == "mult":
            mu_min, nu_min0 = _eis_mult_mins(delta, L, prec)
        else:
            mu_min, _ = _eis_div_mins(delta, L, RationalInterval.point(0), prec)
        for margin in _WITNESS_MARGINS:
            mu_w = round_up(mu_min.hi * margin)
            if kind == "mult":
                nu_min = nu_min0
            else:
                _, nu_min = _eis_div_mins(delta, L, RationalInterval.point(mu_w), prec)
            nu_w = round_up(nu_min.hi * margin)
            if _budget_ok(mu_w, nu_w):
                return FrontierPoint(delta, L, mu_w, nu_w)
        # certainly infeasible? lower bounds already break the budget
        if kind == "mult":
            nu_lb = nu_min0
        else:
            _, nu_lb = _eis_div_mins(delta, L, RationalInterval.point(mu_min.lo), prec)
        lhs_lo = RealQuad.from_fraction(mu_min.lo) * _SQRT3 + RealQuad.from_fraction(nu_lb.lo)
        if (lhs_lo - _R_BUDGET).sign() > 0:
            return None
        prec /= 2**10
    raise DomainError("mu/nu feasibility undecided within interval resolution")


def eisenstein_params(kind: str) -> list[FrontierPoint]:
    """Pareto frontier of (delta, L) pairs, delta and L at most 24, admitting
    rational mu, nu > 0 within the covering budget, with re-verified
    witnesses."""
    if kind not in ("mult", "div"):
        raise DomainError("kind must be 'mult' or 'div'")
    found: list[FrontierPoint] = []
    best_l: int | None = None
    for delta in range(1, 25):
        hi = best_l if best_l is not None else 25
        choice: FrontierPoint | None = None
        for L in range(1, hi):
            point = _eis_feasible(kind, delta, L)
            if point is not None:
                choice = point
                break
        if choice is None:
            continue
        if best_l is None or choice.window_l < best_l:
            found.append(choice)
            best_l = choice.window_l
    for point in found:
        assert _budget_ok(point.mu, point.nu)
    return found
