"""On-line division: the division recurrence of the shared step engine, with
two-variable selection and containment monitoring.

The divisor must be preprocessed (first digit nonzero, every prefix modulus
at or above the certified minimum); the numerator lookahead of delta digits
is handled by the run, so callers feed plain aligned streams.  Before step 1
the run reads the first delta divisor digits; step k then reads numerator
digit k and divisor digit k + delta.  The divisor window, D's first L digits,
lives on the run state and changes only while they arrive (and once more when
the first nonzero digit beyond them does); its reciprocal and its d_min test
are computed once per window.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Iterable

from .errors import DomainError
from .field import ZERO_POINT, ComplexQuad, Point, RationalInterval, point_add, point_mul, reduce_point
from .numeration import DigitString, NumerationSystem, inv_beta_pow
from .online_mul import InvariantViolation, OnlineState, check_containment, operand_stream, run_online
from .params import ParamSet
from .region import OLCertificate, select_d_exact
from .select import Window, generic_tail_bound, select_d

DivSelectFn = Callable[[NumerationSystem, OLCertificate, Window, Window], int]


def make_generic_div_select(alpha: Fraction, d_min: RationalInterval) -> DivSelectFn:
    def fn(sys: NumerationSystem, cert: OLCertificate, w: Window, d: Window) -> int:
        return select_d(cert, sys, w, d, alpha, d_min)
    return fn


def _read_divisor(state: OnlineState, d_idx: int) -> None:
    """Append the next divisor digit to D and its window; the first must be
    nonzero and, when monitoring, every prefix stays at or above d_min."""
    sys, L, kern = state.sys, state.params.window_l, state.kern
    pos = len(state.d_digits) + 1
    if pos == 1 and d_idx == sys.zero_index:
        raise DomainError("divisor must be preprocessed: first digit nonzero")
    state.d_digits.append(d_idx)
    state.d_pow = reduce_point(point_mul(kern.inv_beta, state.d_pow, kern.d))
    state.y_partial = state.advance(state.y_partial, d_idx, state.d_pow)
    if pos <= L:
        state.d_window = Window(DigitString((sys.zero_index,), tuple(state.d_digits)), L,
                                RationalInterval.point(0), state.y_partial, kern.d)
    elif d_idx != sys.zero_index and not state.d_window.tail_bound.hi:
        state.d_window = replace(state.d_window, tail_bound=generic_tail_bound(sys, L))
    if state.check and kern.value(state.y_partial).norm_sq() < state.params.d_min.lo ** 2:
        raise InvariantViolation(f"divisor prefix D_{pos} falls below the certified minimum modulus")


def div_step(state: OnlineState, n_idx: int, d_idx: int) -> tuple[Point, tuple[Window, ...]]:
    """W_k = beta (W_{k-1} - q_{k-1} D_{k+delta-1}) + (n_{k+delta} - Q_{k-1} d_{k+delta}) beta^-delta;
    N and D advance to position k + delta, so N's new digit has D's power."""
    kern, d = state.kern, state.kern.d
    d_prev = state.y_partial
    _read_divisor(state, d_idx)
    state.x_partial = state.advance(state.x_partial, n_idx, state.d_pow)
    w_new = point_add(
        point_mul(kern.beta, point_add(state.w, point_mul(state.last_digit(), d_prev, d), -1), d),
        point_mul(inv_beta_pow(state.sys, state.params.delta),
                  point_add(kern.digits[n_idx], point_mul(state.out_partial, kern.digits[d_idx], d), -1), d))
    return reduce_point(w_new), (state.d_window,)


def _check_step(state: OnlineState, k: int, w_new: ComplexQuad, q: int, w_window: Window, d_window: Window) -> None:
    sys, cert, value = state.sys, state.cert, state.kern.value
    d = value(state.y_partial)
    expected = state.beta_k * (value(state.x_partial) - value(state.out_partial) * d)
    if not (w_new - expected).is_zero():
        raise InvariantViolation(f"step {k}: recurrence disagrees with beta^k (N - Q D)")
    # windowed pipeline vs exact-arithmetic selection at the same truncation
    exact = select_d_exact(cert, sys, w_window.value, d_window.value)
    if exact != q:
        raise InvariantViolation(f"step {k}: windowed selection {q} differs from exact selection {exact}")
    check_containment(state, k, w_new / d, q, cert.div_fatten(sys), cert.div_slack, "W/D")


@dataclass(frozen=True)
class DivResult:
    digits: DigitString
    numerator_shift: int


def div_run(
    sys: NumerationSystem,
    cert: OLCertificate,
    params: ParamSet,
    ns: Iterable[int],
    ds: Iterable[int],
    n: int,
    select_fn: DivSelectFn,
    check: bool = True,
    max_int_window: int | None = None,
    trace_fn: Callable[[dict], None] | None = None,
) -> DivResult:
    """Divide: ns are the numerator digits (the run prepends delta zeros per
    the input convention), ds the preprocessed divisor digits (first digit
    nonzero); either may be a lazy iterator, of which step k pulls at most k
    numerator and k + delta divisor digits.  Returns the quotient digits and
    the extra numerator shift that keeps the quotient representable."""
    if params.mode != "div":
        raise DomainError("parameter set is not for division")
    if params.alpha is None or params.d_min is None:
        raise DomainError("division parameters need alpha and a divisor lower bound")
    if cert.right_of_zero:
        raise DomainError("division unavailable: the region lies right of zero (non-negative alphabet), "
                          "and division has no growth phase")
    extra_shift = _quotient_guard(sys, cert, params)
    state = OnlineState(sys, cert, params, select_fn=select_fn, check=check, max_int_window=max_int_window)
    ns = operand_stream(sys, ns, extra_shift)
    ds = operand_stream(sys, ds, 0)
    state.d_window = Window(DigitString((sys.zero_index,), ()), params.window_l,
                            RationalInterval.point(0), ZERO_POINT, state.kern.d)
    for _ in range(params.delta):
        _read_divisor(state, next(ds))
    digits = run_online(state, div_step, _check_step, ns, ds, n, trace_fn)
    return DivResult(digits, extra_shift)


def _quotient_guard(sys: NumerationSystem, cert: OLCertificate, params: ParamSet) -> int:
    """Extra numerator shift keeping |N/D| inside the quotient region for all
    operands, from the bounds alone: |N| <= d_max |beta|^-delta and |D| >= d_min,
    so the least s with d_max / (d_min |beta|^(delta+s)) <= K (0 for every preset)."""
    prec = Fraction(1, 10**9)
    ab = sys.abs_beta(prec).lo
    ratio = sys.d_max(prec).hi / (params.d_min.lo * ab ** params.delta)
    shift = 0
    while ratio > cert.k_bound.lo and shift < 64:
        ratio /= ab
        shift += 1
    return shift


def div_error_constant(sys: NumerationSystem, cert: OLCertificate, d_min: RationalInterval) -> RationalInterval:
    """C with |N/D - value(Q_n)| <= C * |beta|^-n for exhausted inputs."""
    prec = Fraction(1, 10**9)
    fatten = cert.div_fatten(sys).to_interval(prec)
    d_max = sys.d_max(prec)
    sup_w = d_max * (sys.abs_beta(prec) * cert.k_bound + fatten)
    return (sup_w + sys.a_max(prec) * d_max) / RationalInterval.point(d_min.lo)
