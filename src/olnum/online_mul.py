"""On-line multiplication: most-significant-digit-first product emission.

The state carries the auxiliary value W both exactly (for invariant
monitoring) and as a digit window (what the selection actually consults).
With monitoring enabled every step asserts, in exact arithmetic, the
defining identity W_k = beta^k (X_k Y_k - P_{k-1}), the containment of W_k
in the fattened beta*I and the agreement of windowed and exact selection.
The boundedness of the consulted window is enforced with monitoring on or
off.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Iterable

from .errors import DomainError, OlnumError
from .field import ComplexQuad, RationalInterval
from .numeration import DigitString, NumerationSystem
from .params import ParamSet
from .region import (
    OLCertificate,
    VARIANT_MU_NU,
    digit_select,
    region_contains,
    region_dist_sq,
)
from .select import Window, below_growth_threshold, select_m, select_m_extended, window_encode

SelectFn = Callable[[NumerationSystem, OLCertificate, Window], int]
ExactFn = Callable[[NumerationSystem, OLCertificate, ComplexQuad], int]


def generic_mult_select(sys: NumerationSystem, cert: OLCertificate, w: Window) -> int:
    return select_m(cert, sys, w)


def extended_mult_select(sys: NumerationSystem, cert: OLCertificate, w: Window) -> int:
    return select_m_extended(cert, sys, w)


def generic_mult_exact(sys: NumerationSystem, cert: OLCertificate, v: ComplexQuad) -> int:
    return digit_select(cert, sys, v)


def extended_mult_exact(sys: NumerationSystem, cert: OLCertificate, v: ComplexQuad) -> int:
    if below_growth_threshold(sys, cert, v):
        return sys.zero_index
    return digit_select(cert, sys, v)


class InvariantViolation(OlnumError):
    pass


def check_int_window(k: int, window: Window, bound: int | None) -> None:
    """The consulted window's integer part stays within the preset bound;
    enforced by both mul and div steps whether or not monitoring is on."""
    if bound is not None and window.int_len() > bound:
        raise InvariantViolation(f"step {k}: window integer part exceeds the preset bound")


@dataclass
class MulState:
    sys: NumerationSystem
    cert: OLCertificate
    params: ParamSet
    select_fn: SelectFn = generic_mult_select
    exact_fn: ExactFn = generic_mult_exact
    check: bool = True
    max_int_window: int | None = None
    k: int = 0
    w: ComplexQuad = field(default_factory=ComplexQuad.zero)
    x_partial: ComplexQuad = field(default_factory=ComplexQuad.zero)
    y_partial: ComplexQuad = field(default_factory=ComplexQuad.zero)
    p_prev: int = -1
    p_partial: ComplexQuad = field(default_factory=ComplexQuad.zero)
    emitted: list[int] = field(default_factory=list)
    w_window: Window | None = None

    def __post_init__(self):
        if self.p_prev < 0:
            self.p_prev = self.sys.zero_index


def mul_step(state: MulState, x_idx: int, y_idx: int) -> tuple[MulState, int]:
    sys, cert = state.sys, state.cert
    k = state.k + 1
    bpk = sys.beta_pow(-k)
    x_new = state.x_partial + sys.digit(x_idx) * bpk
    w_new = (state.w - sys.digit(state.p_prev)) * sys.base + (
        sys.digit(x_idx) * state.y_partial + sys.digit(y_idx) * x_new
    )
    window = window_encode(sys, cert, w_new, state.params.window_l)
    check_int_window(k, window, state.max_int_window)
    p = state.select_fn(sys, cert, window)
    y_new = state.y_partial + sys.digit(y_idx) * bpk

    if state.check:
        _check_step(state, k, w_new, x_new, y_new, window, p)

    state.k = k
    state.w = w_new
    state.x_partial = x_new
    state.y_partial = y_new
    state.p_partial = state.p_partial + sys.digit(p) * bpk
    state.p_prev = p
    state.w_window = window
    state.emitted.append(p)
    return state, p


def _in_growth_phase(sys: NumerationSystem, cert: OLCertificate, w: ComplexQuad, p: int) -> bool:
    """Non-negative alphabets exclude zero from the region; until W climbs
    into the selection domain the emitted digit is 0 and the containment
    invariants do not yet apply."""
    if cert.contains_zero or not cert.region.is_interval or p != sys.zero_index:
        return False
    if not w.is_real() or w.re.sign() < 0:
        return False
    lam, _ = cert.region.interval_bounds()
    return lam.sign() > 0 and below_growth_threshold(sys, cert, w)


def _check_step(state: MulState, k, w_new, x_new, y_new, window, p) -> None:
    sys, cert = state.sys, state.cert
    expected = sys.beta_pow(k) * (x_new * y_new - state.p_partial)
    if not (w_new - expected).is_zero():
        raise InvariantViolation(f"step {k}: recurrence disagrees with beta^k (X_k Y_k - P_(k-1))")
    # windowed pipeline vs exact-arithmetic selection at the same truncation
    from .select import window_value

    exact = state.exact_fn(sys, cert, window_value(sys, window))
    if exact != p:
        raise InvariantViolation(f"step {k}: windowed selection {p} differs from exact selection {exact}")
    if _in_growth_phase(sys, cert, w_new, p):
        return
    fatten = cert.mult_fatten()
    dist = region_dist_sq(cert.beta_region(sys), w_new)
    if (dist - fatten * fatten).sign() > 0:
        raise InvariantViolation(f"step {k}: W left the fattened selection region")
    # selection remainder stays inside the certificate region (exact state)
    rem = w_new - sys.digit(p)
    if cert.variant == VARIANT_MU_NU:
        assert cert.mu is not None
        rem_dist = region_dist_sq(cert.region, rem)
        if (rem_dist - cert.mu * cert.mu).sign() > 0:
            raise InvariantViolation(f"step {k}: selection remainder left the fattened region")
    elif not region_contains(cert.region, rem):
        raise InvariantViolation(f"step {k}: selection remainder left the region")


def materialize_stream(source: Iterable[int], limit: int) -> list[int]:
    """Accept a sequence or any (possibly lazy) iterable of digit indices,
    pulling at most limit digits."""
    if isinstance(source, (list, tuple)):
        return list(source[:limit])
    return list(islice(iter(source), limit))


def mul_run(
    sys: NumerationSystem,
    cert: OLCertificate,
    params: ParamSet,
    xs: Iterable[int],
    ys: Iterable[int],
    n: int,
    select_fn: SelectFn = generic_mult_select,
    exact_fn: ExactFn = generic_mult_exact,
    check: bool = True,
    max_int_window: int | None = None,
    trace_fn: Callable[[dict], None] | None = None,
) -> DigitString:
    """Run n steps; operand digit j of the algorithm is 0 for j <= delta and
    xs[j - delta - 1] afterwards (zero-padded when exhausted).  Operands may
    be sequences or lazy iterators supplying digits incrementally."""
    if params.mode != "mult":
        raise DomainError("parameter set is not for multiplication")
    state = MulState(
        sys, cert, params, select_fn=select_fn, exact_fn=exact_fn,
        check=check, max_int_window=max_int_window,
    )
    delta = params.delta
    zero = sys.zero_index
    xs = materialize_stream(xs, n)
    ys = materialize_stream(ys, n)
    for k in range(1, n + 1):
        j = k - delta - 1
        x = xs[j] if 0 <= j < len(xs) else zero
        y = ys[j] if 0 <= j < len(ys) else zero
        _, p = mul_step(state, x, y)
        if trace_fn is not None:
            trace_fn({
                "k": k,
                "digit": sys.symbol(p),
                "w": state.w,
                "window": state.w_window,
            })
    return DigitString.make(sys, [zero], state.emitted)


def mult_error_constant(sys: NumerationSystem, cert: OLCertificate) -> RationalInterval:
    """C with |X*Y - value(P_n)| <= C * |beta|^-n: sup|W| + A where the
    supremum runs over the fattened beta*I."""
    from fractions import Fraction

    prec = Fraction(1, 10**9)
    fatten = cert.mult_fatten().to_interval(prec)
    sup_w = sys.abs_beta(prec) * cert.k_bound + fatten
    return sup_w + sys.a_max(prec)
