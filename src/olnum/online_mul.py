"""The on-line step engine and the multiplication recurrence.

Multiplication and division share one engine, ``run_online``: a scaled
residual W, its L-digit window, digit selection on the window, emission.
They differ only in the recurrence that advances W (``mul_step`` here,
``div_step`` in online_div).  Step k pulls one digit of each operand stream
when it reads it, not before.  With monitoring enabled every step asserts,
in exact arithmetic, the defining identity of W (for multiplication
W_k = beta^k (X_k Y_k - P_{k-1})), that the window's digits denote the value
selection used, W's containment in the fattened beta*I and the agreement of
windowed and exact selection.  The boundedness of the consulted window is
enforced with monitoring on or off.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, repeat
from typing import Callable, Iterable, Iterator

from .errors import DomainError, OlnumError
from .field import ComplexQuad, RationalInterval, RealQuad
from .numeration import DigitString, NumerationSystem, eval_digits, memo
from .params import ParamSet
from .region import OLCertificate, digit_select_exact, in_growth_phase, region_dist_sq
from .select import Window, select_m, window_encode

SelectFn = Callable[[NumerationSystem, OLCertificate, Window], int]
ExactFn = Callable[[NumerationSystem, OLCertificate, ComplexQuad], int]


def generic_mult_select(sys: NumerationSystem, cert: OLCertificate, w: Window) -> int:
    return select_m(cert, sys, w)


def generic_mult_exact(sys: NumerationSystem, cert: OLCertificate, v: ComplexQuad) -> int:
    return digit_select_exact(cert, sys, v)


class InvariantViolation(OlnumError):
    pass


@dataclass
class OnlineState:
    """One on-line run between steps: x_partial and y_partial are the operand
    prefixes read (X_k, Y_k; or N, D to position k + delta), out_partial the
    emitted value (P_k or Q_k).  select_fn also takes the divisor window in
    division, which alone uses d_digits, d_window (D's L-digit window) and
    d_pow (beta^-j after j divisor digits).  Each power advances by one
    multiplication per step: inv_pow is beta^-k, from the start of step k,
    and beta_k is beta^k, kept for the monitor."""

    sys: NumerationSystem
    cert: OLCertificate
    params: ParamSet
    select_fn: Callable[..., int]
    exact_fn: ExactFn = generic_mult_exact
    check: bool = True
    max_int_window: int | None = None
    k: int = 0
    w: ComplexQuad = field(default_factory=ComplexQuad.zero)
    x_partial: ComplexQuad = field(default_factory=ComplexQuad.zero)
    y_partial: ComplexQuad = field(default_factory=ComplexQuad.zero)
    out_partial: ComplexQuad = field(default_factory=ComplexQuad.zero)
    emitted: list[int] = field(default_factory=list)
    d_digits: list[int] = field(default_factory=list)
    d_window: Window | None = None
    inv_pow: ComplexQuad = field(default_factory=lambda: ComplexQuad.from_int(1))
    beta_k: ComplexQuad = field(default_factory=lambda: ComplexQuad.from_int(1))
    d_pow: ComplexQuad = field(default_factory=lambda: ComplexQuad.from_int(1))

    def last_digit(self) -> ComplexQuad:
        """Value of the digit emitted at the previous step (zero before step 1)."""
        return self.sys.digit(self.emitted[-1] if self.emitted else self.sys.zero_index)


def operand_stream(sys: NumerationSystem, source: Iterable[int], lead: int) -> Iterator[int]:
    """Digits of an operand by algorithm position: lead zeros, then the
    source's digits, then zeros once it is exhausted.  The source is pulled
    lazily, one digit per position read past the lead."""
    zero = sys.zero_index
    return chain(repeat(zero, lead), source, repeat(zero))


def run_online(
    state: OnlineState,
    step: Callable[[OnlineState, int, int], tuple[ComplexQuad, tuple[Window, ...]]],
    check_step: Callable[..., None],
    xs: Iterator[int],
    ys: Iterator[int],
    n: int,
    trace_fn: Callable[[dict], None] | None = None,
) -> DigitString:
    """Advance the state n steps.  Each step pulls one digit from xs and ys,
    lets the recurrence compute W_k (and any extra selection windows), then
    encodes, bounds and selects on the window, monitors and emits."""
    sys, cert = state.sys, state.cert
    if n < 0:
        raise DomainError("digit count must be non-negative")
    for _ in range(n):
        k = state.k + 1
        state.inv_pow = state.inv_pow * sys.inv_base
        w, extra = step(state, next(xs), next(ys))
        window = window_encode(sys, cert, w, state.params.window_l)
        if state.max_int_window is not None and window.int_len() > state.max_int_window:
            raise InvariantViolation(f"step {k}: window integer part exceeds the preset bound")
        digit = state.select_fn(sys, cert, window, *extra)
        if state.check:
            if eval_digits(sys, window.digits) != window.value:
                raise InvariantViolation(f"step {k}: window digits disagree with the value selected on")
            state.beta_k = state.beta_k * sys.base
            check_step(state, k, w, digit, window, *extra)
        state.k, state.w = k, w
        state.out_partial = state.out_partial + sys.digit(digit) * state.inv_pow
        state.emitted.append(digit)
        if trace_fn is not None:
            row = {"k": k, "digit": sys.symbol(digit), "w": w, "window": window}
            if extra:
                row["d_window"] = extra[0]
            trace_fn(row)
    return DigitString.make(sys, [sys.zero_index], state.emitted)


def mul_step(state: OnlineState, x_idx: int, y_idx: int) -> tuple[ComplexQuad, tuple[Window, ...]]:
    """W_k = beta (W_{k-1} - p_{k-1}) + x_k Y_{k-1} + y_k X_k; X and Y advance to X_k, Y_k."""
    sys = state.sys
    bpk = state.inv_pow
    x_new = state.x_partial + sys.digit(x_idx) * bpk
    w_new = (state.w - state.last_digit()) * sys.base + (
        sys.digit(x_idx) * state.y_partial + sys.digit(y_idx) * x_new
    )
    state.x_partial = x_new
    state.y_partial = state.y_partial + sys.digit(y_idx) * bpk
    return w_new, ()


def check_containment(
    state: OnlineState, k: int, z: ComplexQuad, p: int, fatten: RealQuad, slack: RealQuad, name: str
) -> None:
    """The monitor's containment invariants, shared by both recurrences: z
    (W, or W/D in division) lies within fatten of beta*I, and the selection
    remainder z - p within slack of I (slack 0: inside I)."""
    sys, cert = state.sys, state.cert
    fatten_sq, slack_sq = memo(cert, ("bounds_sq", fatten, slack), lambda: (fatten * fatten, slack * slack))
    if (region_dist_sq(cert.beta_region(sys), z) - fatten_sq).sign() > 0:
        raise InvariantViolation(f"step {k}: {name} left the fattened selection region")
    if (region_dist_sq(cert.region, z - sys.digit(p)) - slack_sq).sign() > 0:
        region = "fattened region" if slack.sign() else "region"
        raise InvariantViolation(f"step {k}: selection remainder left the {region}")


def _check_step(state: OnlineState, k: int, w_new: ComplexQuad, p: int, window: Window) -> None:
    sys, cert = state.sys, state.cert
    expected = state.beta_k * (state.x_partial * state.y_partial - state.out_partial)
    if not (w_new - expected).is_zero():
        raise InvariantViolation(f"step {k}: recurrence disagrees with beta^k (X_k Y_k - P_(k-1))")
    # windowed pipeline vs exact-arithmetic selection at the same truncation
    exact = state.exact_fn(sys, cert, window.value)
    if exact != p:
        raise InvariantViolation(f"step {k}: windowed selection {p} differs from exact selection {exact}")
    # until W grows into the selection domain the digit is 0 and the
    # containment invariants do not yet apply
    if p == sys.zero_index and in_growth_phase(cert, sys, w_new):
        return
    check_containment(state, k, w_new, p, cert.mult_fatten(), cert.mult_slack, "W")


def mul_run(
    sys: NumerationSystem,
    cert: OLCertificate,
    params: ParamSet,
    xs: Iterable[int],
    ys: Iterable[int],
    n: int,
    select_fn: SelectFn,
    exact_fn: ExactFn = generic_mult_exact,
    check: bool = True,
    max_int_window: int | None = None,
    trace_fn: Callable[[dict], None] | None = None,
) -> DigitString:
    """Run n steps; operand digit j of the algorithm is 0 for j <= delta and
    xs[j - delta - 1] afterwards (zero-padded when exhausted).  Operands may
    be sequences or lazy iterators; step k pulls at most k - delta digits."""
    if params.mode != "mult":
        raise DomainError("parameter set is not for multiplication")
    state = OnlineState(sys, cert, params, select_fn=select_fn, exact_fn=exact_fn,
                        check=check, max_int_window=max_int_window)
    xs = operand_stream(sys, xs, params.delta)
    ys = operand_stream(sys, ys, params.delta)
    return run_online(state, mul_step, _check_step, xs, ys, n, trace_fn)


def mult_error_constant(sys: NumerationSystem, cert: OLCertificate) -> RationalInterval:
    """C with |X*Y - value(P_n)| <= C * |beta|^-n: sup|W| + A where the
    supremum runs over the fattened beta*I."""
    prec = Fraction(1, 10**9)
    fatten = cert.mult_fatten().to_interval(prec)
    sup_w = sys.abs_beta(prec) * cert.k_bound + fatten
    return sup_w + sys.a_max(prec)
