"""On-line division with two-variable selection and containment monitoring.

The divisor must be preprocessed (first digit nonzero, every prefix modulus
at or above the certified minimum); the numerator lookahead of delta digits
is handled inside the state, so callers feed plain aligned streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .errors import DomainError
from .field import ComplexQuad, RationalInterval, RealQuad
from .numeration import DigitString, NumerationSystem, eval_digits
from .online_mul import InvariantViolation, check_int_window
from .params import ParamSet
from .region import OLCertificate, VARIANT_MU_NU, region_dist_sq
from .select import Window, select_d, select_d_exact, truncate, window_encode, window_value

DivSelectFn = Callable[[NumerationSystem, OLCertificate, Window, Window], int]


def make_generic_div_select(alpha: Fraction, d_min: RationalInterval) -> DivSelectFn:
    def fn(sys: NumerationSystem, cert: OLCertificate, w: Window, d: Window) -> int:
        return select_d(cert, sys, w, d, alpha, d_min)
    return fn


@dataclass
class DivState:
    sys: NumerationSystem
    cert: OLCertificate
    params: ParamSet
    select_fn: DivSelectFn
    check: bool = True
    max_int_window: int | None = None
    k: int = 0
    w: ComplexQuad = field(default_factory=ComplexQuad.zero)
    d_partial: ComplexQuad = field(default_factory=ComplexQuad.zero)
    n_partial: ComplexQuad = field(default_factory=ComplexQuad.zero)
    q_prev: int = -1
    q_partial: ComplexQuad = field(default_factory=ComplexQuad.zero)
    d_digits: list[int] = field(default_factory=list)
    emitted: list[int] = field(default_factory=list)
    w_window: Window | None = None
    d_window: Window | None = None

    def __post_init__(self):
        if self.q_prev < 0:
            self.q_prev = self.sys.zero_index
        if self.params.d_min is None:
            raise DomainError("division parameters carry no divisor lower bound")
        self._dmin_hi_sq = RealQuad.from_fraction(self.params.d_min.hi ** 2)

    def prime(self, divisor_digits: Sequence[int]) -> None:
        """Consume the first delta divisor digits before step 1."""
        sys = self.sys
        for j in range(1, self.params.delta + 1):
            idx = divisor_digits[j - 1] if j - 1 < len(divisor_digits) else sys.zero_index
            self.d_digits.append(idx)
            self.d_partial = self.d_partial + sys.digit(idx) * sys.beta_pow(-j)
            if self.check:
                self._check_prefix(j)

    def _check_prefix(self, j: int) -> None:
        if (self.d_partial.norm_sq() - self._dmin_hi_sq).sign() < 0:
            raise InvariantViolation(f"divisor prefix D_{j} falls below the certified minimum modulus")


def div_step(state: DivState, n_idx: int, d_idx: int) -> tuple[DivState, int]:
    sys, cert = state.sys, state.cert
    k = state.k + 1
    delta = state.params.delta
    pos = k + delta
    d_prev = state.d_partial
    bpp = sys.beta_pow(-pos)
    state.d_partial = d_prev + sys.digit(d_idx) * bpp
    state.n_partial = state.n_partial + sys.digit(n_idx) * bpp
    state.d_digits.append(d_idx)
    w_new = (state.w - sys.digit(state.q_prev) * d_prev) * sys.base + (
        sys.digit(n_idx) - state.q_partial * sys.digit(d_idx)
    ) * sys.beta_pow(-delta)
    w_window = window_encode(sys, cert, w_new, state.params.window_l)
    check_int_window(k, w_window, state.max_int_window)
    d_window = truncate(sys, DigitString((sys.zero_index,), tuple(state.d_digits)), state.params.window_l)
    q = state.select_fn(sys, cert, w_window, d_window)

    if state.check:
        _check_step(state, k, w_new, q, w_window, d_window)

    state.k = k
    state.w = w_new
    state.q_partial = state.q_partial + sys.digit(q) * sys.beta_pow(-k)
    state.q_prev = q
    state.w_window = w_window
    state.d_window = d_window
    state.emitted.append(q)
    return state, q


def _check_step(state: DivState, k: int, w_new: ComplexQuad, q: int, w_window: Window, d_window: Window) -> None:
    sys, cert = state.sys, state.cert
    expected = sys.beta_pow(k) * (state.n_partial - state.q_partial * state.d_partial)
    if not (w_new - expected).is_zero():
        raise InvariantViolation(f"step {k}: recurrence disagrees with beta^k (N - Q D)")
    state._check_prefix(k + state.params.delta)
    fatten = cert.div_fatten(sys)
    z = w_new / state.d_partial
    dist = region_dist_sq(cert.beta_region(sys), z)
    if (dist - fatten * fatten).sign() > 0:
        raise InvariantViolation(f"step {k}: W/D left the fattened selection region")
    # windowed pipeline vs exact-arithmetic selection at the same truncation
    v = window_value(sys, w_window)
    delta = window_value(sys, d_window)
    exact = select_d_exact(cert, sys, v, delta)
    if exact != q:
        raise InvariantViolation(f"step {k}: windowed selection {q} differs from exact selection {exact}")
    # selection remainder stays inside the (half-slack) fattened region
    rem = z - sys.digit(q)
    if cert.variant == VARIANT_MU_NU:
        assert cert.mu is not None
        slack = cert.mu
    else:
        slack = cert.epsilon / 2
    rem_dist = region_dist_sq(cert.region, rem)
    if (rem_dist - slack * slack).sign() > 0:
        raise InvariantViolation(f"step {k}: selection remainder left the fattened region")


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
    select_fn: DivSelectFn | None = None,
    check: bool = True,
    max_int_window: int | None = None,
    trace_fn: Callable[[dict], None] | None = None,
) -> DivResult:
    """Divide: ns are the numerator digits (the run prepends delta zeros per
    the input convention), ds the preprocessed divisor digits (first digit
    nonzero).  Returns the quotient digits and any extra numerator shift that
    was applied to keep the quotient representable."""
    if params.mode != "div":
        raise DomainError("parameter set is not for division")
    if params.alpha is None or params.d_min is None:
        raise DomainError("division parameters need alpha and a divisor lower bound")
    from .online_mul import materialize_stream

    ns = materialize_stream(ns, n)
    ds = materialize_stream(ds, n + params.delta)
    if not ds or ds[0] == sys.zero_index:
        raise DomainError("divisor must be preprocessed: first digit nonzero")
    if select_fn is None:
        select_fn = make_generic_div_select(params.alpha, params.d_min)

    extra_shift = _quotient_guard(sys, cert, params, ns, ds)
    shifted_ns = [sys.zero_index] * extra_shift + list(ns)

    state = DivState(sys, cert, params, select_fn, check=check, max_int_window=max_int_window)
    state.prime(ds)
    delta = params.delta
    zero = sys.zero_index
    for k in range(1, n + 1):
        pos = k + delta
        j = pos - delta - 1  # numerator digit index after the delta-zero prefix
        n_idx = shifted_ns[j] if 0 <= j < len(shifted_ns) else zero
        d_idx = ds[pos - 1] if pos - 1 < len(ds) else zero
        _, q = div_step(state, n_idx, d_idx)
        if trace_fn is not None:
            trace_fn({
                "k": k,
                "digit": sys.symbol(q),
                "w": state.w,
                "window": state.w_window,
                "d_window": state.d_window,
            })
    return DivResult(DigitString.make(sys, [zero], state.emitted), extra_shift)


def _quotient_guard(sys, cert, params, ns, ds) -> int:
    """Extra numerator shift so that |N/D| certainly fits the quotient
    region; zero for convention-respecting inputs."""
    prec = Fraction(1, 10**9)
    n_value = eval_digits(sys, DigitString.make(sys, [sys.zero_index], list(ns)))
    d_value = eval_digits(sys, DigitString.make(sys, [sys.zero_index], list(ds)))
    if d_value.is_zero():
        raise DomainError("divisor evaluates to zero")
    n_abs = n_value.abs_interval(prec)
    d_abs = d_value.abs_interval(prec)
    ab = sys.abs_beta(prec)
    quota = cert.k_bound.lo
    # account for the delta zeros the run prepends
    ratio = (n_abs / RationalInterval.point(d_abs.lo)).hi / ab.lo ** params.delta
    shift = 0
    while ratio > quota and shift < 64:
        ratio /= ab.lo
        shift += 1
    return shift


def div_error_constant(sys: NumerationSystem, cert: OLCertificate, d_min: RationalInterval) -> RationalInterval:
    """C with |N/D - value(Q_n)| <= C * |beta|^-n for exhausted inputs."""
    prec = Fraction(1, 10**9)
    fatten = cert.div_fatten(sys).to_interval(prec)
    d_max = sys.d_max(prec)
    sup_w = d_max * (sys.abs_beta(prec) * cert.k_bound + fatten)
    return (sup_w + sys.a_max(prec) * d_max) / RationalInterval.point(d_min.lo)
