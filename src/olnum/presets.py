"""Bundled numeration systems: system, certificate, preprocessing rules and
run parameters, self-validated at load time.

Presets: golden-square (base (3+sqrt5)/2), golden-mean, knuth (base 2i),
eisenstein (base -1+omega), integer:<b>:<m>:<M>, base4.  Alphabets are
ordered by (|digit|, positives first) so that nearest-digit ties resolve to
the smaller digit, matching the specialized selection rules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable

from .errors import CertificateError, DomainError, ParseError
from .field import ComplexQuad, RationalInterval, RealQuad
from .numeration import DigitString, NumerationSystem, memo
from .online_div import DivResult, DivSelectFn, div_run, make_generic_div_select
from .online_mul import ExactFn, SelectFn, generic_mult_exact, generic_mult_select, mul_run
from .params import FrontierPoint, ParamSet, _eis_feasible, div_alpha, div_params, mult_params
from .preprocess import PreprocessSpec, RewriteRule, dmin_lower_bound, dmin_search, expand_rules, verify_rules
from .region import (
    ConvexPolygon,
    OLCertificate,
    real_interval_certificate,
    verify_certificate,
)
from .select import golden_d_rule, golden_m_rule, int_window_ceiling

_IV = Fraction(1, 10**9)


@dataclass
class Preset:
    """What a run reads, and the runs themselves: ``mul`` and ``div`` pass
    each mode's certificate, parameters, selectors and integer-window bound
    to the engine.  The generic parameters and the Eisenstein frontier are
    derived where they are printed (``olnum params``); the integer-window
    bounds and their floor are computed on first use and kept in ``cache``,
    which belongs to this preset alone.  Selection policy, such as the growth
    phase of non-negative alphabets, belongs to the certificate, so every
    preset shares one exact selector, ``mult_exact``."""

    name: str
    sys: NumerationSystem
    cert: OLCertificate
    div_cert: OLCertificate
    preprocess: PreprocessSpec | None
    mult_params: ParamSet
    div_params: ParamSet | None
    mult_select: SelectFn
    div_select: DivSelectFn | None
    mult_exact: ExactFn = field(default_factory=lambda: generic_mult_exact, init=False, repr=False, compare=False)
    cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def max_int_mult(self) -> int | None:
        """Integer positions a product window may occupy; None when the
        system has no floor to bound them (the run is then unbounded)."""
        return memo(self, "mult", lambda: _int_window_ceiling(self, self.cert.mult_fatten()))

    def max_int_div(self) -> int | None:
        return memo(self, "div", lambda: _int_window_ceiling(
            self, self.div_cert.div_fatten(self.sys), scaled_by_divisor=True))

    def mul(self, xs: Iterable[int], ys: Iterable[int], n: int, check: bool = True,
            trace_fn: Callable[[dict], None] | None = None) -> DigitString:
        """On-line product of two fractional operand streams (see mul_run)."""
        return mul_run(self.sys, self.cert, self.mult_params, xs, ys, n,
                       select_fn=self.mult_select, exact_fn=self.mult_exact, check=check,
                       max_int_window=self.max_int_mult(), trace_fn=trace_fn)

    def div(self, ns: Iterable[int], ds: Iterable[int], n: int, check: bool = True,
            trace_fn: Callable[[dict], None] | None = None) -> DivResult:
        """On-line quotient of a numerator stream by a preprocessed divisor
        stream (see div_run)."""
        if self.div_params is None:
            raise DomainError("division unavailable: no positive divisor bound for this system")
        return div_run(self.sys, self.div_cert, self.div_params, ns, ds, n,
                       select_fn=self.div_select, check=check,
                       max_int_window=self.max_int_div(), trace_fn=trace_fn)


def _window_floor(preset: Preset) -> RationalInterval | None:
    """dmin_search's floor of irreducible leading prefixes, shared by both
    integer-window bounds; None when there is none."""
    def search():
        try:
            return dmin_search(preset.sys, preset.preprocess.rules if preset.preprocess else (), depth_cap=8)[1]
        except DomainError:
            return None
    return memo(preset, "floor", search)


def _floor_is_analysis(preset: Preset) -> Preset:
    """Seed the floor with the preprocessing analysis where that analysis is
    dmin_search's own: the same rules, its first positive depth, the same
    enclosure (golden-square, golden-mean and the integer presets)."""
    if preset.preprocess.d_min.lo > 0:
        preset.cache["floor"] = preset.preprocess.d_min
    return preset


def _int_window_ceiling(preset: Preset, fatten: RealQuad, scaled_by_divisor: bool = False) -> int | None:
    floor = _window_floor(preset)
    if floor is None:
        return None
    sys = preset.sys
    reach = sys.abs_beta(_IV) * preset.cert.k_bound + fatten.to_interval(_IV)
    if scaled_by_divisor:
        reach = reach * sys.d_max(_IV)
    return int_window_ceiling(sys, reach.hi, floor)


def _int_digits(values: list[int]) -> tuple[list[ComplexQuad], list[str]]:
    ordered = sorted(values, key=lambda v: (abs(v), v < 0))
    return [ComplexQuad.from_int(v) for v in ordered], [str(v) for v in ordered]


def derived_preset(name: str, sys: NumerationSystem, cert: OLCertificate, spec: PreprocessSpec) -> Preset:
    """Preset with the generic selectors whose run parameters are all derived
    from the certificate and the divisor bound (division unavailable when that
    bound is not positive)."""
    gen_div = div_params(sys, cert, spec.d_min) if spec.d_min.lo > 0 else None
    return Preset(
        name=name,
        sys=sys,
        cert=cert,
        div_cert=cert,
        preprocess=spec,
        mult_params=mult_params(sys, cert),
        div_params=gen_div,
        mult_select=generic_mult_select,
        div_select=make_generic_div_select(gen_div.alpha, gen_div.d_min) if gen_div else None,
    )


def unruled_spec(sys: NumerationSystem) -> PreprocessSpec:
    """Preprocessing without rewrite rules: its divisor bound is positive only
    when zero has just the trivial representation (else the bound is 0)."""
    try:
        depth, d_min = dmin_search(sys, (), depth_cap=6)
    except DomainError:
        return PreprocessSpec(rules=(), d_min=RationalInterval.point(0), analysis_depth=0)
    return PreprocessSpec(rules=(), d_min=d_min, analysis_depth=depth)


def _validate(preset: Preset) -> Preset:
    for cert in {id(preset.cert): preset.cert, id(preset.div_cert): preset.div_cert}.values():
        result = verify_certificate(preset.sys, cert)
        if not result.passed:
            raise CertificateError(f"preset {preset.name}: bundled certificate failed verification: {result.reason}")
    if preset.preprocess:
        for rule, ok in verify_rules(preset.sys, preset.preprocess.rules):
            if not ok:
                raise CertificateError(f"preset {preset.name}: rule {rule} does not preserve value")
    return preset


def _golden_square() -> Preset:
    beta = ComplexQuad(RealQuad(3, 1, 2, 5))
    digits, symbols = _int_digits([-1, 0, 1])
    sys = NumerationSystem(beta, digits, symbols)
    cert = real_interval_certificate(sys)
    d_min = dmin_lower_bound(sys, (), 1)  # exact 1/beta^2

    def mult_select(s, c, w):
        return golden_m_rule(s, w)

    def div_select(s, c, w, d):
        return golden_d_rule(s, w, d)

    # the paper's (delta, L) with the generic alpha
    return _floor_is_analysis(Preset(
        name="golden-square",
        sys=sys,
        cert=cert,
        div_cert=cert,
        preprocess=PreprocessSpec(rules=(), d_min=d_min, analysis_depth=1),
        mult_params=ParamSet(delta=4, window_l=3, mode="mult"),
        div_params=ParamSet(delta=6, window_l=9, mode="div", alpha=div_alpha(sys, cert, d_min), d_min=d_min),
        mult_select=mult_select,
        div_select=div_select,
    ))


def _golden_mean() -> Preset:
    beta = ComplexQuad(RealQuad(1, 1, 2, 5))
    digits, symbols = _int_digits([-1, 0, 1])
    sys = NumerationSystem(beta, digits, symbols)
    cert = real_interval_certificate(sys)
    one = sys.index_of_symbol("1")
    neg = sys.index_of_symbol("-1")
    zero = sys.zero_index
    seeds = [
        RewriteRule((one, zero, neg), (zero, one, zero)),
        RewriteRule((one, neg, zero), (zero, zero, one)),
        RewriteRule((one, neg, neg), (zero, zero, zero)),
    ]
    rules = tuple(expand_rules(sys, seeds))
    d_min = dmin_lower_bound(sys, rules, 3)  # exact 1/beta^5
    return _floor_is_analysis(derived_preset("golden-mean", sys, cert, PreprocessSpec(rules=rules, d_min=d_min, analysis_depth=3)))


def _knuth() -> Preset:
    beta = ComplexQuad(RealQuad(0), RealQuad(2))
    digits, symbols = _int_digits([-2, -1, 0, 1, 2])
    sys = NumerationSystem(beta, digits, symbols)
    oblong = ConvexPolygon([
        ComplexQuad(RealQuad(5, 0, 9), RealQuad(-11, 0, 9)),
        ComplexQuad(RealQuad(5, 0, 9), RealQuad(11, 0, 9)),
        ComplexQuad(RealQuad(-5, 0, 9), RealQuad(11, 0, 9)),
        ComplexQuad(RealQuad(-5, 0, 9), RealQuad(-11, 0, 9)),
    ])
    cert = OLCertificate(oblong, RealQuad(1, 0, 18))
    d_min = RationalInterval.point(Fraction(1, 6))  # via the odd/even digit split
    return derived_preset("knuth", sys, cert, PreprocessSpec(rules=(), d_min=d_min, analysis_depth=1))


def eisenstein_system() -> NumerationSystem:
    half = RealQuad(1, 0, 2)
    s36 = RealQuad(0, 1, 2, 3)  # sqrt(3)/2
    omega = ComplexQuad(-half, s36)
    omega2 = ComplexQuad(-half, -s36)
    beta = ComplexQuad(RealQuad(-3, 0, 2), s36)
    values = [
        ComplexQuad.zero(), ComplexQuad.from_int(1), ComplexQuad.from_int(-1),
        omega, -omega, omega2, -omega2,
    ]
    symbols = ["0", "1", "-1", "w", "-w", "W", "-W"]
    return NumerationSystem(beta, values, symbols)


def eisenstein_hexagon() -> ConvexPolygon:
    half = RealQuad(1, 0, 2)
    s36 = RealQuad(0, 1, 6, 3)  # sqrt(3)/6
    s33 = RealQuad(0, 1, 3, 3)  # sqrt(3)/3
    z = RealQuad(0)
    return ConvexPolygon([
        ComplexQuad(half, -s36),
        ComplexQuad(half, s36),
        ComplexQuad(z, s33),
        ComplexQuad(-half, s36),
        ComplexQuad(-half, -s36),
        ComplexQuad(z, -s33),
    ])


def eisenstein_rules(sys: NumerationSystem) -> tuple[RewriteRule, ...]:
    idx = {s: sys.index_of_symbol(s) for s in sys.symbols}
    z, p1, m1 = idx["0"], idx["1"], idx["-1"]
    w, mw, w2, mw2 = idx["w"], idx["-w"], idx["W"], idx["-W"]
    seeds = [
        RewriteRule((p1, p1), (z, w)),                 # beta + (1 - omega) = 0
        RewriteRule((p1, mw), (z, m1)),
        RewriteRule((p1, z, w), (z, w, p1)),           # beta^2 + beta + omega - omega^2 = 0
        RewriteRule((p1, z, mw2), (z, m1, mw)),
        RewriteRule((p1, mw2, w), (z, w, w2)),
        RewriteRule((p1, mw2, mw2), (z, w, mw)),
        RewriteRule((p1, z, m1), (z, w, mw)),          # beta^2 - omega beta + omega - 1 = 0
        RewriteRule((p1, w2, m1), (z, m1, mw)),
        RewriteRule((p1, w2, w), (z, m1, p1)),
    ]
    return tuple(expand_rules(sys, seeds))


# (delta, L) per mode: the delay-minimal multiplication pair and the
# window-minimal division pair of the mu/nu frontiers (eisenstein_params), so
# that a load re-checks two points instead of sweeping both frontiers
EISENSTEIN_PAIRS = {"mult": (5, 7), "div": (10, 9)}


def _eisenstein_witness(kind: str) -> FrontierPoint:
    point = _eis_feasible(kind, *EISENSTEIN_PAIRS[kind])
    if point is None:
        raise CertificateError(f"preset eisenstein: pinned {kind} pair {EISENSTEIN_PAIRS[kind]} is infeasible")
    return point


def _eisenstein() -> Preset:
    sys = eisenstein_system()
    hexagon = eisenstein_hexagon()
    r = RealQuad(0, 1, 6, 3)  # sqrt(3)/6, the maximal covering slack
    mult_choice, div_choice = _eisenstein_witness("mult"), _eisenstein_witness("div")

    def mu_nu_cert(point: FrontierPoint) -> OLCertificate:
        mu, nu = RealQuad.from_fraction(point.mu), RealQuad.from_fraction(point.nu)
        return OLCertificate(hexagon, r, mu=mu, nu=nu)

    rules = eisenstein_rules(sys)
    d_min = dmin_lower_bound(sys, rules, 3)
    alpha = _eisenstein_alpha(sys, div_choice.mu, d_min)
    return Preset(
        name="eisenstein",
        sys=sys,
        cert=mu_nu_cert(mult_choice),
        div_cert=mu_nu_cert(div_choice),
        preprocess=PreprocessSpec(rules=rules, d_min=d_min, analysis_depth=3),
        mult_params=ParamSet(delta=mult_choice.delta, window_l=mult_choice.window_l, mode="mult"),
        div_params=ParamSet(delta=div_choice.delta, window_l=div_choice.window_l, mode="div", alpha=alpha, d_min=d_min),
        mult_select=generic_mult_select,
        div_select=make_generic_div_select(alpha, d_min),
    )


def _eisenstein_alpha(sys: NumerationSystem, mu: Fraction, d_min: RationalInterval) -> Fraction:
    # alpha = mu * D_min / (2 (1 + |beta| K + r)), rounded down
    from .params import round_down

    prec = Fraction(1, 10**9)
    ab = sys.abs_beta(prec)
    k = RealQuad(0, 1, 3, 3).to_interval(prec)
    r = RealQuad(0, 1, 6, 3).to_interval(prec)
    denom = 1 + ab * k + r
    return round_down(mu * d_min.lo / (2 * denom.hi), 10**12)


def _integer_preset(b: int, m: int, M: int) -> Preset:
    if b == 0 or abs(b) < 2:
        raise DomainError("integer base must satisfy |b| >= 2")
    if not (m <= 0 <= M):
        raise DomainError("alphabet must contain zero")
    beta = ComplexQuad.from_int(b)
    digits, symbols = _int_digits(list(range(m, M + 1)))
    sys = NumerationSystem(beta, digits, symbols)
    cert = real_interval_certificate(sys)
    return _floor_is_analysis(derived_preset(f"integer:{b}:{m}:{M}", sys, cert, _integer_preprocess(sys, b, m, M)))


def _integer_preprocess(sys: NumerationSystem, b: int, m: int, M: int) -> PreprocessSpec:
    zero = sys.zero_index
    if (b, m, M) == (2, -1, 1):
        one = sys.index_of_symbol("1")
        neg = sys.index_of_symbol("-1")
        rules = tuple(expand_rules(sys, [RewriteRule((one, neg), (zero, one))]))
        return PreprocessSpec(rules=rules, d_min=dmin_lower_bound(sys, rules, 2), analysis_depth=2)
    if (b, m, M) == (3, -1, 2):
        neg = sys.index_of_symbol("-1")
        two = sys.index_of_symbol("2")
        rules = (RewriteRule((neg, two), (zero, neg)),)
        return PreprocessSpec(rules=rules, d_min=dmin_lower_bound(sys, rules, 2), analysis_depth=2)
    return unruled_spec(sys)


@lru_cache(maxsize=None)
def load_preset(name: str) -> Preset:
    if name == "golden-square":
        return _validate(_golden_square())
    if name == "golden-mean":
        return _validate(_golden_mean())
    if name == "knuth":
        return _validate(_knuth())
    if name == "eisenstein":
        return _validate(_eisenstein())
    if name == "base4":
        return _validate(_integer_preset(4, -2, 2))
    if name.startswith("integer:"):
        parts = name.split(":")
        if len(parts) != 4:
            raise ParseError("integer preset syntax: integer:<base>:<min>:<max>")
        try:
            b, m, M = int(parts[1]), int(parts[2]), int(parts[3])
        except ValueError as exc:
            raise ParseError("integer preset syntax: integer:<base>:<min>:<max>") from exc
        return _validate(_integer_preset(b, m, M))
    raise ParseError(f"unknown preset {name!r}")


PRESET_NAMES = ("golden-square", "golden-mean", "knuth", "eisenstein", "base4")
