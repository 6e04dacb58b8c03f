"""Windowed digit selection.

A window keeps the full integer part of an auxiliary value plus its first L
fractional digits, together with a certified bound on the discarded tail and
the exact value of the kept digits, set where the window is built; nothing
decodes a window for selection.  Selection checks the tail bound and applies
the certificate's compiled selector (``region.CompiledSelector``):
``region.digit_select`` on W for multiplication, ``region.quotient_digit`` on
W/D for division.  Their ball-test twins, ``digit_select_exact`` and
``select_d_exact`` over ``region.nearest_admissible``, are the monitors'
oracle.  The golden-square rules (lexicographic and sign tests on the
digits) are provided alongside, plus the integer-window bound and
lookup-table synthesis over the finitely many windows that fit a bounded
domain.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .errors import DomainError
from .field import ComplexQuad, RationalInterval, RealQuad
from .numeration import DigitString, NumerationSystem, eval_digits, greedy_digits, memo, scale_into_region
from .preprocess import RewriteRule, dmin_search
from .region import (
    ConvexPolygon,
    OLCertificate,
    digit_select,
    digit_select_total,
    quotient_digit,
    region_dist_sq,
)

_IV_PREC = Fraction(1, 10**9)


@dataclass(frozen=True)
class Window:
    digits: DigitString
    L: int
    tail_bound: RationalInterval
    value: ComplexQuad  # exact value of digits

    def int_len(self) -> int:
        return len(self.digits.int_digits)


def generic_tail_bound(sys: NumerationSystem, L: int) -> RationalInterval:
    """Enclosure of A / (|beta|^L (|beta| - 1)), the worst-case tail of any
    stream truncated after L fractional digits; once per system and L."""
    def make():
        ab = sys.abs_beta(_IV_PREC)
        return sys.a_max(_IV_PREC) / (ab.pow_int(L) * (ab - 1))
    return memo(sys, ("tail", L), make)


def truncate(sys: NumerationSystem, ds: DigitString, L: int) -> Window:
    if L < 0:
        raise DomainError("window length must be non-negative")
    kept = DigitString(ds.int_digits, ds.frac_digits[:L])
    dropped = ds.frac_digits[L:]
    if all(i == sys.zero_index for i in dropped):
        tail = RationalInterval.point(0)
    else:
        tail = generic_tail_bound(sys, L)
    return Window(kept, L, tail, eval_digits(sys, kept))


def window_encode(sys: NumerationSystem, cert: OLCertificate, value: ComplexQuad, L: int) -> Window:
    """Exact digit window of a field value: scale into the region, emit the
    integer part plus L fractional digits via the certificate selector.  The
    tail is the exact residual r, bounded by K * |beta|^-L; the window's value
    is value - r * beta^-L (0 when value lies below beta^-L's position)."""
    if value.is_zero():
        return Window(DigitString.make(sys, [sys.zero_index], [sys.zero_index] * L), L, RationalInterval.point(0), value)
    reduced = scale_into_region(sys, cert, value, sys.inv_base)
    if reduced is not None:
        r, shift = reduced
    else:
        # not reachable by scaling down: try scaling up (values below a
        # region that sits right of zero)
        reduced = scale_into_region(sys, cert, value, sys.base)
        if reduced is None:
            raise DomainError("value not reducible into the certificate region")
        r, shift = reduced[0], -reduced[1]
    digits, r = greedy_digits(sys, cert, r, max(shift + L, 0))
    e = max(L, -shift)  # value = beta^shift * 0.digits + r * beta^-e
    exact = value - r * memo(sys, ("inv_pow", e), lambda: sys.inv_base ** e)
    if r.is_zero():
        tail = RationalInterval.point(0)
    else:
        tail = memo(cert, ("tail", sys, L), lambda: cert.k_bound / sys.abs_beta(_IV_PREC).pow_int(L))
    lead = max(shift, 0)  # integer positions; a negative shift pads zeros after the point
    ds = DigitString.make(sys, digits[:lead] or [sys.zero_index], [sys.zero_index] * (lead - shift) + digits[lead:])
    return Window(ds, L, tail, exact)


def _tail_below(tail: RationalInterval, radius: RealQuad) -> bool:
    return (radius - RealQuad.from_fraction(tail.hi)).sign() > 0


# -- generic Select functions ---------------------------------------------------


def select_m(cert: OLCertificate, sys: NumerationSystem, w: Window) -> int:
    radius = cert.trunc_radius()
    if not _tail_below(w.tail_bound, radius):
        raise DomainError("window tail bound too large for the truncation radius")
    return digit_select(cert, sys, w.value)


def select_d(
    cert: OLCertificate,
    sys: NumerationSystem,
    w: Window,
    d: Window,
    alpha: Fraction,
    d_min: RationalInterval,
) -> int:
    alpha_rq = memo(cert, ("alpha", alpha), lambda: RealQuad.from_fraction(alpha))
    if not _tail_below(w.tail_bound, alpha_rq) or not _tail_below(d.tail_bound, alpha_rq):
        raise DomainError("window tail bound too large for alpha")
    v, delta = w.value, d.value
    if delta.is_zero():
        raise DomainError("divisor window evaluates to zero")
    if (delta.norm_sq() - memo(cert, ("d_min_sq", d_min.lo), lambda: RealQuad.from_fraction(d_min.lo ** 2))).sign() < 0:
        raise DomainError("divisor window below the certified minimum modulus")
    return quotient_digit(cert, sys, v, delta)


# -- specialized selection rules ---------------------------------------------------


def _padded_window_digits(sys: NumerationSystem, w: Window, n_int: int, n_frac: int) -> list[int]:
    ints = list(w.digits.int_digits)
    while len(ints) < n_int:
        ints.insert(0, sys.zero_index)
    extra = ints[:-n_int] if len(ints) > n_int else []
    if any(i != sys.zero_index for i in extra):
        raise DomainError("window integer part too long for this preset rule")
    ints = ints[-n_int:]
    fracs = list(w.digits.frac_digits[:n_frac])
    while len(fracs) < n_frac:
        fracs.append(sys.zero_index)
    return ints + fracs


def _digit_values(sys: NumerationSystem, idxs: list[int]) -> list[int]:
    out = []
    for i in idxs:
        v = sys.digit(i)
        out.append(v.re.a if v.re.q == 1 and v.re.b == 0 else None)
    if any(x is None for x in out):
        raise DomainError("preset rule needs integer digits")
    return out  # type: ignore[return-value]


def golden_m_rule(sys: NumerationSystem, w: Window) -> int:
    """Lexicographic selection on the five-digit window z_-1 z_0 . z_1 z_2 z_3
    over {-1, 0, 1}."""
    z = _digit_values(sys, _padded_window_digits(sys, w, 2, 3))
    plus = z > [0, 1, -1, -1, 0] or (z[:4] == [0, 0, 1, 1] and z[4] != -1)
    minus = z < [0, -1, 1, 1, 0] or (z[:4] == [0, 0, -1, -1] and z[4] != 1)
    target = 1 if plus else (-1 if minus else 0)
    idx = _index_of_int(sys, target)
    return idx


def golden_d_rule(sys: NumerationSystem, v: Window, d: Window) -> int:
    """Sign test on 2V -/+ Delta; the divisor sign is decided by its most
    significant nonzero digit (the classical form assumes d_1 = 1)."""
    if v.L < 9 or d.L < 9:
        raise DomainError("the division sign rule needs nine fractional digits")
    vv, dd = v.value, d.value
    if not (vv.is_real() and dd.is_real()):
        raise DomainError("the division sign rule is for the real system")
    d_sign = _leading_sign(sys, d)
    if d_sign == 0:
        raise DomainError("divisor window has no nonzero digit")
    two_v = vv.re + vv.re
    if ((two_v - dd.re).sign()) * d_sign > 0:
        return _index_of_int(sys, 1)
    if ((two_v + dd.re).sign()) * d_sign < 0:
        return _index_of_int(sys, -1)
    return sys.zero_index


def _leading_sign(sys: NumerationSystem, w: Window) -> int:
    for idx in list(w.digits.int_digits) + list(w.digits.frac_digits):
        if idx != sys.zero_index:
            return sys.digit(idx).re.sign()
    return 0


def _index_of_int(sys: NumerationSystem, n: int) -> int:
    idx = sys.index_of_value(ComplexQuad.from_int(n))
    if idx is None:
        raise DomainError(f"digit {n} not in the alphabet")
    return idx


# -- lookup tables ------------------------------------------------------------------


@dataclass(frozen=True)
class SelectTable:
    entries: dict[tuple[int, ...], int]
    window_shape: tuple[int, int]

    def lookup(self, sys: NumerationSystem, w: Window) -> int:
        n_int, L = self.window_shape
        key = tuple(_padded_window_digits(sys, w, n_int, L))
        try:
            return self.entries[key]
        except KeyError:
            raise DomainError("window outside the synthesized table") from None

    def serialize(self, sys: NumerationSystem) -> str:
        n_int, _ = self.window_shape
        lines = []
        for key in sorted(self.entries):
            toks = [sys.symbol(i) for i in key[:n_int]] + ["."] + [sys.symbol(i) for i in key[n_int:]]
            lines.append(" ".join(toks) + " -> " + sys.symbol(self.entries[key]))
        return "\n".join(lines) + "\n"


def int_window_ceiling(sys: NumerationSystem, reach: Fraction, floor: RationalInterval) -> int:
    """Analytic bound on the integer positions of a window whose value has
    modulus at most reach: an irreducible leading prefix is at least the
    positive floor (as found by dmin_search), and each further integer
    position multiplies it by |beta|."""
    ratio = max((reach + generic_tail_bound(sys, 0).hi) / floor.lo, Fraction(2))
    ab = sys.abs_beta(_IV_PREC).lo
    if ab <= 1:
        raise DomainError("|beta| too close to 1 for an integer-window bound")
    m, power = 0, Fraction(1)
    while power < ratio:  # the least m with |beta|^m >= ratio
        m, power = m + 1, power * ab
    return m + 1


def max_int_window(
    sys: NumerationSystem,
    domain: ConvexPolygon,
    rules: tuple[RewriteRule, ...] = (),
) -> int:
    """Largest number of integer positions a window can occupy while its value
    can still meet the domain: the windows below int_window_ceiling are
    enumerated, pruned by modulus.  Raises when that ceiling does not exist."""
    reach = _domain_reach(sys, domain)
    frac = generic_tail_bound(sys, 0).hi  # bounds |sum of the fractional digits| of any window
    bound = int_window_ceiling(sys, reach, dmin_search(sys, rules, 12)[1])
    reach_sq = RealQuad.from_fraction(frac ** 2)
    prune_sq = RealQuad.from_fraction((reach + 2 * frac + 1) ** 2)
    best = 0
    stack: list[tuple[int, ComplexQuad]] = []
    for idx in range(len(sys.alphabet)):
        if idx != sys.zero_index:
            stack.append((1, sys.digit(idx)))
    while stack:
        depth, value = stack.pop()
        if (region_dist_sq(domain, value) - reach_sq).sign() <= 0:
            best = max(best, depth)
        if depth >= bound:
            continue
        for idx in range(len(sys.alphabet)):
            nxt = value * sys.base + sys.digit(idx)
            if (nxt.norm_sq() - prune_sq).sign() <= 0:
                stack.append((depth + 1, nxt))
    return best


def _domain_reach(sys: NumerationSystem, domain: ConvexPolygon) -> Fraction:
    best = Fraction(0)
    for v in domain.vertices:
        best = max(best, v.abs_interval(_IV_PREC).hi)
    return best


def synthesize_table(
    sys: NumerationSystem,
    cert: OLCertificate,
    L: int,
    domain: ConvexPolygon,
    rules: tuple[RewriteRule, ...] | None = None,
) -> SelectTable:
    rule_set = tuple(rules) if rules else ()
    n_int = max_int_window(sys, domain, rule_set)
    n_positions = n_int + L
    count = len(sys.alphabet) ** n_positions
    if count > 1_000_000:
        raise DomainError(f"table of {count} entries exceeds the budget")
    entries: dict[tuple[int, ...], int] = {}
    indices = range(len(sys.alphabet))
    for combo in product(indices, repeat=n_positions):
        if rule_set and _rule_applies_at_leading(sys, combo, rule_set):
            continue
        ds = DigitString(tuple(combo[:n_int]), tuple(combo[n_int:]))
        value = eval_digits(sys, ds)
        entries[combo] = digit_select_total(cert, sys, value)
    return SelectTable(entries, (n_int, L))


def _rule_applies_at_leading(sys, combo, rules) -> bool:
    lead = 0
    while lead < len(combo) and combo[lead] == sys.zero_index:
        lead += 1
    if lead == len(combo):
        return False
    tail = combo[lead:]
    for rule in rules:
        k = len(rule.lhs)
        if len(tail) >= k and tuple(tail[:k]) == rule.lhs:
            return True
    return False
