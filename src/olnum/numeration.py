"""Numeration systems, digit strings, exact evaluation and encoding.

A system is a base beta with norm > 1 together with a finite digit alphabet
containing zero.  Digit strings denote sum(d_j * beta^(-j)); the integer part
occupies positions j <= 0, the fractional part positions j >= 1.  The one
encoder, scale_into_region and greedy_digits, runs on integer points.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from .errors import CriterionInapplicableError, DomainError, ParseError
from .field import ComplexQuad, Point, RationalInterval, RealQuad, point_add, point_mul, reduce_point, to_point

POINT_TOKEN = "."
MAX_SHIFT = 64  # scaling steps an encoder may take to bring a value into the region


class NumerationSystem:
    def __init__(
        self,
        base: ComplexQuad,
        alphabet: Sequence[ComplexQuad],
        symbols: Sequence[str],
    ):
        if len(alphabet) != len(symbols):
            raise DomainError("alphabet and symbol table lengths differ")
        if len(set(symbols)) != len(symbols):
            raise DomainError("duplicate digit symbols")
        for tok in symbols:
            if not tok or POINT_TOKEN in tok or any(c.isspace() for c in tok):
                raise ParseError(f"invalid digit symbol {tok!r}")
        values = list(alphabet)
        if len(set(values)) != len(values):
            raise DomainError("duplicate digit values")
        beta_norm_sq = base.norm_sq()
        if (beta_norm_sq - 1).sign() <= 0:
            raise DomainError("base must have modulus > 1")
        zero_candidates = [i for i, v in enumerate(values) if v.is_zero()]
        if not zero_candidates:
            raise DomainError("alphabet must contain 0")

        self.base = base
        self.alphabet: tuple[ComplexQuad, ...] = tuple(values)
        self.symbols: tuple[str, ...] = tuple(symbols)
        self.zero_index = zero_candidates[0]
        self.beta_norm_sq = beta_norm_sq
        self.a_sq = self._max_norm_sq(values)
        self.is_real = base.is_real() and all(v.is_real() for v in values)
        self.ambient_d = 0
        for v in [base] + values:
            self.ambient_d = self.ambient_d or v.re.d or v.im.d
        self.inv_base = base.inverse()
        self._pow_cache: dict[int, ComplexQuad] = {0: ComplexQuad.from_int(1), 1: base, -1: self.inv_base}
        self._index_by_value = {v: i for i, v in enumerate(self.alphabet)}
        self._index_by_symbol = {s: i for i, s in enumerate(self.symbols)}
        self.cache: dict = {}

    @staticmethod
    def _max_norm_sq(values: Iterable[ComplexQuad]) -> RealQuad:
        best: RealQuad | None = None
        for v in values:
            n = v.norm_sq()
            if best is None or (n - best).sign() > 0:
                best = n
        assert best is not None
        return best

    # -- derived constants ---------------------------------------------------

    def a_max(self, max_width: Fraction = Fraction(1, 10**12)) -> RationalInterval:
        """Enclosure of A = max |a| over the alphabet."""
        return memo(self, ("a_max", max_width), lambda: sqrt_enclosure(self.a_sq, max_width, self.ambient_d))

    def abs_beta(self, max_width: Fraction = Fraction(1, 10**12)) -> RationalInterval:
        return memo(self, ("abs_beta", max_width), lambda: sqrt_enclosure(self.beta_norm_sq, max_width, self.ambient_d))

    def abs_beta_exact(self) -> RealQuad | None:
        return memo(self, "abs_beta_exact", lambda: self.beta_norm_sq.sqrt_exact(self.ambient_d))

    def d_max(self, max_width: Fraction = Fraction(1, 10**12)) -> RationalInterval:
        """Upper bound on |0.d1 d2 ...| over all digit streams.

        Uses the digit-pair bound max|x*beta + y| / (|beta|^2 - 1), which is
        never worse than A/(|beta|-1) and is attained for complex unit
        alphabets.
        """
        return memo(self, ("d_max", max_width), lambda: sqrt_enclosure(self._pair_norm_sq, max_width / 4, self.ambient_d)
                    / (self.beta_norm_sq - 1).to_interval(max_width / 4))

    def d_max_exact(self) -> RealQuad | None:
        """Exact pair bound when max|x*beta+y| lies in the field."""
        root = self._pair_norm_sq.sqrt_exact(self.ambient_d)
        if root is None:
            return None
        return root / (self.beta_norm_sq - 1)

    @cached_property
    def _pair_norm_sq(self) -> RealQuad:
        """max |x*beta + y|^2 over digit pairs, enumerated once per system."""
        return self._max_norm_sq(xb + y for xb in (x * self.base for x in self.alphabet) for y in self.alphabet)

    def beta_pow(self, k: int) -> ComplexQuad:
        cached = self._pow_cache.get(k)
        if cached is not None:
            return cached
        if k > 0:
            value = self.beta_pow(k - 1) * self.base
        else:
            value = self.beta_pow(k + 1) * self.inv_base
        self._pow_cache[k] = value
        return value

    # -- digit helpers ---------------------------------------------------------

    def digit(self, index: int) -> ComplexQuad:
        return self.alphabet[index]

    def symbol(self, index: int) -> str:
        return self.symbols[index]

    def index_of_value(self, value: ComplexQuad) -> int | None:
        return self._index_by_value.get(value)

    def index_of_symbol(self, token: str) -> int:
        try:
            return self._index_by_symbol[token]
        except KeyError:
            raise ParseError(f"unknown digit token {token!r}") from None

    def integer_alphabet(self) -> list[int] | None:
        """Digit values as plain integers, or None if any digit is not one."""
        out = []
        for v in self.alphabet:
            if not v.is_real():
                return None
            r = v.re
            if r.b != 0 or r.q != 1:
                return None
            out.append(r.a)
        return out

    def contiguous_range(self) -> tuple[int, int] | None:
        ints = self.integer_alphabet()
        if ints is None:
            return None
        m, M = min(ints), max(ints)
        if sorted(ints) != list(range(m, M + 1)):
            return None
        return m, M

    # -- serialization ---------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "d": self.ambient_d,
            "base": self.base.to_dict(),
            "alphabet": [v.to_dict() for v in self.alphabet],
            "symbols": list(self.symbols),
        }

    @classmethod
    def from_dict(cls, obj: dict) -> NumerationSystem:
        try:
            base = ComplexQuad.from_dict(obj["base"])
            alphabet = [ComplexQuad.from_dict(v) for v in obj["alphabet"]]
            symbols = [str(s) for s in obj["symbols"]]
        except KeyError as exc:
            raise ParseError(f"system config missing key {exc}") from exc
        return cls(base, alphabet, symbols)


def memo(obj, key, make):
    """make() on first use, then the value kept under key in obj.cache, the
    object's own dict of derived constants (so nothing outlives the object)."""
    try:
        return obj.cache[key]
    except KeyError:
        value = obj.cache[key] = make()
        return value


def sqrt_enclosure(x: RealQuad, max_width: Fraction, hint_d: int = 0) -> RationalInterval:
    exact = x.sqrt_exact(hint_d)
    if exact is not None:
        return exact.to_interval(max_width)
    return x.to_interval(max_width * max_width / 4).sqrt(max_width)


# -- digit strings ----------------------------------------------------------


@dataclass(frozen=True)
class DigitString:
    """Positioned digit sequence; int_digits at positions <= 0 (most
    significant first), frac_digits at positions >= 1."""

    int_digits: tuple[int, ...]
    frac_digits: tuple[int, ...]

    @classmethod
    def make(cls, sys: NumerationSystem, int_digits: Sequence[int], frac_digits: Sequence[int]) -> DigitString:
        n = len(sys.alphabet)
        for i in list(int_digits) + list(frac_digits):
            if not 0 <= i < n:
                raise DomainError(f"digit index {i} out of range")
        ints = list(int_digits)
        while len(ints) > 1 and ints[0] == sys.zero_index:
            ints.pop(0)
        if not ints:
            ints = [sys.zero_index]
        return cls(tuple(ints), tuple(frac_digits))


def parse_digits(sys: NumerationSystem, text: str) -> DigitString:
    tokens = text.split()
    if tokens.count(POINT_TOKEN) != 1:
        raise ParseError("digit string must contain exactly one '.' token")
    point = tokens.index(POINT_TOKEN)
    int_part = [sys.index_of_symbol(t) for t in tokens[:point]]
    frac_part = [sys.index_of_symbol(t) for t in tokens[point + 1:]]
    return DigitString.make(sys, int_part, frac_part)


def format_digits(sys: NumerationSystem, ds: DigitString) -> str:
    int_part = ds.int_digits if ds.int_digits else (sys.zero_index,)
    tokens = [sys.symbol(i) for i in int_part]
    tokens.append(POINT_TOKEN)
    tokens.extend(sys.symbol(i) for i in ds.frac_digits)
    return " ".join(tokens)


def eval_digits(sys: NumerationSystem, ds: DigitString) -> ComplexQuad:
    acc = ComplexQuad.zero()
    for idx in ds.int_digits:
        acc = acc * sys.base + sys.digit(idx)
    facc = ComplexQuad.zero()
    for idx in reversed(ds.frac_digits):
        facc = (facc + sys.digit(idx)) * sys.inv_base
    return acc + facc


# -- encoding ------------------------------------------------------------------


def encode_value(sys, cert, v: ComplexQuad, n: int):
    """Encode an exact value into n fractional digits using the certificate's
    digit selector; returns (digits, shift) with value = beta^shift * 0.d1..dn
    up to the K*|beta|^-n tail.  The value is scaled into the region first."""
    from .region import compiled_selector

    if n < 0:
        raise DomainError("digit count must be non-negative")
    if v.is_zero():
        return DigitString.make(sys, [sys.zero_index], [sys.zero_index] * n), 0
    kern = compiled_selector(cert, sys)
    reduced = scale_into_region(sys, cert, kern.point(v), kern.inv_beta)
    if reduced is None:
        raise DomainError("value not reducible into the certificate region within the shift budget")
    r, shift = reduced
    digits, _ = greedy_digits(sys, cert, r, n)
    return DigitString.make(sys, [sys.zero_index], digits), shift


def scale_into_region(sys, cert, p: Point, factor: Point):
    """Multiply the point p by the point factor until it lies in the
    certificate region; returns (scaled point, number of multiplications),
    or None when MAX_SHIFT multiplications do not get it there."""
    from .region import compiled_selector

    kern = compiled_selector(cert, sys)
    steps = 0
    while not kern.in_region(p):
        if steps >= MAX_SHIFT:
            return None
        p = reduce_point(point_mul(factor, p, kern.d))
        steps += 1
    return p, steps


def greedy_digits(sys, cert, r: Point, count: int) -> tuple[list[int], Point]:
    """Emit count digits of the point r (a value in the certificate region)
    with the certificate's selector, most significant first; returns the
    digits and the exact residual."""
    from .region import compiled_selector, digit_select

    kern = compiled_selector(cert, sys)
    digits: list[int] = []
    for _ in range(count):
        t = reduce_point(point_mul(kern.beta, r, kern.d))
        idx = digit_select(cert, sys, t)
        digits.append(idx)
        r = point_add(t, kern.digits[idx], -1)
    return digits, r


def inv_beta_pow(sys: NumerationSystem, e: int) -> Point:
    """beta^-e as a point, once per system and e."""
    return memo(sys, ("inv_pow", e), lambda: to_point(sys.inv_base ** e))


# -- zero representations -------------------------------------------------------


@dataclass(frozen=True)
class ZeroRepVerdict:
    nontrivial_exists: bool
    witness_rule: str | None = None


def zero_has_nontrivial_rep(sys: NumerationSystem) -> ZeroRepVerdict:
    """Decide non-trivial representability of zero for a contiguous integer
    alphabet containing {-1, 0, 1} and a real base above 1, or below -1 with
    a symmetric alphabet."""
    if not sys.is_real:
        raise CriterionInapplicableError("criterion inapplicable: complex base")
    rng = sys.contiguous_range()
    if rng is None:
        raise CriterionInapplicableError("criterion inapplicable: non-contiguous or non-integer alphabet")
    m, M = rng
    beta = sys.base.re
    if beta.sign() < 0 and m == -M:
        # d_j -> (-1)^j d_j maps the alphabet onto itself and the expansions
        # of zero in base beta onto those in base |beta|
        beta = -beta
    if (beta - 1).sign() <= 0:
        raise CriterionInapplicableError("criterion inapplicable: base must exceed 1 (or be below -1 with a symmetric alphabet)")
    if not (m <= -1 and M >= 1):
        raise CriterionInapplicableError("criterion inapplicable: alphabet must contain {-1, 0, 1}")
    bound = max(M + 1, -m + 1)
    exists = (beta - bound).sign() <= 0
    if exists:
        reason = f"|base| <= max({M}+1, {-m}+1) = {bound}: a carry identity yields a non-trivial expansion of zero"
    else:
        reason = f"|base| > max({M}+1, {-m}+1) = {bound}: leading-digit bound keeps every expansion away from zero"
    return ZeroRepVerdict(exists, reason)
