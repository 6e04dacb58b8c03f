"""Exact arithmetic in real quadratic fields Q(sqrt(d)) and complex pairs
over them, plus validated rational-interval evaluation for constants whose
radicals leave the field (sqrt(7), sqrt(21), sqrt(146), ...).

RealQuad stores (a + b*sqrt(d))/q with arbitrary-precision integers,
normalized so that gcd(a, b, q) = 1, q >= 1, d is square-free, and purely
rational values carry d = 0.  All predicates (sign, comparisons, equality)
are exact integer decisions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from typing import Union

from .errors import DomainError, FieldMismatchError, ParseError

_SQUAREFREE_OK: set[int] = {0, 1}


def _check_squarefree(d: int) -> None:
    if d in _SQUAREFREE_OK:
        return
    if d < 0:
        raise DomainError(f"field descriptor must be non-negative, got {d}")
    i = 2
    while i * i <= d:
        if d % (i * i) == 0:
            raise DomainError(f"field descriptor {d} is not square-free")
        i += 1
    _SQUAREFREE_OK.add(d)


def quad_sign(a: int, b: int, d: int) -> int:
    """Exact sign of a + b*sqrt(d) for integers a, b and d >= 0."""
    if b == 0:
        return (a > 0) - (a < 0)
    if a == 0:
        return (b > 0) - (b < 0)
    if a > 0 and b > 0:
        return 1
    if a < 0 and b < 0:
        return -1
    # opposite signs: compare a^2 against b^2 d
    lhs, rhs = a * a, b * b * d
    if a > 0:  # b < 0
        return (lhs > rhs) - (lhs < rhs)
    return (rhs > lhs) - (rhs < lhs)


Scalar = Union[int, Fraction, "RealQuad"]


class RealQuad:
    """Element (a + b*sqrt(d))/q of Q(sqrt(d)). Immutable."""

    __slots__ = ("a", "b", "q", "d")

    def __init__(self, a: int, b: int = 0, q: int = 1, d: int = 0):
        if q == 0:
            raise ZeroDivisionError("denominator q must be nonzero")
        _check_squarefree(d)
        if d == 1:
            a, b = a + b, 0
        if d == 0:
            b = 0
        if b == 0:
            d = 0
        if q < 0:
            a, b, q = -a, -b, -q
        g = gcd(gcd(abs(a), abs(b)), q)
        if g > 1:
            a //= g
            b //= g
            q //= g
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "d", d)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("RealQuad is immutable")

    # -- construction -----------------------------------------------------

    @classmethod
    def from_int(cls, n: int, d: int = 0) -> RealQuad:
        return cls(n, 0, 1, 0)

    @classmethod
    def from_fraction(cls, fr: Fraction | int) -> RealQuad:
        fr = Fraction(fr)
        return cls(fr.numerator, 0, fr.denominator, 0)

    @classmethod
    def sqrt_d(cls, d: int) -> RealQuad:
        return cls(0, 1, 1, d)

    # -- field compatibility ----------------------------------------------

    def _common_d(self, other: RealQuad) -> int:
        if self.d == other.d:
            return self.d
        if self.d == 0:
            return other.d
        if other.d == 0:
            return self.d
        raise FieldMismatchError(
            f"mismatched field descriptors: sqrt({self.d}) vs sqrt({other.d})"
        )

    def _coerce(self, other: Scalar) -> RealQuad:
        if isinstance(other, RealQuad):
            return other
        if isinstance(other, int):
            return RealQuad(other)
        if isinstance(other, Fraction):
            return RealQuad.from_fraction(other)
        return NotImplemented  # type: ignore[return-value]

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: Scalar) -> RealQuad:
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        d = self._common_d(o)
        return RealQuad(
            self.a * o.q + o.a * self.q,
            self.b * o.q + o.b * self.q,
            self.q * o.q,
            d,
        )

    __radd__ = __add__

    def __sub__(self, other: Scalar) -> RealQuad:
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return RealQuad(self.a * o.q - o.a * self.q, self.b * o.q - o.b * self.q, self.q * o.q, self._common_d(o))

    def __rsub__(self, other: Scalar) -> RealQuad:
        return (-self) + other

    def __neg__(self) -> RealQuad:
        return RealQuad(-self.a, -self.b, self.q, self.d)

    def __mul__(self, other: Scalar) -> RealQuad:
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        d = self._common_d(o)
        return RealQuad(
            self.a * o.a + self.b * o.b * d,
            self.a * o.b + self.b * o.a,
            self.q * o.q,
            d,
        )

    __rmul__ = __mul__

    def inverse(self) -> RealQuad:
        if self.is_zero():
            raise ZeroDivisionError("division by zero field element")
        n = self.a * self.a - self.b * self.b * self.d
        return RealQuad(self.q * self.a, -self.q * self.b, n, self.d)

    def __truediv__(self, other: Scalar) -> RealQuad:
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        self._common_d(o)
        return self * o.inverse()

    def __rtruediv__(self, other: Scalar) -> RealQuad:
        return self.inverse() * other

    def __pow__(self, n: int) -> RealQuad:
        if n < 0:
            return self.inverse() ** (-n)
        result = RealQuad(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def sign(self) -> int:
        """Exact sign of (a + b*sqrt(d))/q, by integer comparison."""
        return quad_sign(self.a, self.b, self.d)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = RealQuad.from_fraction(Fraction(other))
        if not isinstance(other, RealQuad):
            return NotImplemented
        return (
            self.a == other.a
            and self.b == other.b
            and self.q == other.q
            and self.d == other.d
        )

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.q, self.d))

    def __lt__(self, other: Scalar) -> bool:
        return (self - other).sign() < 0

    def __le__(self, other: Scalar) -> bool:
        return (self - other).sign() <= 0

    def __gt__(self, other: Scalar) -> bool:
        return (self - other).sign() > 0

    def __ge__(self, other: Scalar) -> bool:
        return (self - other).sign() >= 0

    def __abs__(self) -> RealQuad:
        return -self if self.sign() < 0 else self

    # -- conversions ---------------------------------------------------------

    def to_fraction(self) -> Fraction:
        if self.b != 0:
            raise DomainError("not a rational element")
        return Fraction(self.a, self.q)

    def to_interval(self, max_width: Fraction = Fraction(1, 10**12)) -> RationalInterval:
        if self.b == 0:
            fr = Fraction(self.a, self.q)
            return RationalInterval(fr, fr)
        # enclose b*sqrt(d) with width <= max_width * q / |b|
        w = max_width * self.q / abs(self.b)
        root = sqrt_interval(Fraction(self.d), w)
        lo = Fraction(self.a) + self.b * (root.lo if self.b > 0 else root.hi)
        hi = Fraction(self.a) + self.b * (root.hi if self.b > 0 else root.lo)
        return RationalInterval(lo / self.q, hi / self.q)

    def __float__(self) -> float:
        return float(self.to_interval(Fraction(1, 10**20)).midpoint())

    def sqrt_exact(self, hint_d: int = 0) -> RealQuad | None:
        """Exact square root within the field, or None.  For purely rational
        values hint_d names the ambient field in which to look for a
        b*sqrt(d) root."""
        s = self.sign()
        if s < 0:
            return None
        if s == 0:
            return RealQuad(0)
        if self.b == 0:
            fr = self.to_fraction()
            r = _fraction_sqrt(fr)
            if r is not None:
                return RealQuad.from_fraction(r)
            for d in (self.d, hint_d):
                if d:
                    r = _fraction_sqrt(fr / d)
                    if r is not None:
                        return RealQuad(0, r.numerator, r.denominator, d)
            return None
        norm = Fraction(self.a * self.a - self.b * self.b * self.d, self.q * self.q)
        if norm < 0:
            return None
        n = _fraction_sqrt(norm)
        if n is None:
            return None
        half_a = Fraction(self.a, self.q)
        for sigma in (1, -1):
            p_sq = (half_a + sigma * n) / 2
            if p_sq < 0:
                continue
            p = _fraction_sqrt(p_sq)
            if p is None or p == 0:
                continue
            s_part = Fraction(self.b, self.q) / (2 * p)
            cand = RealQuad.from_fraction(p) + RealQuad(
                0, s_part.numerator, s_part.denominator, self.d
            )
            if cand.sign() >= 0 and cand * cand == self:
                return cand
        return None

    # -- serialization ---------------------------------------------------------

    def to_dict(self) -> dict:
        return {"a": self.a, "b": self.b, "q": self.q, "d": self.d}

    @classmethod
    def from_dict(cls, obj) -> RealQuad:
        if isinstance(obj, int):
            return cls(obj)
        if isinstance(obj, str):
            try:
                return cls.from_fraction(Fraction(obj))
            except ValueError as exc:
                raise ParseError(f"bad rational literal {obj!r}") from exc
        try:
            return cls(int(obj["a"]), int(obj.get("b", 0)), int(obj.get("q", 1)), int(obj.get("d", 0)))
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad RealQuad object {obj!r}") from exc

    def __repr__(self) -> str:
        return f"RealQuad({self.a}, {self.b}, {self.q}, {self.d})"

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a) if self.q == 1 else f"{self.a}/{self.q}"
        b = f"{self.b:+}" if self.a != 0 else str(self.b)
        core = f"{self.a}{b}*sqrt({self.d})" if self.a != 0 else f"{self.b}*sqrt({self.d})"
        return core if self.q == 1 else f"({core})/{self.q}"


def _fraction_sqrt(fr: Fraction) -> Fraction | None:
    if fr < 0:
        return None
    pn, qn = fr.numerator, fr.denominator
    rp, rq = isqrt(pn), isqrt(qn)
    if rp * rp == pn and rq * rq == qn:
        return Fraction(rp, rq)
    return None


class ComplexQuad:
    """Complex number with RealQuad components over a shared descriptor."""

    __slots__ = ("re", "im")

    def __init__(self, re: RealQuad, im: RealQuad | None = None):
        if im is None:
            im = RealQuad(0)
        re._common_d(im)  # validate compatibility
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("ComplexQuad is immutable")

    @classmethod
    def from_int(cls, n: int) -> ComplexQuad:
        return cls(RealQuad(n))

    @classmethod
    def zero(cls) -> ComplexQuad:
        return cls(RealQuad(0))

    def _coerce(self, other) -> ComplexQuad:
        if isinstance(other, ComplexQuad):
            return other
        if isinstance(other, RealQuad):
            return ComplexQuad(other)
        if isinstance(other, (int, Fraction)):
            return ComplexQuad(RealQuad.from_fraction(Fraction(other)))
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other) -> ComplexQuad:
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return ComplexQuad(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other) -> ComplexQuad:
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return ComplexQuad(self.re - o.re, self.im - o.im)

    def __rsub__(self, other) -> ComplexQuad:
        return (-self) + other

    def __neg__(self) -> ComplexQuad:
        return ComplexQuad(-self.re, -self.im)

    def __mul__(self, other) -> ComplexQuad:
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return ComplexQuad(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def conj(self) -> ComplexQuad:
        return ComplexQuad(self.re, -self.im)

    def norm_sq(self) -> RealQuad:
        return self.re * self.re + self.im * self.im

    def inverse(self) -> ComplexQuad:
        n = self.norm_sq()
        if n.is_zero():
            raise ZeroDivisionError("division by zero")
        inv = n.inverse()
        return ComplexQuad(self.re * inv, -self.im * inv)

    def __truediv__(self, other) -> ComplexQuad:
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __pow__(self, n: int) -> ComplexQuad:
        if n < 0:
            return self.inverse() ** (-n)
        result = ComplexQuad.from_int(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def is_zero(self) -> bool:
        return self.re.is_zero() and self.im.is_zero()

    def is_real(self) -> bool:
        return self.im.is_zero()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction, RealQuad)):
            other = self._coerce(other)
        if not isinstance(other, ComplexQuad):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def abs_interval(self, max_width: Fraction = Fraction(1, 10**12)) -> RationalInterval:
        n = self.norm_sq().to_interval(max_width * max_width / 4)
        lo = sqrt_interval(n.lo, max_width / 2)
        hi = sqrt_interval(n.hi, max_width / 2)
        return RationalInterval(max(lo.lo, Fraction(0)), hi.hi)

    def to_dict(self) -> dict:
        return {"re": self.re.to_dict(), "im": self.im.to_dict()}

    @classmethod
    def from_dict(cls, obj) -> ComplexQuad:
        if isinstance(obj, (int, str)):
            return cls(RealQuad.from_dict(obj))
        if "re" in obj or "im" in obj:
            re = RealQuad.from_dict(obj["re"]) if "re" in obj else RealQuad(0)
            im = RealQuad.from_dict(obj["im"]) if "im" in obj else RealQuad(0)
            return cls(re, im)
        return cls(RealQuad.from_dict(obj))

    def __repr__(self) -> str:
        return f"ComplexQuad({self.re!r}, {self.im!r})"

    def __str__(self) -> str:
        if self.im.is_zero():
            return str(self.re)
        return f"({self.re})+({self.im})i"


# -- rational intervals -------------------------------------------------------


@dataclass(frozen=True)
class RationalInterval:
    """Closed interval with rational endpoints; always encloses the target."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise DomainError(f"interval endpoints out of order: {self.lo} > {self.hi}")

    @classmethod
    def point(cls, fr: Fraction | int) -> RationalInterval:
        fr = Fraction(fr)
        return cls(fr, fr)

    def width(self) -> Fraction:
        return self.hi - self.lo

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains(self, fr: Fraction) -> bool:
        return self.lo <= fr <= self.hi

    def __add__(self, other) -> RationalInterval:
        o = _as_interval(other)
        return RationalInterval(self.lo + o.lo, self.hi + o.hi)

    __radd__ = __add__

    def __sub__(self, other) -> RationalInterval:
        o = _as_interval(other)
        return RationalInterval(self.lo - o.hi, self.hi - o.lo)

    def __rsub__(self, other) -> RationalInterval:
        return _as_interval(other) - self

    def __neg__(self) -> RationalInterval:
        return RationalInterval(-self.hi, -self.lo)

    def __mul__(self, other) -> RationalInterval:
        o = _as_interval(other)
        products = (self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi)
        return RationalInterval(min(products), max(products))

    __rmul__ = __mul__

    def __truediv__(self, other) -> RationalInterval:
        o = _as_interval(other)
        if o.lo <= 0 <= o.hi:
            raise DomainError("division by an interval containing zero")
        return self * RationalInterval(1 / o.hi, 1 / o.lo)

    def __rtruediv__(self, other) -> RationalInterval:
        return _as_interval(other) / self

    def abs(self) -> RationalInterval:
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return -self
        return RationalInterval(Fraction(0), max(-self.lo, self.hi))

    def pow_int(self, n: int) -> RationalInterval:
        result = RationalInterval.point(1)
        base = self
        if n < 0:
            return RationalInterval.point(1) / self.pow_int(-n)
        for _ in range(n):
            result = result * base
        return result

    def sqrt(self, max_width: Fraction) -> RationalInterval:
        if self.lo < 0:
            raise DomainError("sqrt of an interval with negative lower bound")
        lo = sqrt_interval(self.lo, max_width / 2)
        hi = sqrt_interval(self.hi, max_width / 2)
        return RationalInterval(lo.lo, hi.hi)

    def __str__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


def _as_interval(x) -> RationalInterval:
    if isinstance(x, RationalInterval):
        return x
    if isinstance(x, (int, Fraction)):
        return RationalInterval.point(Fraction(x))
    raise TypeError(f"cannot interpret {x!r} as interval")


def sqrt_interval(x: Fraction | int, max_width: Fraction) -> RationalInterval:
    """Enclosure of sqrt(x) of width <= max_width, outward-rounded."""
    x = Fraction(x)
    if x < 0:
        raise DomainError("square root of a negative rational")
    if x == 0:
        return RationalInterval.point(0)
    exact = _fraction_sqrt(x)
    if exact is not None:
        return RationalInterval.point(exact)
    if max_width <= 0:
        raise DomainError("precision must be positive")
    # scale so that 2/N <= max_width
    n = 2
    while Fraction(2, n) > max_width:
        n *= 2
    t = x * n * n
    lo_i = isqrt(t.numerator // t.denominator)
    hi_i = isqrt(-(-t.numerator // t.denominator)) + 1
    return RationalInterval(Fraction(lo_i, n), Fraction(hi_i, n))
