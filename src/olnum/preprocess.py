"""Divisor preprocessing: value-preserving rewrite rules on digit strings,
their closure under digit multiplication, fixed-point application with a
final point shift, and certified lower bounds on the modulus of irreducible
divisors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .errors import CriterionInapplicableError, DomainError
from .field import ComplexQuad, RationalInterval, RealQuad
from .numeration import DigitString, NumerationSystem, sqrt_enclosure, zero_has_nontrivial_rep

# largest prefix enumeration (alphabet size ** depth) a floor search attempts
_ENUM_BUDGET = 500_000


@dataclass(frozen=True)
class RewriteRule:
    """Leading-prefix rewrite lhs -> rhs of equal length with rhs[0] = 0."""

    lhs: tuple[int, ...]
    rhs: tuple[int, ...]

    def validate(self, sys: NumerationSystem) -> None:
        if len(self.lhs) != len(self.rhs):
            raise DomainError("rewrite rule sides must have equal length")
        if not self.lhs:
            raise DomainError("empty rewrite rule")
        if self.lhs[0] == sys.zero_index:
            raise DomainError("rule left side must start with a nonzero digit")
        if self.rhs[0] != sys.zero_index:
            raise DomainError("rule right side must start with the zero digit")
        n = len(sys.alphabet)
        for i in self.lhs + self.rhs:
            if not 0 <= i < n:
                raise DomainError(f"digit index {i} out of range")


def rule_value_preserving(sys: NumerationSystem, rule: RewriteRule) -> bool:
    lhs = _prefix_value(sys, rule.lhs)
    rhs = _prefix_value(sys, rule.rhs)
    return (lhs - rhs).is_zero()


def verify_rules(sys: NumerationSystem, rules) -> list[tuple[RewriteRule, bool]]:
    out = []
    for rule in rules:
        rule.validate(sys)
        out.append((rule, rule_value_preserving(sys, rule)))
    return out


def _prefix_value(sys: NumerationSystem, digits) -> ComplexQuad:
    acc = ComplexQuad.zero()
    for idx in reversed(digits):
        acc = (acc + sys.digit(idx)) * sys.inv_base
    return acc


def expand_rules(sys: NumerationSystem, seed_rules) -> list[RewriteRule]:
    """Closure of the seed rules under digit-wise multiplication by every
    nonzero alphabet element; the products must stay inside the alphabet.
    Only the seeds are checked for value: a multiple of a value-preserving
    rule preserves the value."""
    seen: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()
    out: list[RewriteRule] = []
    for rule in seed_rules:
        rule.validate(sys)
        if not rule_value_preserving(sys, rule):
            raise DomainError("seed rule does not preserve the value")
        for mult in sys.alphabet:
            if mult.is_zero():
                continue
            lhs = _scale_digits(sys, rule.lhs, mult)
            rhs = _scale_digits(sys, rule.rhs, mult)
            key = (lhs, rhs)
            if key in seen:
                continue
            seen.add(key)
            new = RewriteRule(lhs, rhs)
            new.validate(sys)
            out.append(new)
    return out


def _scale_digits(sys: NumerationSystem, digits, mult: ComplexQuad) -> tuple[int, ...]:
    out = []
    for idx in digits:
        value = sys.digit(idx) * mult
        new_idx = sys.index_of_value(value)
        if new_idx is None:
            raise DomainError("digit multiplication leaves the alphabet")
        out.append(new_idx)
    return tuple(out)


@dataclass(frozen=True)
class PreprocessSpec:
    rules: tuple[RewriteRule, ...]
    d_min: RationalInterval
    analysis_depth: int


def preprocess_divisor(
    spec: PreprocessSpec,
    sys: NumerationSystem,
    ds: DigitString,
) -> tuple[DigitString, int]:
    """Apply the first matching rule at the leading nonzero digit until no
    rule applies, then shift the point so the first digit is nonzero.
    Returns (stream, shift) with value(stream) = beta^shift * value(ds)."""
    n_int = len(ds.int_digits)
    seq = list(ds.int_digits) + list(ds.frac_digits)
    zero = sys.zero_index
    budget = 10 * len(seq) + 100
    steps = 0
    while True:
        lead = 0
        while lead < len(seq) and seq[lead] == zero:
            lead += 1
        if lead == len(seq):
            raise DomainError("divisor value is zero")
        applied = False
        for rule in spec.rules:
            k = len(rule.lhs)
            window = seq[lead:lead + k]
            window.extend([zero] * (k - len(window)))
            if tuple(window) == rule.lhs:
                while len(seq) < lead + k:
                    seq.append(zero)
                seq[lead:lead + k] = list(rule.rhs)
                applied = True
                break
        if not applied:
            break
        steps += 1
        if steps > budget:
            raise DomainError("rewrite did not terminate: rule set deficiency")
    position = lead - n_int + 1  # position index of the leading nonzero digit
    shift = position - 1
    frac = tuple(seq[lead:])
    return DigitString((zero,), frac), shift


def dmin_lower_bound(
    sys: NumerationSystem,
    rules,
    depth: int,
    precision: Fraction = Fraction(1, 10**7),
) -> RationalInterval:
    """Certified lower bound on |D| over irreducible streams with a nonzero
    first digit: min |d_1 .. d_depth| minus the worst-case tail beyond the
    analyzed depth."""
    if depth < 1:
        raise DomainError("analysis depth must be at least 1")
    rule_list = [r for r in rules if len(r.lhs) <= depth]
    zero = sys.zero_index
    indices = range(len(sys.alphabet))
    best_sq: RealQuad | None = None
    best_exact: ComplexQuad | None = None
    for combo in product(indices, repeat=depth):
        if combo[0] == zero:
            continue
        if any(tuple(combo[: len(r.lhs)]) == r.lhs for r in rule_list):
            continue
        value = _prefix_value(sys, combo)
        n = value.norm_sq()
        if best_sq is None or (n - best_sq).sign() < 0:
            best_sq, best_exact = n, value
    if best_sq is None:
        raise DomainError("every prefix is reducible: no irreducible divisor exists")

    tail_exact = _tail_exact(sys, depth)
    if sys.is_real and best_exact is not None and tail_exact is not None:
        bound = abs(best_exact.re) - tail_exact
        return bound.to_interval(precision)
    for _ in range(40):
        min_abs = sqrt_enclosure(best_sq, precision / 4)
        tail = sys.d_max(precision / 4) / sys.abs_beta(precision / 4).pow_int(depth)
        result = min_abs - tail
        if result.width() <= precision:
            return result
        precision /= 4
    raise DomainError("interval evaluation failed to converge")


def dmin_search(sys: NumerationSystem, rules, depth_cap: int) -> tuple[int, RationalInterval]:
    """Shallowest analysis depth up to depth_cap (and within the enumeration
    budget) at which dmin_lower_bound is positive, with that bound.  Raises
    DomainError when there is none; at once when no rules are given and zero
    has a non-trivial representation, since then no depth can succeed."""
    if not rules:
        try:
            nontrivial = zero_has_nontrivial_rep(sys).nontrivial_exists
        except CriterionInapplicableError:
            nontrivial = False
        if nontrivial:
            raise DomainError("zero has a non-trivial representation: no positive divisor bound without rewrite rules")
    for depth in range(1, depth_cap + 1):
        if len(sys.alphabet) ** depth > _ENUM_BUDGET:
            break
        iv = dmin_lower_bound(sys, rules, depth)
        if iv.lo > 0:
            return depth, iv
    raise DomainError("no positive leading-prefix bound within the enumeration budget")


def _tail_exact(sys: NumerationSystem, depth: int) -> RealQuad | None:
    d_max = sys.d_max_exact()
    if d_max is None:
        return None
    beta_abs = sys.abs_beta_exact()
    if beta_abs is None:
        return None
    return d_max / beta_abs**depth

