import random
from fractions import Fraction

import pytest

from olnum.errors import DomainError
from olnum.field import RealQuad, sqrt_interval
from olnum.numeration import DigitString, eval_digits, format_digits, parse_digits
from olnum.preprocess import (
    RewriteRule,
    dmin_lower_bound,
    expand_rules,
    preprocess_divisor,
    verify_rules,
)
from olnum.presets import load_preset


@pytest.fixture(scope="module")
def base2():
    return load_preset("integer:2:-1:1")


@pytest.fixture(scope="module")
def golden_mean():
    return load_preset("golden-mean")


@pytest.fixture(scope="module")
def eisenstein():
    return load_preset("eisenstein")


class TestVerifyRules:
    def test_golden_mean_rules_pass(self, golden_mean):
        results = verify_rules(golden_mean.sys, golden_mean.preprocess.rules)
        assert results and all(ok for _, ok in results)

    def test_eisenstein_all_classes_pass(self, eisenstein):
        rules = eisenstein.preprocess.rules
        assert len(rules) == 54  # 9 classes x 6 unit multipliers
        results = verify_rules(eisenstein.sys, rules)
        assert all(ok for _, ok in results)

    def test_bogus_rule_fails(self, base2):
        sys_ = base2.sys
        one = sys_.index_of_symbol("1")
        zero = sys_.zero_index
        bogus = RewriteRule((one,), (zero,))
        results = verify_rules(sys_, [bogus])
        assert results[0][1] is False


class TestExpandRules:
    def test_eisenstein_class_a(self, eisenstein):
        sys_ = eisenstein.sys
        one = sys_.index_of_symbol("1")
        zero = sys_.zero_index
        w = sys_.index_of_symbol("w")
        w2 = sys_.index_of_symbol("W")
        seed = RewriteRule((one, one), (zero, w))
        expanded = expand_rules(sys_, [seed])
        assert len(expanded) == 6
        assert RewriteRule((w, w), (zero, w2)) in expanded

    def test_golden_rule_negation(self, golden_mean):
        sys_ = golden_mean.sys
        one = sys_.index_of_symbol("1")
        neg = sys_.index_of_symbol("-1")
        zero = sys_.zero_index
        seed = RewriteRule((one, zero, neg), (zero, one, zero))
        expanded = expand_rules(sys_, [seed])
        assert RewriteRule((neg, zero, one), (zero, neg, zero)) in expanded

    def test_empty_seed(self, golden_mean):
        assert expand_rules(golden_mean.sys, []) == []

    def test_leaving_alphabet(self):
        p = load_preset("integer:3:-1:2")
        sys_ = p.sys
        neg = sys_.index_of_symbol("-1")
        two = sys_.index_of_symbol("2")
        zero = sys_.zero_index
        with pytest.raises(DomainError):
            expand_rules(sys_, [RewriteRule((neg, two), (zero, neg))])


class TestPreprocessDivisor:
    def test_base2_worked_chain(self, base2):
        sys_ = base2.sys
        ds = parse_digits(sys_, "0 . 1 -1 -1 -1 0 -1 1 0 0 1")
        out, shift = preprocess_divisor(base2.preprocess, sys_, ds)
        assert format_digits(sys_, out) == "0 . 1 0 -1 1 0 0 1"
        assert shift == 3

    def test_irreducible_identity(self, base2):
        sys_ = base2.sys
        ds = parse_digits(sys_, "0 . 1 0 0 1")
        out, shift = preprocess_divisor(base2.preprocess, sys_, ds)
        assert format_digits(sys_, out) == "0 . 1 0 0 1"
        assert shift == 0

    def test_golden_mean_example(self, golden_mean):
        sys_ = golden_mean.sys
        ds = parse_digits(sys_, "0 . 1 0 -1")
        out, shift = preprocess_divisor(golden_mean.preprocess, sys_, ds)
        assert format_digits(sys_, out) == "0 . 1 0"
        assert shift == 1

    def test_zero_divisor(self, golden_mean):
        sys_ = golden_mean.sys
        ds = parse_digits(sys_, "0 . 1 -1 -1")
        with pytest.raises(DomainError):
            preprocess_divisor(golden_mean.preprocess, sys_, ds)

    def test_value_preserved(self, base2):
        sys_ = base2.sys
        rng = random.Random(4)
        for _ in range(50):
            digits = [rng.randrange(3) for _ in range(12)]
            if all(i == sys_.zero_index for i in digits):
                continue
            ds = DigitString((sys_.zero_index,), tuple(digits))
            original = eval_digits(sys_, ds)
            if original.is_zero():
                continue
            out, shift = preprocess_divisor(base2.preprocess, sys_, ds)
            assert (eval_digits(sys_, out) - sys_.beta_pow(shift) * original).is_zero()

    def test_prefix_discipline_after_preprocessing(self, eisenstein):
        sys_ = eisenstein.sys
        spec = eisenstein.preprocess
        dmin_sq = RealQuad.from_fraction(spec.d_min.hi ** 2)
        rng = random.Random(8)
        na = len(sys_.alphabet)
        for _ in range(60):
            digits = [rng.choice([i for i in range(na) if i != sys_.zero_index])]
            digits += [rng.randrange(na) for _ in range(10)]
            ds = DigitString((sys_.zero_index,), tuple(digits))
            if eval_digits(sys_, ds).is_zero():
                continue
            out, _ = preprocess_divisor(spec, sys_, ds)
            partial = None
            from olnum.field import ComplexQuad

            partial = ComplexQuad.zero()
            for j, idx in enumerate(out.frac_digits, start=1):
                partial = partial + sys_.digit(idx) * sys_.beta_pow(-j)
                assert (partial.norm_sq() - dmin_sq).sign() >= 0


class TestDminLowerBound:
    def test_base2_quarter(self, base2):
        iv = dmin_lower_bound(base2.sys, base2.preprocess.rules, 2)
        assert iv.lo == iv.hi == Fraction(1, 4)

    def test_base3_ninth(self):
        p = load_preset("integer:3:-1:2")
        iv = dmin_lower_bound(p.sys, p.preprocess.rules, 2)
        assert iv.lo == iv.hi == Fraction(1, 9)

    def test_base4_twelfth(self):
        p = load_preset("base4")
        iv = dmin_lower_bound(p.sys, (), 1)
        assert iv.lo == iv.hi == Fraction(1, 12)

    def test_golden_mean_beta_minus_five(self, golden_mean):
        iv = dmin_lower_bound(golden_mean.sys, golden_mean.preprocess.rules, 3)
        beta = golden_mean.sys.base.re
        expected = (beta**5).inverse().to_interval(Fraction(1, 10**12))
        assert iv.lo <= expected.hi and expected.lo <= iv.hi
        # tight: the bound is exactly 1/beta^5
        assert iv.width() <= Fraction(1, 10**7)
        assert iv.contains(Fraction("0.0901699437494742410"))

    def test_eisenstein_constant(self, eisenstein):
        iv = dmin_lower_bound(eisenstein.sys, eisenstein.preprocess.rules, 3, precision=Fraction(1, 10**7))
        # sqrt(3)*(6-sqrt(7))/18 by interval arithmetic, independent of the params module
        w = Fraction(1, 10**12)
        oracle = sqrt_interval(3, w) * (6 - sqrt_interval(7, w)) / 18
        assert oracle.width() <= w
        assert iv.width() <= Fraction(1, 10**6)
        assert iv.lo <= oracle.lo and oracle.hi <= iv.hi

    def test_eisenstein_min_prefix_norm(self, eisenstein):
        # exhaustive depth-3 search: min |0.d1d2d3|^2 >= 1/3 over irreducible prefixes
        sys_ = eisenstein.sys
        rules = [r for r in eisenstein.preprocess.rules if len(r.lhs) <= 3]
        from itertools import product

        from olnum.field import ComplexQuad

        best = None
        for combo in product(range(7), repeat=3):
            if combo[0] == sys_.zero_index:
                continue
            if any(tuple(combo[: len(r.lhs)]) == r.lhs for r in rules):
                continue
            value = ComplexQuad.zero()
            for idx in reversed(combo):
                value = (value + sys_.digit(idx)) * sys_.inv_base
            n = value.norm_sq()
            if best is None or (n - best).sign() < 0:
                best = n
        assert best == RealQuad(1, 0, 3)

    def test_all_reducible_error(self, base2):
        sys_ = base2.sys
        one = sys_.index_of_symbol("1")
        neg = sys_.index_of_symbol("-1")
        zero = sys_.zero_index
        # rules that eat every nonzero leading digit at depth 1
        rules = [RewriteRule((one,), (zero,)), RewriteRule((neg,), (zero,))]
        with pytest.raises(DomainError):
            dmin_lower_bound(sys_, rules, 1)

    def test_depth_validation(self, base2):
        with pytest.raises(DomainError):
            dmin_lower_bound(base2.sys, (), 0)
