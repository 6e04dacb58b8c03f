import random
import time
from fractions import Fraction

import pytest

from olnum.errors import CriterionInapplicableError, DomainError, ParseError
from olnum.field import ComplexQuad, RealQuad
from olnum.numeration import (
    DigitString,
    NumerationSystem,
    encode_value,
    eval_digits,
    format_digits,
    parse_digits,
    zero_has_nontrivial_rep,
)
from olnum.presets import load_preset
from olnum.region import region_contains


@pytest.fixture(scope="module")
def golden_square():
    return load_preset("golden-square")


@pytest.fixture(scope="module")
def golden_mean():
    return load_preset("golden-mean")


@pytest.fixture(scope="module")
def eisenstein():
    return load_preset("eisenstein")


class TestMakeSystem:
    def test_golden_square_valid(self, golden_square):
        sys_ = golden_square.sys
        assert sys_.is_real
        assert sys_.contiguous_range() == (-1, 1)
        assert sys_.base.re == RealQuad(3, 1, 2, 5)

    def test_zero_required(self):
        with pytest.raises(DomainError):
            NumerationSystem(ComplexQuad.from_int(3), [ComplexQuad.from_int(1), ComplexQuad.from_int(2)], ["1", "2"])

    def test_base_modulus(self):
        i = ComplexQuad(RealQuad(0), RealQuad(1))
        with pytest.raises(DomainError):
            NumerationSystem(i, [ComplexQuad.from_int(0)], ["0"])

    def test_duplicate_symbols(self):
        with pytest.raises(DomainError):
            NumerationSystem(
                ComplexQuad.from_int(3),
                [ComplexQuad.from_int(0), ComplexQuad.from_int(1), ComplexQuad.from_int(-1)],
                ["0", "1", "1"],
            )

    def test_bad_symbols(self):
        with pytest.raises(ParseError):
            NumerationSystem(
                ComplexQuad.from_int(3),
                [ComplexQuad.from_int(0), ComplexQuad.from_int(1)],
                ["0", "a b"],
            )

    def test_d_max_pair_bound(self, eisenstein):
        # for the unit-digit complex alphabet the pair bound reaches sqrt(7)/2
        iv = eisenstein.sys.d_max(Fraction(1, 10**9))
        assert iv.contains(Fraction("1.3228756555322952953"))

    def test_json_roundtrip(self, golden_square):
        blob = golden_square.sys.to_dict()
        sys2 = type(golden_square.sys).from_dict(blob)
        assert sys2.base == golden_square.sys.base
        assert sys2.symbols == golden_square.sys.symbols


class TestParseFormat:
    def test_parse_golden(self, golden_square):
        sys_ = golden_square.sys
        ds = parse_digits(sys_, "0 . 1 -1 -1")
        assert ds.int_digits == (sys_.zero_index,)
        assert [sys_.symbol(i) for i in ds.frac_digits] == ["1", "-1", "-1"]

    def test_parse_eisenstein(self, eisenstein):
        sys_ = eisenstein.sys
        ds = parse_digits(sys_, "0 . 1 w -W")
        assert [sys_.symbol(i) for i in ds.frac_digits] == ["1", "w", "-W"]

    def test_unknown_token(self, golden_square):
        with pytest.raises(ParseError):
            parse_digits(golden_square.sys, "0 , 1")

    def test_missing_point(self, golden_square):
        with pytest.raises(ParseError):
            parse_digits(golden_square.sys, "0 1 1")

    def test_roundtrip_canonical(self, golden_square):
        sys_ = golden_square.sys
        for text in ("0 . 1 -1 -1", "1 0 . 0 1", "0 .", "-1 . 1"):
            assert format_digits(sys_, parse_digits(sys_, text)) == text

    def test_leading_zero_normalization(self, golden_square):
        sys_ = golden_square.sys
        assert format_digits(sys_, parse_digits(sys_, "0 0 1 . 1")) == "1 . 1"


class TestEvalDigits:
    def test_golden_mean_zero_rep(self, golden_mean):
        sys_ = golden_mean.sys
        ds = parse_digits(sys_, "0 . 1 -1 -1")
        assert eval_digits(sys_, ds).is_zero()

    def test_golden_square_inverse_base(self, golden_square):
        sys_ = golden_square.sys
        ds = parse_digits(sys_, "0 . 1")
        assert eval_digits(sys_, ds) == ComplexQuad(RealQuad(3, -1, 2, 5))

    def test_all_zero(self, golden_square):
        sys_ = golden_square.sys
        ds = parse_digits(sys_, "0 . 0 0 0")
        assert eval_digits(sys_, ds).is_zero()

    def test_linearity(self, golden_square):
        sys_ = golden_square.sys
        rng = random.Random(3)
        for _ in range(25):
            a = [rng.randrange(3) for _ in range(6)]
            b = [rng.randrange(3) for _ in range(5)]
            whole = DigitString.make(sys_, [sys_.zero_index], a + b)
            first = DigitString.make(sys_, [sys_.zero_index], a)
            second = DigitString.make(sys_, [sys_.zero_index], b)
            lhs = eval_digits(sys_, whole)
            rhs = eval_digits(sys_, first) + sys_.beta_pow(-len(a)) * eval_digits(sys_, second)
            assert (lhs - rhs).is_zero()


class TestEncodeValue:
    def test_zero(self, golden_square):
        sys_, cert = golden_square.sys, golden_square.cert
        ds, shift = encode_value(sys_, cert, ComplexQuad.zero(), 4)
        assert shift == 0
        assert format_digits(sys_, ds) == "0 . 0 0 0 0"

    def test_inverse_base(self, golden_square):
        sys_, cert = golden_square.sys, golden_square.cert
        v = ComplexQuad(RealQuad(3, -1, 2, 5))  # 1/beta
        ds, shift = encode_value(sys_, cert, v, 3)
        assert shift == 0
        assert format_digits(sys_, ds) == "0 . 1 0 0"

    def test_negative_inverse_base(self, golden_square):
        sys_, cert = golden_square.sys, golden_square.cert
        v = ComplexQuad(RealQuad(-3, 1, 2, 5))
        ds, shift = encode_value(sys_, cert, v, 3)
        assert shift == 0
        assert format_digits(sys_, ds) == "0 . -1 0 0"

    def test_shift_reported(self, golden_square):
        sys_, cert = golden_square.sys, golden_square.cert
        v = ComplexQuad(RealQuad(4))  # far outside I
        n = 6
        ds, shift = encode_value(sys_, cert, v, n)
        assert shift >= 1
        # v = beta^shift * encoded up to the usual tail, scaled by beta^shift
        diff = (v - sys_.beta_pow(shift) * eval_digits(sys_, ds)).norm_sq()
        limit = (cert.k_bound * sys_.abs_beta().pow_int(shift - n)).hi ** 2
        assert (diff - RealQuad.from_fraction(limit)).sign() <= 0

    def test_roundtrip_bound_random(self, golden_square):
        sys_, cert = golden_square.sys, golden_square.cert
        lo, hi = cert.region.interval_bounds()
        rng = random.Random(9)
        n = 8
        tol_sq = RealQuad.from_fraction((cert.k_bound.hi * sys_.abs_beta().pow_int(-n).hi) ** 2)
        for _ in range(100):
            t = Fraction(rng.randint(0, 10**6), 10**6)
            v = ComplexQuad(lo + (hi - lo) * RealQuad.from_fraction(t))
            assert region_contains(cert.region, v)
            ds, shift = encode_value(sys_, cert, v, n)
            assert shift == 0
            err = (eval_digits(sys_, ds) - v).norm_sq()
            assert (err - tol_sq).sign() <= 0

    def test_roundtrip_bound_complex(self, eisenstein):
        sys_, cert = eisenstein.sys, eisenstein.cert
        rng = random.Random(10)
        verts = cert.region.vertices
        n = 8
        tol_sq = RealQuad.from_fraction((cert.k_bound.hi * sys_.abs_beta().pow_int(-n).hi) ** 2)
        for _ in range(100):
            weights = [rng.randint(0, 100) for _ in verts]
            total = sum(weights) or 1
            v = ComplexQuad.zero()
            for wgt, vertex in zip(weights, verts):
                v = v + vertex * ComplexQuad(RealQuad.from_fraction(Fraction(wgt, total)))
            ds, shift = encode_value(sys_, cert, v, n)
            assert shift == 0
            err = (eval_digits(sys_, ds) - v).norm_sq()
            assert (err - tol_sq).sign() <= 0


class TestZeroRep:
    def test_base4_trivial_only(self):
        p = load_preset("base4")
        verdict = zero_has_nontrivial_rep(p.sys)
        assert verdict.nontrivial_exists is False

    def test_base2_nontrivial(self):
        p = load_preset("integer:2:-1:1")
        verdict = zero_has_nontrivial_rep(p.sys)
        assert verdict.nontrivial_exists is True

    def test_base3_nontrivial(self):
        p = load_preset("integer:3:-1:2")
        verdict = zero_has_nontrivial_rep(p.sys)
        assert verdict.nontrivial_exists is True

    def test_negative_base_reduces_to_modulus(self):
        # d_j -> (-1)^j d_j carries base -b with a symmetric alphabet to base b
        assert zero_has_nontrivial_rep(load_preset("integer:-2:-1:1").sys).nontrivial_exists is True
        assert zero_has_nontrivial_rep(load_preset("integer:-4:-2:2").sys).nontrivial_exists is False
        assert load_preset("integer:-4:-2:2").div_params is not None
        start = time.perf_counter()
        preset = load_preset.__wrapped__("integer:-3:-3:3")
        assert time.perf_counter() - start < 1.0
        assert preset.div_params is None

    def test_complex_inapplicable(self):
        p = load_preset("knuth")
        with pytest.raises(CriterionInapplicableError):
            zero_has_nontrivial_rep(p.sys)

    def test_nonneg_alphabet_inapplicable(self):
        p = load_preset("integer:2:0:2")
        with pytest.raises(CriterionInapplicableError):
            zero_has_nontrivial_rep(p.sys)
