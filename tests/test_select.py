import hashlib
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from olnum.errors import CertificateError, DomainError, OlnumError
from olnum.field import ComplexQuad, RealQuad
from olnum.numeration import DigitString, NumerationSystem, eval_digits, parse_digits
from olnum import preprocess, presets, select
from olnum.presets import load_preset
from olnum.region import (
    ball_fits,
    digit_select,
    fattened_domain,
    in_growth_phase,
    nearest_admissible,
    nearest_qualifying,
    real_interval_certificate,
    select_d_exact,
)
from olnum.select import (
    golden_d_rule,
    golden_m_rule,
    int_window_ceiling,
    max_int_window,
    select_d,
    select_m,
    synthesize_table,
    truncate,
    window_encode,
)


@pytest.fixture(scope="module")
def golden():
    return load_preset("golden-square")


@pytest.fixture(scope="module")
def knuth():
    return load_preset("knuth")


@pytest.fixture(scope="module")
def eisenstein():
    return load_preset("eisenstein")


def _win(sys_, text, L):
    return truncate(sys_, parse_digits(sys_, text), L)


class TestTruncate:
    def test_keeps_int_and_l_frac(self, golden):
        sys_ = golden.sys
        w = truncate(sys_, parse_digits(sys_, "1 0 . 1 1 1 1 1"), 3)
        assert w.digits.int_digits == parse_digits(sys_, "1 0 . ").int_digits
        assert len(w.digits.frac_digits) == 3

    def test_exact_when_short(self, golden):
        sys_ = golden.sys
        w = truncate(sys_, parse_digits(sys_, "0 . 1 1"), 5)
        assert w.tail_bound.lo == w.tail_bound.hi == 0
        assert (w.value - eval_digits(sys_, parse_digits(sys_, "0 . 1 1"))).is_zero()

    def test_tail_bound_golden(self, golden):
        # tail for L=3 encloses 1/(beta^3 (beta-1))
        sys_ = golden.sys
        w = _win(sys_, "0 . 1 1 1 1 1 1", 3)
        true_tail = (sys_.base.re ** 3 * (sys_.base.re - 1)).inverse()
        iv = true_tail.to_interval(Fraction(1, 10**12))
        assert w.tail_bound.hi >= iv.lo

    def test_knuth_window_inequality(self, knuth):
        # L=7 tail bound encloses 2/2^7 = 1/64, and 1/64 < eps/2 = 1/36
        sys_ = knuth.sys
        w = _win(sys_, "0 . 1 1 1 1 1 1 1 1 1", 7)
        assert w.tail_bound.contains(Fraction(1, 64))
        assert w.tail_bound.hi < Fraction(1, 36)


class TestSelectM:
    def test_claim_window_positive(self, golden):
        sys_, cert = golden.sys, golden.cert
        w = _win(sys_, "0 0 . 1 1 0", 3)
        idx = select_m(cert, sys_, w)
        assert sys_.symbol(idx) == "1"

    def test_all_zero(self, golden):
        sys_, cert = golden.sys, golden.cert
        assert select_m(cert, sys_, _win(sys_, "0 . 0 0 0", 3)) == sys_.zero_index

    def test_below_half(self, golden):
        sys_, cert = golden.sys, golden.cert
        w = _win(sys_, "0 1 . -1 -1 0", 3)
        # value = 1 - 1/beta - 1/beta^2 <= 1/2
        assert select_m(cert, sys_, w) == sys_.zero_index

    def test_tail_too_large(self, golden):
        sys_, cert = golden.sys, golden.cert
        w = _win(sys_, "0 . 1 1 1 1 1 1", 1)
        with pytest.raises(DomainError):
            select_m(cert, sys_, w)


@pytest.fixture(scope="module")
def nonneg():
    return load_preset("integer:2:0:2")


class TestSelectMExtended:
    """select_m on a non-negative alphabet: the certificate's growth phase."""

    def test_zero(self, nonneg):
        sys_, cert = nonneg.sys, nonneg.cert
        w = _win(sys_, "0 . 0 0 0 0 0", 5)
        assert select_m(cert, sys_, w) == sys_.zero_index

    def test_below_threshold(self, nonneg):
        sys_, cert = nonneg.sys, nonneg.cert
        # beta*lambda - eps/2 = 2/3 - 1/12 = 7/12; pick value 1/2 < 7/12
        w = _win(sys_, "0 . 1 0 0 0 0", 5)
        assert (w.value.re - RealQuad(7, 0, 12)).sign() < 0
        assert select_m(cert, sys_, w) == sys_.zero_index

    def test_matches_select_m_in_domain(self, nonneg):
        sys_, cert = nonneg.sys, nonneg.cert
        w = _win(sys_, "1 . 0 0 0 0 0", 5)  # value 1, inside (beta I)^(eps/2)
        v = w.value
        assert not in_growth_phase(cert, sys_, v)
        assert select_m(cert, sys_, w) == nearest_qualifying(sys_, v, lambda i: ball_fits(cert, sys_, v, i))


class TestSelectD:
    def test_golden_examples(self, golden):
        sys_, cert = golden.sys, golden.cert
        alpha = golden.div_params.alpha
        v = ComplexQuad(RealQuad(2, 0, 5))
        d = ComplexQuad(RealQuad(1, 0, 2))
        assert sys_.symbol(select_d_exact(cert, sys_, v, d)) == "1"
        assert select_d_exact(cert, sys_, ComplexQuad.zero(), d) == sys_.zero_index
        assert sys_.symbol(select_d_exact(cert, sys_, -v, d)) == "-1"

    def test_windowed(self, golden):
        sys_, cert = golden.sys, golden.cert
        alpha = golden.div_params.alpha
        w = _win(sys_, "0 . 0 1", 9)
        d = _win(sys_, "0 . 1", 9)
        # V/Delta = 1/beta < 1/2: digit 0
        assert select_d(cert, sys_, w, d, alpha, golden.div_params.d_min) == sys_.zero_index
        # V/Delta = 1 > 1/2: digit 1
        w1 = _win(sys_, "0 . 1", 9)
        idx = select_d(cert, sys_, w1, d, alpha, golden.div_params.d_min)
        assert sys_.symbol(idx) == "1"

    def test_below_dmin(self, golden):
        sys_, cert = golden.sys, golden.cert
        alpha = golden.div_params.alpha
        w = _win(sys_, "0 . 0 1", 9)
        d = _win(sys_, "0 . 0 0 0 0 1", 9)
        with pytest.raises(DomainError):
            select_d(cert, sys_, w, d, alpha, golden.div_params.d_min)


# digest of select_d_exact over _select_d_lines(): the quotient digits that
# division selects on these pairs, boundary ties included
SELECT_D_PRESETS = ("golden-square", "knuth", "eisenstein", "integer:2:-1:1", "base4")
SELECT_D_SHA256 = "6c1b3a7499a19367653a79ffd3d6afb4acdf777ab62dd13af5ab1696680afdfe"


def _select_d_cases(p, rng):
    """(v, delta) pairs: seeded quotients u, the points of every eroded edge
    of I + a at distance exactly eps from its boundary, and the midpoints of
    digit pairs (nearest-digit ties), each times three seeded divisors."""
    sys_, cert = p.sys, p.div_cert
    zero, n = sys_.zero_index, len(sys_.alphabet)
    nonzero = [i for i in range(n) if i != zero]
    region, eps = cert.region, cert.epsilon
    quotients = [eval_digits(sys_, DigitString((rng.randrange(n),), tuple(rng.randrange(n) for _ in range(5))))
                 for _ in range(40)]
    half = ComplexQuad(RealQuad(1, 0, 2))
    for i, a in enumerate(sys_.alphabet):
        if region.is_interval:
            lo, hi = region.interval_bounds()
            quotients += [ComplexQuad(lo + eps) + a, ComplexQuad(hi - eps) + a]
        else:
            pts = region.vertices
            for (gx, gy, _, nsq), p0, p1 in zip(region.halfplanes(), pts, pts[1:] + pts[:1]):
                norm = nsq.sqrt_exact(sys_.ambient_d)
                if norm is not None:  # edge midpoint moved inward by eps
                    quotients.append((p0 + p1) * half + a + ComplexQuad(gx * eps / norm, gy * eps / norm))
        quotients += [(a + b) * half for b in sys_.alphabet[i + 1:]]
    for u in quotients:
        for _ in range(3):
            while True:
                digits = (rng.choice(nonzero),) + tuple(rng.randrange(n) for _ in range(5))
                delta = eval_digits(sys_, DigitString((zero,), digits))
                if not delta.is_zero():
                    break
            yield u * delta, delta


def _select_d_lines():
    rng = random.Random(14)
    for name in SELECT_D_PRESETS:
        p = load_preset(name)
        for v, delta in _select_d_cases(p, rng):
            try:
                token = p.sys.symbol(select_d_exact(p.div_cert, p.sys, v, delta))
            except OlnumError as exc:
                token = "!" + type(exc).__name__
            yield f"{name} {token}"


@st.composite
def _integer_quotient(draw):
    """A drawn integer system (#A > |b|, contiguous alphabet holding 0), its
    default certificate, a quotient u (often on an eroded edge) and a divisor."""
    b = draw(st.sampled_from([-5, -4, -3, -2, 2, 3, 4, 5]))
    size = draw(st.integers(abs(b) + 1, abs(b) + 3))
    m = -draw(st.integers(0, size - 1))
    digits = range(m, m + size)
    sys_ = NumerationSystem(ComplexQuad.from_int(b), [ComplexQuad.from_int(d) for d in digits],
                            [str(d) for d in digits])
    cert = real_interval_certificate(sys_)
    lo, hi = (x.to_fraction() for x in cert.region.interval_bounds())
    eps = cert.epsilon.to_fraction()
    edges = [e + d for d in digits for e in (lo + eps, hi - eps)]
    u = draw(st.one_of(st.sampled_from(edges), st.fractions(-2 * size, 2 * size, max_denominator=60)))
    delta = draw(st.fractions(-3, 3, max_denominator=60).filter(bool))
    return sys_, cert, u, delta


class TestSelectDExact:
    def test_digest(self):
        lines = list(_select_d_lines())
        assert len(lines) == 993
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == SELECT_D_SHA256

    def test_zero_divisor(self, golden):
        with pytest.raises(DomainError):
            select_d_exact(golden.cert, golden.sys, ComplexQuad.from_int(1), ComplexQuad.zero())

    @settings(max_examples=200)
    @given(_integer_quotient())
    def test_is_the_core_on_the_quotient(self, case):
        sys_, cert, u, delta = case
        lo, hi = (x.to_fraction() for x in cert.region.interval_bounds())
        eps = cert.epsilon.to_fraction()
        values = [a.re.to_fraction() for a in sys_.alphabet]
        fits = [i for i, a in enumerate(values) if lo + a + eps <= u <= hi + a - eps]
        expected = min(fits, key=lambda i: (abs(u - values[i]), i)) if fits else None
        uq = ComplexQuad(RealQuad.from_fraction(u))
        assert nearest_admissible(cert, sys_, uq) == expected
        dq = ComplexQuad(RealQuad.from_fraction(delta))
        if expected is None:
            with pytest.raises(CertificateError):
                select_d_exact(cert, sys_, uq * dq, dq)
        else:
            assert select_d_exact(cert, sys_, uq * dq, dq) == expected


class TestSpecializedGoldenM:
    def test_claim_case(self, golden):
        sys_ = golden.sys
        w = _win(sys_, "0 0 . 1 1 0", 3)
        assert sys_.symbol(golden_m_rule(sys_, w)) == "1"

    def test_agrees_with_generic_on_all_windows(self, golden):
        sys_, cert = golden.sys, golden.cert
        count = 0
        for combo in product(range(3), repeat=5):
            ds = DigitString(tuple(combo[:2]), tuple(combo[2:]))
            w = truncate(sys_, ds, 3)
            value = w.value
            from olnum.region import digit_select_total

            assert golden_m_rule(sys_, w) == digit_select_total(cert, sys_, value)
            count += 1
        assert count == 243


class TestSpecializedGoldenD:
    def test_boundary(self, golden):
        # Delta = 1/beta - 1/beta^2 + 1/beta^3 = 2/beta^2 exactly, so V = +-1/beta^2
        # sits on a tie 2V = +-Delta, where neither strict inequality holds -> 0
        sys_ = golden.sys
        d = _win(sys_, "0 . 1 -1 1", 9)
        dd = d.value
        for v_text, tie_sign in (("0 . 0 1", 1), ("0 . 0 -1", -1)):
            v = _win(sys_, v_text, 9)
            vv = v.value
            assert (vv + vv - dd * RealQuad(tie_sign)).is_zero()
            assert golden_d_rule(sys_, v, d) == sys_.zero_index
            assert select_d_exact(golden.div_cert, sys_, vv, dd) == sys_.zero_index

    def test_agrees_with_generic_random(self, golden):
        sys_, cert = golden.sys, golden.cert
        rng = random.Random(77)
        lo_sq = RealQuad.from_fraction(golden.div_params.d_min.hi ** 2)
        checked = 0
        tries = 0
        while checked < 2000 and tries < 40_000:
            tries += 1
            d_digits = [sys_.index_of_symbol(rng.choice(["1", "-1"]))] + [
                rng.randrange(3) for _ in range(8)
            ]
            d_win = truncate(sys_, DigitString((sys_.zero_index,), tuple(d_digits)), 9)
            delta = d_win.value
            if (delta.norm_sq() - lo_sq).sign() < 0:
                continue
            u_int = rng.randrange(3)
            u_digits = [rng.randrange(3) for _ in range(9)]
            w_win = truncate(sys_, DigitString((u_int,), tuple(u_digits)), 9)
            v = w_win.value
            # keep the pair inside the admissible scaled domain
            z = v / delta
            from olnum.region import region_dist_sq
            fat = cert.epsilon
            if (region_dist_sq(cert.beta_region(sys_), z) - fat * fat).sign() > 0:
                continue
            assert golden_d_rule(sys_, w_win, d_win) == select_d_exact(cert, sys_, v, delta)
            checked += 1
        assert checked == 2000


def _knuth_threshold_digit(re: RealQuad) -> int:
    """Knuth's threshold rule for the oblong with eps = 1/18: the digit a
    with |Re v - a| <= 1/2, ties towards zero."""
    for a in (2, 1):
        if (re - RealQuad(2 * a - 1, 0, 2)).sign() > 0:
            return a
        if (re + RealQuad(2 * a - 1, 0, 2)).sign() < 0:
            return -a
    return 0


class TestKnuthDigit:
    def test_thresholds(self, knuth):
        sys_, cert = knuth.sys, knuth.cert
        cases = [
            ("2 . ", "2"),       # Re = 2 > 3/2
            ("1 . ", "1"),       # Re = 1 in (1/2, 3/2]
            ("0 . ", "0"),
            ("-1 . ", "-1"),
            ("-2 . ", "-2"),     # Re = -2 < -3/2
        ]
        for text, expected in cases:
            value = _win(sys_, text, 7).value
            assert sys_.symbol(digit_select(cert, sys_, value)) == expected

    def test_agrees_with_generic(self, knuth):
        sys_, cert = knuth.sys, knuth.cert
        rng = random.Random(11)
        from olnum.region import region_dist_sq

        checked = 0
        for _ in range(4000):
            ints = [rng.randrange(5)]
            fracs = [rng.randrange(5) for _ in range(7)]
            ds = DigitString(tuple(ints), tuple(fracs))
            w = truncate(sys_, ds, 7)
            value = w.value
            fat = cert.select_fatten()
            if (region_dist_sq(cert.beta_region(sys_), value) - fat * fat).sign() > 0:
                continue
            expected = sys_.index_of_value(ComplexQuad.from_int(_knuth_threshold_digit(value.re)))
            assert expected == digit_select(cert, sys_, value)
            checked += 1
        assert checked > 500


class TestEisensteinDigit:
    def test_nearest(self, eisenstein):
        sys_ = eisenstein.sys
        w = _win(sys_, "0 . 1", 7)  # value 1/beta
        idx = nearest_qualifying(sys_, w.value, None)
        assert idx == digit_select(eisenstein.cert, sys_, w.value)

    def test_three_fifths(self, eisenstein):
        sys_ = eisenstein.sys
        assert sys_.symbol(nearest_qualifying(sys_, ComplexQuad(RealQuad(3, 0, 5)), None)) == "1"


class TestTableSynthesis:
    def test_golden_shape_and_size(self, golden):
        sys_, cert = golden.sys, golden.cert
        domain = fattened_domain(sys_, cert, cert.mult_fatten())
        table = synthesize_table(sys_, cert, 3, domain)
        assert table.window_shape == (2, 3)
        assert len(table.entries) == 243

    def test_golden_agrees_with_lexicographic_rule(self, golden):
        sys_, cert = golden.sys, golden.cert
        domain = fattened_domain(sys_, cert, cert.mult_fatten())
        table = synthesize_table(sys_, cert, 3, domain)
        for key, digit in table.entries.items():
            ds = DigitString(tuple(key[:2]), tuple(key[2:]))
            w = truncate(sys_, ds, 3)
            assert golden_m_rule(sys_, w) == digit

    def test_golden_consistent_with_digit_select_in_domain(self, golden):
        sys_, cert = golden.sys, golden.cert
        domain = fattened_domain(sys_, cert, cert.mult_fatten())
        table = synthesize_table(sys_, cert, 3, domain)
        from olnum.region import region_dist_sq

        fat = cert.select_fatten()
        checked = 0
        for key, digit in table.entries.items():
            ds = DigitString(tuple(key[:2]), tuple(key[2:]))
            value = eval_digits(sys_, ds)
            if (region_dist_sq(cert.beta_region(sys_), value) - fat * fat).sign() <= 0:
                assert digit_select(cert, sys_, value) == digit
                checked += 1
        assert checked > 50

    def test_knuth_three_integer_positions(self, knuth):
        sys_, cert = knuth.sys, knuth.cert
        domain = fattened_domain(sys_, cert, cert.mult_fatten())
        assert max_int_window(sys_, domain) == 3

    def test_base2_without_rules_errors(self):
        p = load_preset("integer:2:-1:1")
        domain = fattened_domain(p.sys, p.cert, p.cert.mult_fatten())
        with pytest.raises(DomainError):
            synthesize_table(p.sys, p.cert, 4, domain, rules=None)

    def test_nontrivial_zero_fails_without_enumeration(self, monkeypatch):
        base2 = load_preset("integer:2:-1:1")
        domain = fattened_domain(base2.sys, base2.cert, base2.cert.mult_fatten())

        def enumeration_forbidden(*args, **kwargs):
            raise AssertionError("dmin_lower_bound called")

        for module in (preprocess, presets, select):
            monkeypatch.setattr(module, "dmin_lower_bound", enumeration_forbidden, raising=False)
        with pytest.raises(DomainError):
            synthesize_table(base2.sys, base2.cert, 4, domain, rules=None)
        assert load_preset.__wrapped__("integer:4:-3:3").div_params is None

    def test_serialization_roundtrip(self, golden):
        sys_, cert = golden.sys, golden.cert
        domain = fattened_domain(sys_, cert, cert.mult_fatten())
        table = synthesize_table(sys_, cert, 3, domain)
        text = table.serialize(sys_)
        assert len(text.strip().splitlines()) == 243
        assert "->" in text

    def test_lookup(self, golden):
        sys_, cert = golden.sys, golden.cert
        domain = fattened_domain(sys_, cert, cert.mult_fatten())
        table = synthesize_table(sys_, cert, 3, domain)
        w = _win(sys_, "0 0 . 1 1 0", 3)
        assert sys_.symbol(table.lookup(sys_, w)) == "1"


class TestIntWindowCeiling:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_ratio_at_an_exact_power_of_the_base(self, m):
        # ratio = (reach + frac reach) / floor = 5^m: the least power of |beta|
        # reaching it is m, so m + 1 integer positions; just above, m + 2
        sys_ = load_preset("integer:5:-3:3").sys
        _, floor = preprocess.dmin_search(sys_, (), 8)
        reach = floor.lo * 5**m - select.generic_tail_bound(sys_, 0).hi
        assert int_window_ceiling(sys_, reach, floor) == m + 1
        assert int_window_ceiling(sys_, reach + Fraction(1, 10**30), floor) == m + 2


class TestWindowEncode:
    def test_tracks_value(self, golden):
        sys_, cert = golden.sys, golden.cert
        rng = random.Random(21)
        for _ in range(40):
            num = Fraction(rng.randint(-1300, 1300), 1000)
            v = ComplexQuad(RealQuad.from_fraction(num))
            from olnum.region import region_dist_sq

            fat = cert.mult_fatten()
            if (region_dist_sq(cert.beta_region(sys_), v) - fat * fat).sign() > 0:
                continue
            w = window_encode(sys_, cert, v, 4)
            err = (w.value - v).norm_sq()
            assert (err - RealQuad.from_fraction(w.tail_bound.hi**2)).sign() <= 0

    # (preset, certificate attribute): every certificate a bundled run encodes
    # with; integer:3:0:3's region lies right of zero, so small values are
    # scaled up and may start below the window's last digit (L + shift < 0)
    CERTS = (("golden-square", "cert"), ("golden-mean", "cert"), ("knuth", "cert"), ("eisenstein", "cert"),
             ("eisenstein", "div_cert"), ("base4", "cert"), ("integer:2:-1:1", "cert"), ("integer:3:0:3", "cert"))

    @staticmethod
    def _assert_exact(sys_, value, w):
        assert eval_digits(sys_, w.digits) == w.value
        assert ((value - w.value).norm_sq() - RealQuad.from_fraction(w.tail_bound.hi ** 2)).sign() <= 0

    @settings(max_examples=300)
    @given(case=st.sampled_from(CERTS), L=st.integers(0, 8), n_int=st.integers(0, 3), data=st.data())
    def test_value_is_the_digits_value(self, case, L, n_int, data):
        p = load_preset(case[0])
        sys_, cert = p.sys, getattr(p, case[1])
        idx = st.integers(0, len(sys_.alphabet) - 1)
        ints = data.draw(st.lists(idx, min_size=n_int, max_size=n_int)) or [sys_.zero_index]
        lead = data.draw(st.integers(0, L + 4))  # leading fractional zeros: small values
        fracs = data.draw(st.lists(idx, max_size=6))
        value = eval_digits(sys_, DigitString(tuple(ints), (sys_.zero_index,) * lead + tuple(fracs)))
        self._assert_exact(sys_, value, window_encode(sys_, cert, value, L))

    @pytest.mark.parametrize("case", CERTS, ids="-".join)
    def test_zero(self, case):
        p = load_preset(case[0])
        w = window_encode(p.sys, getattr(p, case[1]), ComplexQuad.zero(), 5)
        self._assert_exact(p.sys, ComplexQuad.zero(), w)
        assert w.value.is_zero() and w.tail_bound.hi == 0

    def test_value_below_the_window(self):
        # 3^-7 takes 6 scalings up into the region [1/8, 11/8], 3 more than
        # L = 3 keeps: every kept digit is 0, and the value lies within the tail
        p = load_preset("integer:3:0:3")
        value = ComplexQuad(RealQuad.from_fraction(Fraction(1, 3 ** 7)))
        w = window_encode(p.sys, p.cert, value, 3)
        self._assert_exact(p.sys, value, w)
        assert w.value.is_zero() and w.tail_bound.hi > 0
