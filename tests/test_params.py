from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from olnum.errors import DomainError
from olnum.field import ComplexQuad, RationalInterval, RealQuad
from olnum.numeration import NumerationSystem
from olnum.params import ALPHA_FRACTION, _certainly_less, _first_k, div_params, eisenstein_params, mult_params, round_down
from olnum import params as params_mod
from olnum import presets as presets_mod
from olnum.preprocess import dmin_search
from olnum.presets import EISENSTEIN_PAIRS, load_preset
from olnum.region import ConvexPolygon, OLCertificate, real_interval_certificate


@pytest.fixture(scope="module")
def golden():
    return load_preset("golden-square")


@pytest.fixture(scope="module")
def knuth():
    return load_preset("knuth")


class TestMultParams:
    def test_golden_delta(self, golden):
        p = mult_params(golden.sys, golden.cert)
        assert p.delta == 4

    def test_golden_generic_window(self, golden):
        # the generic tail inequality needs four digits; the preset publishes 3
        assert mult_params(golden.sys, golden.cert).window_l == 4
        assert golden.mult_params.window_l == 3

    def test_knuth(self, knuth):
        p = mult_params(knuth.sys, knuth.cert)
        assert (p.delta, p.window_l) == (9, 7)

    def test_minimality(self, golden):
        # beta^3 fails the delay inequality, beta^4 passes (0.3% margin)
        sys_ = golden.sys
        beta = sys_.base.re
        eps_half = golden.cert.epsilon / 2
        c = (RealQuad(2)) / (beta - 1)
        assert (eps_half * beta**4 - c).sign() > 0
        assert (eps_half * beta**3 - c).sign() < 0

    def test_monotone_in_epsilon(self, golden):
        from olnum.region import OLCertificate

        sys_ = golden.sys
        bigger = OLCertificate(golden.cert.region, golden.cert.epsilon * RealQuad(2))
        p_big = mult_params(sys_, bigger)
        p_ref = mult_params(sys_, golden.cert)
        assert p_big.delta <= p_ref.delta
        assert p_big.window_l <= p_ref.window_l


class TestDivParams:
    def test_golden_generic_delta(self, golden):
        assert div_params(golden.sys, golden.div_cert, golden.preprocess.d_min).delta == 7

    def test_golden_preset_override(self, golden):
        assert (golden.div_params.delta, golden.div_params.window_l) == (6, 9)

    def test_knuth(self, knuth):
        p = div_params(knuth.sys, knuth.cert, knuth.preprocess.d_min)
        assert (p.delta, p.window_l) == (11, 11)
        assert p.alpha is not None and p.alpha > 0

    def test_alpha_inequality(self, knuth):
        # alpha (1 + |beta| K + eps) < (eps/2) D_min with certainty
        p = div_params(knuth.sys, knuth.cert, knuth.preprocess.d_min)
        prec = Fraction(1, 10**9)
        lhs = RationalInterval.point(p.alpha) * (
            1 + knuth.sys.abs_beta(prec) * knuth.cert.k_bound + knuth.cert.epsilon.to_interval(prec)
        )
        rhs = knuth.cert.epsilon.to_interval(prec) * RationalInterval.point(p.d_min.lo) / 2
        assert lhs.hi < rhs.lo

    def test_dmin_zero_rejected(self, golden):
        with pytest.raises(DomainError):
            div_params(golden.sys, golden.cert, RationalInterval(Fraction(-1), Fraction(1)))

    def test_monotone_in_dmin(self, knuth):
        small = div_params(knuth.sys, knuth.cert, RationalInterval.point(Fraction(1, 12)))
        large = div_params(knuth.sys, knuth.cert, RationalInterval.point(Fraction(1, 3)))
        assert large.delta <= small.delta
        assert large.window_l <= small.window_l


def integer_base_delay(beta: int, a: int) -> int:
    """Smallest delay for an integer base >= 2 with symmetric digits -a..a."""
    if beta < 2:
        raise DomainError("integer base must be at least 2")
    if not (Fraction(beta, 2) <= a <= beta - 1):
        raise DomainError("digit bound must satisfy beta/2 <= a <= beta - 1")
    rhs = Fraction(2 * a + 1, 2)
    def holds(delta: int) -> bool:
        return Fraction(beta, 2) + Fraction(2 * a * a, beta**delta * (beta - 1)) <= rhs
    return _first_k(holds, 1)


class TestIntegerBaseDelay:
    def test_base2(self):
        assert integer_base_delay(2, 1) == 2

    def test_base10(self):
        assert integer_base_delay(10, 9) == 1

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            integer_base_delay(4, 4)
        with pytest.raises(DomainError):
            integer_base_delay(4, 1)


class TestEisensteinFrontier:
    def test_mult_pairs(self):
        frontier = [(p.delta, p.window_l) for p in eisenstein_params("mult")]
        assert (5, 7) in frontier
        assert (6, 6) in frontier

    def test_mult_frontier_is_pareto(self):
        pts = [(p.delta, p.window_l) for p in eisenstein_params("mult")]
        for a in pts:
            for b in pts:
                if a != b:
                    assert not (b[0] <= a[0] and b[1] <= a[1])

    def test_div_contains_window_minimal_pair(self):
        frontier = [(p.delta, p.window_l) for p in eisenstein_params("div")]
        assert (10, 9) in frontier

    def test_div_frontier_regression(self):
        # the printed inequalities admit exactly these Pareto-minimal pairs
        frontier = [(p.delta, p.window_l) for p in eisenstein_params("div")]
        assert frontier == [(7, 11), (8, 10), (10, 9)]

    def test_witness_budget_exact(self):
        s3 = RealQuad.sqrt_d(3)
        budget = RealQuad(0, 1, 6, 3)
        for kind in ("mult", "div"):
            for point in eisenstein_params(kind):
                assert point.mu > 0 and point.nu > 0
                lhs = s3 * RealQuad.from_fraction(point.mu) + RealQuad.from_fraction(point.nu)
                assert (budget - lhs).sign() >= 0

    def test_bad_kind(self):
        with pytest.raises(DomainError):
            eisenstein_params("other")


class TestEisensteinPins:
    def test_pins_are_the_frontier_choices(self):
        chosen = {"mult": eisenstein_params("mult")[0], "div": eisenstein_params("div")[-1]}
        p = load_preset("eisenstein")
        for kind, cert, params in (("mult", p.cert, p.mult_params), ("div", p.div_cert, p.div_params)):
            point = chosen[kind]
            assert EISENSTEIN_PAIRS[kind] == (point.delta, point.window_l) == (params.delta, params.window_l)
            assert (cert.mu, cert.nu) == (RealQuad.from_fraction(point.mu), RealQuad.from_fraction(point.nu))

    def test_load_sweeps_no_frontier(self, monkeypatch):
        def sweep(*args, **kwargs):
            raise AssertionError("preset load swept a frontier")

        monkeypatch.setattr(params_mod, "eisenstein_params", sweep)
        monkeypatch.setattr(presets_mod, "eisenstein_params", sweep, raising=False)
        load_preset.cache_clear()
        try:
            p = load_preset("eisenstein")
        finally:
            load_preset.cache_clear()
        assert (p.mult_params.delta, p.div_params.delta) == (5, 10)


# -- direct exponents against the linear search ------------------------------------


def _linear_mult_params(sys, cert):
    """Reference: every exponent found by testing k = start, start + 1, ...
    (the search params used before it bracketed exponents)."""
    eps_half = cert.epsilon / 2
    beta_abs = sys.abs_beta_exact()
    a_exact = sys.a_sq.sqrt_exact()

    def rhs(k):
        return lambda p: cert.epsilon.to_interval(p) * sys.abs_beta(p).pow_int(k) / 2

    if beta_abs is not None:
        c_delta = (sys.a_sq + sys.a_sq) / (beta_abs - 1)
        delta = _first_k(lambda k: (eps_half * beta_abs**k - c_delta).sign() > 0, 1)
    else:
        delta = _first_k(lambda k: _certainly_less(
            lambda p: 2 * sys.a_sq.to_interval(p) / (sys.abs_beta(p) - 1), rhs(k)), 1)
    if beta_abs is not None and a_exact is not None:
        c_l = a_exact / (beta_abs - 1)
        window_l = _first_k(lambda k: (eps_half * beta_abs**k - c_l).sign() > 0, 0)
    else:
        window_l = _first_k(lambda k: _certainly_less(lambda p: sys.a_max(p) / (sys.abs_beta(p) - 1), rhs(k)), 0)
    return delta, window_l


def _linear_div_params(sys, cert, d_min):
    eps = cert.epsilon.to_interval(Fraction(1, 10**9))
    alpha_sup = (eps / 2) * RationalInterval.point(d_min.lo) / (
        1 + sys.abs_beta(Fraction(1, 10**9)) * cert.k_bound + eps)
    alpha = round_down(ALPHA_FRACTION * alpha_sup.lo, 10**12)

    def delta_lhs(prec):
        a, ab = sys.a_max(prec), sys.abs_beta(prec)
        return (a / RationalInterval.point(d_min.lo)) * (1 + a / (ab - 1) + cert.k_bound + cert.epsilon.to_interval(prec))

    delta = _first_k(lambda k: _certainly_less(
        delta_lhs, lambda p: cert.epsilon.to_interval(p) * sys.abs_beta(p).pow_int(k) / 2), 1)
    window_l = _first_k(lambda k: _certainly_less(
        lambda p: sys.a_max(p) / (sys.abs_beta(p).pow_int(k) * (sys.abs_beta(p) - 1)),
        lambda p: RationalInterval.point(alpha)), 0)
    return delta, window_l, alpha


def _assert_direct_equals_linear(sys_, cert, d_min):
    got = mult_params(sys_, cert)
    assert (got.delta, got.window_l) == _linear_mult_params(sys_, cert)
    got = div_params(sys_, cert, d_min)
    assert (got.delta, got.window_l, got.alpha) == _linear_div_params(sys_, cert, d_min)


def _digits(values):
    return [ComplexQuad.from_int(v) for v in values], [str(v) for v in values]


@st.composite
def integer_systems(draw):
    """Integer base b with a contiguous alphabet m..M around 0, #A > |b|."""
    b = draw(st.sampled_from([b for b in range(-9, 10) if abs(b) >= 2]))
    m = draw(st.integers(-abs(b), 0))
    M = draw(st.integers(max(0, abs(b) + m), abs(b) + 1))
    return NumerationSystem(ComplexQuad.from_int(b), *_digits(range(m, M + 1)))


class TestDirectExponents:
    @settings(max_examples=60)
    @given(sys_=integer_systems(), q=st.integers(2, 40))
    def test_integer_systems_default_certificates(self, sys_, q):
        _assert_direct_equals_linear(sys_, real_interval_certificate(sys_), RationalInterval.point(Fraction(1, q)))

    @settings(max_examples=30)
    @given(re_=st.integers(-3, 3), im_=st.integers(1, 3), q=st.integers(4, 64))
    def test_gaussian_bases_interval_branches(self, re_, im_, q):
        # |beta| = sqrt(re^2 + im^2) mostly leaves the field: the enclosure
        # branches; the exponents read only epsilon and K from the certificate
        assume(re_ * re_ + im_ * im_ > 1)
        vals = list(range(-2, 3))
        sys_ = NumerationSystem(ComplexQuad(RealQuad(re_), RealQuad(im_)), *_digits(vals))
        half = RealQuad(1, 0, 2)
        square = ConvexPolygon([ComplexQuad(half, -half), ComplexQuad(half, half),
                                ComplexQuad(-half, half), ComplexQuad(-half, -half)])
        _assert_direct_equals_linear(sys_, OLCertificate(square, RealQuad(1, 0, q)), RationalInterval.point(Fraction(1, 5)))

    @pytest.mark.parametrize("name", ["golden-square", "golden-mean", "knuth", "base4", "integer:2:-1:1", "integer:3:-1:2"])
    def test_bundled_presets(self, name):
        p = load_preset(name)
        _assert_direct_equals_linear(p.sys, p.cert, p.preprocess.d_min)
        assert p.div_params.alpha == _linear_div_params(p.sys, p.div_cert, p.preprocess.d_min)[2]


# -- cold loads ----------------------------------------------------------------------


class TestColdLoad:
    def test_fresh_load_builds_fresh_objects_with_empty_caches(self):
        # the run-time constants (radii, fattenings, window tails, bounds) are
        # computed on first use, on the objects of that load only
        def tails(obj):
            return [key for key in obj.cache if isinstance(key, tuple) and key[0] == "tail"]

        ns, ds = [1, 3, 2, 4], [1, 2, 3, 4] * 5
        load_preset.cache_clear()
        try:
            old = load_preset("knuth")
            old.div(ns, ds, 4)
            assert old.cert.cache and tails(old.sys) and old.cache
            load_preset.cache_clear()
            new = load_preset("knuth")
            assert new is not old and new.sys is not old.sys and new.cert is not old.cert
            assert new.cache == {} and new.cert.cache == {} and tails(new.sys) == []
            new.div(ns, ds, 4)
            assert new.cache and new.cert.cache and tails(new.sys)
        finally:
            load_preset.cache_clear()
        sys_ = NumerationSystem(ComplexQuad.from_int(2), *_digits([0, 1, -1]))
        assert sys_.cache == {} and real_interval_certificate(sys_).cache == {}

    @pytest.mark.parametrize("name, mult, div", [
        ("golden-square", 4, 4), ("golden-mean", 9, 9), ("knuth", 7, 7), ("eisenstein", 7, 7), ("base4", 4, 4),
        ("integer:2:-1:1", 5, 5), ("integer:3:-1:2", 5, 5), ("integer:3:0:3", 5, 5), ("integer:-2:-1:1", None, None),
    ])
    def test_one_floor_per_load(self, name, mult, div, monkeypatch):
        # both bounds share one floor: the preprocessing analysis where it is
        # dmin_search's own, else one search; the ceilings are unchanged
        p = load_preset.__wrapped__(name)
        seeded = p.cache.get("floor")
        calls = []

        def search(*args, **kwargs):
            calls.append(args)
            return dmin_search(*args, **kwargs)

        monkeypatch.setattr(presets_mod, "dmin_search", search)
        assert p.max_int_mult() == mult
        if p.div_params is not None:
            assert p.max_int_div() == div
        assert len(calls) == (0 if seeded else 1)
        if seeded:
            assert dmin_search(p.sys, p.preprocess.rules, 8) == (p.preprocess.analysis_depth, seeded)
        assert (seeded is None) == (name in ("knuth", "eisenstein", "integer:-2:-1:1"))
