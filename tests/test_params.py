from fractions import Fraction

import pytest

from olnum.errors import DomainError
from olnum.field import RationalInterval, RealQuad
from olnum.params import _first_k, div_params, eisenstein_params, mult_params
from olnum import params as params_mod
from olnum import presets as presets_mod
from olnum.presets import EISENSTEIN_PAIRS, load_preset


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
