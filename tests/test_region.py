from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from olnum.errors import CertificateError, DomainError
from olnum.field import ComplexQuad, RealQuad
from olnum.numeration import NumerationSystem
from olnum.presets import load_preset
from olnum.region import (
    ConvexPolygon,
    OLCertificate,
    _cross,
    _positive_area,
    _split,
    complex_parallelogram_certificate,
    digit_select,
    real_interval_certificate,
    region_contains,
    verify_certificate,
)


def _int_system(b, m, M):
    return load_preset(f"integer:{b}:{m}:{M}").sys


def _cq(re, im=0):
    return ComplexQuad(RealQuad(*re) if isinstance(re, tuple) else RealQuad(re),
                       RealQuad(*im) if isinstance(im, tuple) else RealQuad(im))


class TestConvexPolygon:
    def test_interval_validation(self):
        with pytest.raises(CertificateError):
            ConvexPolygon([_cq(2), _cq(1)])
        with pytest.raises(CertificateError):
            ConvexPolygon([_cq(0, 1), _cq(1, 0)])

    def test_convexity_validation(self):
        with pytest.raises(CertificateError):
            ConvexPolygon([_cq(0), _cq(1), _cq(2)])  # collinear
        with pytest.raises(CertificateError):
            ConvexPolygon([_cq(0), _cq(1), _cq(1)])  # repeated

    def test_cw_input_reversed(self):
        p = ConvexPolygon([_cq(0, 1), _cq(1, 1), _cq(1, 0), _cq(0, 0)])
        assert region_contains(p, _cq((1, 0, 2), (1, 0, 2)))

    def test_contains(self):
        square = ConvexPolygon([_cq(0, 0), _cq(1, 0), _cq(1, 1), _cq(0, 1)])
        assert region_contains(square, _cq((1, 0, 2), (1, 0, 2)))
        assert region_contains(square, _cq(1, 1))  # closed at the corner
        assert not region_contains(square, _cq(2, 0))


class TestRealIntervalCertificate:
    def test_golden_square_reference_values(self):
        p = load_preset("golden-square")
        cert = p.cert
        beta = p.sys.base.re
        # epsilon = 1/(2 beta (beta+1)) and I = [-rho, rho] with rho = 2/(beta+1)
        assert cert.epsilon == (RealQuad(2) * beta * (beta + 1)).inverse()
        lo, hi = cert.region.interval_bounds()
        assert hi == RealQuad(2) / (beta + 1)
        assert lo == -hi
        # rho = 1/2 + epsilon
        assert hi == RealQuad(1, 0, 2) + cert.epsilon
        assert cert.contains_zero

    def test_base2_symmetric(self):
        sys_ = _int_system(2, -1, 1)
        cert = real_interval_certificate(sys_)
        assert cert.epsilon == RealQuad(1, 0, 6)
        lo, hi = cert.region.interval_bounds()
        assert lo == RealQuad(-2, 0, 3) and hi == RealQuad(2, 0, 3)

    def test_negative_base(self):
        sys_ = _int_system(-2, -1, 1)
        cert = real_interval_certificate(sys_)
        assert cert.epsilon == RealQuad(1, 0, 6)
        lo, hi = cert.region.interval_bounds()
        assert lo == RealQuad(-2, 0, 3) and hi == RealQuad(2, 0, 3)
        assert verify_certificate(sys_, cert).passed

    def test_nonneg_alphabet_excludes_zero(self):
        sys_ = _int_system(2, 0, 2)
        cert = real_interval_certificate(sys_)
        assert not cert.contains_zero
        lo, _ = cert.region.interval_bounds()
        assert lo.sign() > 0

    def test_not_redundant(self):
        with pytest.raises(DomainError):
            _int_system(2, 0, 1)


class TestVerification:
    @pytest.mark.parametrize("beta", range(2, 11))
    def test_minimal_redundant_integer_bases(self, beta):
        m = -(beta // 2)
        M = beta + m  # M - m + 1 = beta + 1: minimal redundancy
        sys_ = _int_system(beta, m, M)
        cert = real_interval_certificate(sys_)
        assert verify_certificate(sys_, cert).passed

    @pytest.mark.parametrize("beta,extra", [(2, 1), (3, 2), (5, 1), (10, 3)])
    def test_wider_alphabets(self, beta, extra):
        m = -(beta // 2) - extra
        M = beta + (-(beta // 2))
        sys_ = _int_system(beta, m, M)
        cert = real_interval_certificate(sys_)
        assert verify_certificate(sys_, cert).passed

    def test_golden_square_fattening_equality(self):
        p = load_preset("golden-square")
        beta = p.sys.base.re
        lo, hi = p.cert.region.interval_bounds()
        eps2 = p.cert.epsilon + p.cert.epsilon
        # (beta I)^(2 eps) = union(I + a): endpoints coincide exactly
        assert beta * hi + eps2 == hi + RealQuad(1)
        assert beta * lo - eps2 == lo + RealQuad(-1)

    def test_knuth_oblong_passes(self):
        p = load_preset("knuth")
        assert verify_certificate(p.sys, p.cert).passed

    def test_knuth_large_epsilon_fails_with_witness(self):
        p = load_preset("knuth")
        bad = OLCertificate(p.cert.region, RealQuad(1, 0, 2))
        result = verify_certificate(p.sys, bad)
        assert not result.passed
        assert result.witness is not None
        # the witness is a genuinely uncovered point: no digit fits its ball
        from olnum.region import ball_fits
        assert not any(ball_fits(bad, p.sys, result.witness, i) for i in range(len(p.sys.alphabet)))

    def test_eisenstein_mu_nu_passes(self):
        p = load_preset("eisenstein")
        assert verify_certificate(p.sys, p.cert).passed
        assert verify_certificate(p.sys, p.div_cert).passed

    def test_mu_nu_budget_violation_fails(self):
        p = load_preset("eisenstein")
        bad = OLCertificate(p.cert.region, p.cert.epsilon, mu=RealQuad(1, 0, 4), nu=RealQuad(1, 0, 4))
        assert not verify_certificate(p.sys, bad).passed

    def test_mu_nu_requires_parameters(self):
        p = load_preset("eisenstein")
        with pytest.raises(CertificateError):
            OLCertificate(p.cert.region, p.cert.epsilon, mu=RealQuad(1, 0, 4))

    def test_variant_read_from_mu_nu(self):
        p = load_preset("eisenstein")
        assert p.cert.variant == "mu_nu" and p.cert.selects_nearest
        assert OLCertificate.from_dict(p.cert.to_dict()).to_dict() == p.cert.to_dict()
        knuth = load_preset("knuth").cert
        assert knuth.variant == "single_epsilon" and not knuth.selects_nearest
        obj = knuth.to_dict()
        del obj["variant"]
        assert OLCertificate.from_dict(obj).variant == "single_epsilon"

    @pytest.mark.parametrize("variant", ["single_epsilon", "mu_nu_typo"])
    def test_from_dict_rejects_variant_against_mu_nu(self, variant):
        obj = load_preset("eisenstein").cert.to_dict()
        obj["variant"] = variant
        with pytest.raises(CertificateError):
            OLCertificate.from_dict(obj)

    def test_from_dict_rejects_mu_nu_variant_without_mu_nu(self):
        obj = load_preset("knuth").cert.to_dict()
        obj["variant"] = "mu_nu"
        with pytest.raises(CertificateError):
            OLCertificate.from_dict(obj)


class TestParallelogram:
    def test_knuth_base_construction(self):
        sys_ = load_preset("knuth").sys
        cert = complex_parallelogram_certificate(sys_)
        assert verify_certificate(sys_, cert).passed
        assert cert.witness is not None
        assert (cert.witness.x0 + cert.witness.x0 - RealQuad(1)).sign() > 0
        assert cert.contains_zero

    def test_eisenstein_base_integer_alphabet(self):
        half = RealQuad(-3, 0, 2)
        beta = ComplexQuad(half, RealQuad(0, 1, 2, 3))
        digits = [ComplexQuad.from_int(v) for v in (0, 1, -1, 2, -2, 3, -3)]
        sys_ = NumerationSystem(beta, digits, [str(v) for v in (0, 1, -1, 2, -2, 3, -3)])
        # beta conj(beta) = 3, |beta + conj(beta)| = 3: need #A > 6
        cert = complex_parallelogram_certificate(sys_)
        assert verify_certificate(sys_, cert).passed

    def test_insufficient_alphabet(self):
        beta = ComplexQuad(RealQuad(0), RealQuad(2))
        digits = [ComplexQuad.from_int(v) for v in (0, 1, -1)]
        sys_ = NumerationSystem(beta, digits, ["0", "1", "-1"])
        with pytest.raises(DomainError):
            complex_parallelogram_certificate(sys_)

    def test_conjugated_base(self):
        beta = ComplexQuad(RealQuad(0), RealQuad(-2))  # -2i
        digits = [ComplexQuad.from_int(v) for v in (0, 1, -1, 2, -2)]
        sys_ = NumerationSystem(beta, digits, ["0", "1", "-1", "2", "-2"])
        cert = complex_parallelogram_certificate(sys_)
        assert verify_certificate(sys_, cert).passed


class TestDigitSelect:
    def test_golden_three_fifths(self):
        p = load_preset("golden-square")
        idx = digit_select(p.cert, p.sys, ComplexQuad(RealQuad(3, 0, 5)))
        assert p.sys.symbol(idx) == "1"

    def test_zero_selects_zero(self):
        p = load_preset("golden-square")
        assert digit_select(p.cert, p.sys, ComplexQuad.zero()) == p.sys.zero_index

    def test_eisenstein_nearest(self):
        p = load_preset("eisenstein")
        idx = digit_select(p.cert, p.sys, ComplexQuad(RealQuad(3, 0, 5)))
        assert p.sys.symbol(idx) == "1"

    def test_outside_domain(self):
        p = load_preset("golden-square")
        with pytest.raises(DomainError):
            digit_select(p.cert, p.sys, ComplexQuad.from_int(40))

    def test_boundary_tie_prefers_smaller_digit(self):
        p = load_preset("golden-square")
        assert digit_select(p.cert, p.sys, ComplexQuad(RealQuad(1, 0, 2))) == p.sys.zero_index
        assert digit_select(p.cert, p.sys, ComplexQuad(RealQuad(-1, 0, 2))) == p.sys.zero_index

    def test_postcondition_recheck(self):
        # the returned digit keeps the ball strictly inside, edge by edge
        p = load_preset("knuth")
        sys_, cert = p.sys, p.cert
        from olnum.region import ball_fits
        import random

        rng = random.Random(5)
        scaled = cert.beta_region(sys_)
        for _ in range(60):
            # random point of beta*I via convex combination of vertices
            weights = [rng.randint(0, 100) for _ in scaled.vertices]
            total = sum(weights) or 1
            v = ComplexQuad.zero()
            for w, vertex in zip(weights, scaled.vertices):
                v = v + vertex * ComplexQuad(RealQuad.from_fraction(Fraction(w, total)))
            idx = digit_select(cert, sys_, v)
            assert ball_fits(cert, sys_, v, idx)


class TestSymmetries:
    def test_conjugation_symmetry(self):
        # if (I, eps) verifies for beta, conj(I) verifies for conj(beta)
        sys_ = load_preset("knuth").sys
        cert = complex_parallelogram_certificate(sys_)
        beta_conj = ComplexQuad(RealQuad(0), RealQuad(-2))
        digits = [ComplexQuad.from_int(v) for v in (0, 1, -1, 2, -2)]
        sys_conj = NumerationSystem(beta_conj, digits, ["0", "1", "-1", "2", "-2"])
        cert_conj = OLCertificate(cert.region.conjugate(), cert.epsilon)
        assert verify_certificate(sys_conj, cert_conj).passed

    def test_central_symmetry(self):
        # centrally symmetric region works for -beta
        p = load_preset("knuth")
        beta_neg = ComplexQuad(RealQuad(0), RealQuad(-2))
        digits = [ComplexQuad.from_int(v) for v in (0, 1, -1, 2, -2)]
        sys_neg = NumerationSystem(beta_neg, digits, ["0", "1", "-1", "2", "-2"])
        assert verify_certificate(sys_neg, p.cert).passed


# -- one-pass split against two clips ------------------------------------------------


def _clip_ref(points, gx, gy, c, keep_ge):
    """Reference: the Sutherland-Hodgman clip that keeps g.x >= c (keep_ge) or
    g.x <= c, one half at a time (how the covering check split pieces before)."""
    if not points:
        return []
    out = []
    n = len(points)
    sides = []
    for p in points:
        s = gx * p.re + gy * p.im - c
        sides.append(s if keep_ge else -s)
    for i in range(n):
        cur, nxt = points[i], points[(i + 1) % n]
        s_cur, s_nxt = sides[i], sides[(i + 1) % n]
        sg_cur, sg_nxt = s_cur.sign(), s_nxt.sign()
        if sg_cur >= 0:
            out.append(cur)
        if (sg_cur > 0 and sg_nxt < 0) or (sg_cur < 0 and sg_nxt > 0):
            t = s_cur / (s_cur - s_nxt)
            out.append(cur + (nxt - cur) * ComplexQuad(t))
    return out


def _area2_ref(points):
    acc = RealQuad(0)
    for i, p in enumerate(points):
        q = points[(i + 1) % len(points)]
        acc = acc + (p.re * q.im - q.re * p.im)
    return acc


def _hull(points):
    """Strictly convex counterclockwise hull (monotone chain, collinear points dropped)."""
    pts = sorted(set(points))

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and (out[-1][0] - out[-2][0]) * (p[1] - out[-2][1]) - (out[-1][1] - out[-2][1]) * (p[0] - out[-2][0]) <= 0:
                out.pop()
            out.append(p)
        return out[:-1]

    return half(pts) + half(reversed(pts))


_COORD = st.builds(Fraction, st.integers(-8, 8), st.sampled_from([1, 2, 3]))


@st.composite
def polygons_and_planes(draw):
    hull = _hull(draw(st.lists(st.tuples(_COORD, _COORD), min_size=3, max_size=8)))
    assume(len(hull) >= 3)
    poly = [ComplexQuad(RealQuad.from_fraction(x), RealQuad.from_fraction(y)) for x, y in hull]
    planes = []
    for _ in range(2):
        kind = draw(st.sampled_from(["free", "vertex", "edge"]))
        i = draw(st.integers(0, len(hull) - 1))
        (x0, y0), (x1, y1) = hull[i], hull[(i + 1) % len(hull)]
        if kind == "edge":  # the line through an edge
            gx, gy = y0 - y1, x1 - x0
        else:
            gx, gy = draw(st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(lambda g: g != (0, 0)))
        c = draw(st.builds(Fraction, st.integers(-24, 24), st.sampled_from([1, 2]))) if kind == "free" else gx * x0 + gy * y0
        if draw(st.booleans()):
            gx, gy, c = -gx, -gy, -c
        planes.append(tuple(RealQuad.from_fraction(Fraction(v)) for v in (gx, gy, c)))
    return poly, planes


class TestSplit:
    @settings(max_examples=300)
    @given(case=polygons_and_planes())
    def test_one_pass_equals_two_clips(self, case):
        poly, planes = case
        pieces = [poly]
        for gx, gy, c in planes:  # the second plane also splits degenerate pieces
            next_pieces = []
            for piece in pieces:
                inside, outside = _split(piece, gx, gy, c)
                assert inside == _clip_ref(piece, gx, gy, c, keep_ge=True)
                assert outside == _clip_ref(piece, gx, gy, c, keep_ge=False)
                for part in (inside, outside):
                    assert _positive_area(part) == (len(part) >= 3 and _area2_ref(part).sign() > 0)
                    assert _positive_area(part[::-1]) is False
                next_pieces += [inside, outside]
            pieces = next_pieces

    def test_empty_piece(self):
        one = RealQuad(1)
        assert _split([], one, one, one) == ([], [])


def _knuth_eps(eps):
    p = load_preset("knuth")
    return p.sys, OLCertificate(p.cert.region, eps)


def _eisenstein_mu_nu(scale, mu, nu):
    p = load_preset("eisenstein")
    return p.sys, OLCertificate(p.cert.region.scale(ComplexQuad(scale)), p.cert.epsilon, mu=mu, nu=nu)


UNCOVERED = "uncovered point in the fattened region"


@pytest.mark.parametrize("make, witness, reason", [
    (lambda: _knuth_eps(RealQuad(1, 0, 2)), "(37/18)+(29/18)i", UNCOVERED),
    (lambda: _knuth_eps(RealQuad(1, 0, 9)), "(22/9)+(11/9)i", UNCOVERED),
    (lambda: _eisenstein_mu_nu(RealQuad(1), RealQuad(1, 0, 4), RealQuad(1, 0, 4)),
     "None", "budget |beta|*mu + nu exceeds the covering radius"),
    (lambda: _eisenstein_mu_nu(RealQuad(4, 0, 5), RealQuad(1, 0, 100), RealQuad(1, 0, 100)),
     "((63+1*sqrt(3))/100)+((-1+19*sqrt(3))/100)i", UNCOVERED),
], ids=["knuth-eps-1/2", "knuth-eps-1/9", "mu-nu-over-budget", "mu-nu-small-hexagon"])
def test_failing_verdicts_pinned(make, witness, reason):
    # verdict, reason and witness as the two-clip covering check found them
    result = verify_certificate(*make())
    assert (result.passed, result.reason, str(result.witness)) == (False, reason, witness)


@pytest.mark.parametrize("name", ["golden-square", "golden-mean", "knuth", "eisenstein", "base4", "integer:2:-1:1"])
def test_bundled_verdicts(name):
    p = load_preset(name)
    for cert in (p.cert, p.div_cert):
        result = verify_certificate(p.sys, cert)
        assert (result.passed, result.reason, result.witness) == (True, "", None)
