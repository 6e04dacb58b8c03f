"""The compiled selector against the ball-test oracle.

``region.digit_select``, ``region.quotient_digit`` and
``region.digit_select_total`` decide on integer linear tests compiled from
the certificate; ``digit_select_exact``, ``select_d_exact`` and
``nearest_qualifying`` over ``ball_fits`` decide on RealQuads.  Both must give
the same digit, or raise the same error, on values in and near the fattened
selection domain: drawn values, the vertices of every eroded I + a,
points on the perpendicular bisector of two digits, and points on the edge of
the fattened domain.  The certificates are every bundled one, the defaults of
drawn integer systems with #A > |b|, and the parallelograms of drawn Gaussian
bases a + bi with symmetric alphabets over the paper's bound.

The same values check the run's integer kernel (the selector's points and
maps) against ComplexQuad arithmetic, and select.window_encode against the
ComplexQuad encoder it replaced, kept here as the oracle."""

from fractions import Fraction
from functools import lru_cache
from unittest import mock

from hypothesis import given, settings, strategies as st

from olnum import region
from olnum.errors import CertificateError, DomainError, OlnumError
from olnum.field import ComplexQuad, RationalInterval, RealQuad, from_point, point_add, point_mul, reduce_point, to_point
from olnum.numeration import DigitString, NumerationSystem
from olnum.presets import load_preset
from olnum.region import (
    OLCertificate,
    VerifyResult,
    ball_fits,
    complex_parallelogram_certificate,
    digit_select,
    digit_select_exact,
    digit_select_total,
    fattened_domain,
    nearest_admissible,
    nearest_qualifying,
    quotient_digit,
    real_interval_certificate,
    select_d_exact,
)
from olnum.select import window_encode

BUNDLED = ("golden-square", "golden-mean", "knuth", "eisenstein", "base4", "integer:2:-1:1",
           "integer:3:-1:2", "integer:2:0:2", "integer:-3:-2:2")
HALF = RealQuad(1, 0, 2)


def _system(base: ComplexQuad, digits) -> NumerationSystem:
    return NumerationSystem(base, [ComplexQuad.from_int(d) for d in digits], [str(d) for d in digits])


@lru_cache(maxsize=None)
def _case(key):
    """(system, certificate, special points) for a case key."""
    kind, *args = key
    if kind == "bundled":
        name, mode = args
        p = load_preset(name)
        sys_, cert = p.sys, p.cert if mode == "mult" else p.div_cert
    elif kind == "integer":
        b, m, size = args
        sys_ = _system(ComplexQuad.from_int(b), range(m, m + size))
        cert = real_interval_certificate(sys_)
    else:
        re_, im_, extra = args
        bound = re_ * re_ + im_ * im_ + 2 * abs(re_)  # #A = 2M + 1 > beta conj(beta) + |beta + conj(beta)|
        M = -(-bound // 2) + extra
        sys_ = _system(ComplexQuad(RealQuad(re_), RealQuad(im_)), range(-M, M + 1))
        try:
            cert = complex_parallelogram_certificate(sys_)
        except CertificateError:
            # the covering check needs |g| in the field, which a base with a
            # nonzero real part leaves: keep the construction's parallelogram
            # with a small slack, unverified (the selectors must still agree)
            with mock.patch.object(region, "verify_certificate", lambda s, c: VerifyResult(True)):
                cert = OLCertificate(complex_parallelogram_certificate(sys_).region, RealQuad(1, 0, 16))
    return sys_, cert, tuple(_special_points(sys_, cert))


def _sides(poly):
    return zip(poly.halfplanes(), poly.edge_norms(), poly.vertices, poly.vertices[1:] + poly.vertices[:1])


def _special_points(sys_, cert):
    reg, eps = cert.region, cert.epsilon
    alphabet = sys_.alphabet
    # vertices of each eroded I + a (the un-eroded vertex where |g| leaves the field)
    for a in alphabet:
        if reg.is_interval:
            lo, hi = reg.interval_bounds()
            yield ComplexQuad(lo + eps) + a
            yield ComplexQuad(hi - eps) + a
            continue
        lines = []
        for (gx, gy, c, _), e, _, _ in _sides(reg):
            shift = gx * a.re + gy * a.im
            lines.append((gx, gy, c + shift + (eps * e if e is not None else RealQuad(0))))
        for (g1x, g1y, c1), (g2x, g2y, c2) in zip(lines, lines[1:] + lines[:1]):
            det = g1x * g2y - g2x * g1y
            yield ComplexQuad((c1 * g2y - c2 * g1y) / det, (g1x * c2 - g2x * c1) / det)
    # the perpendicular bisector of two digits: their midpoint, and off it
    for i, a in enumerate(alphabet):
        for b in alphabet[i + 1:]:
            mid = (a + b) * HALF
            yield mid
            if not sys_.is_real:
                perp = (b - a) * ComplexQuad(RealQuad(0), RealQuad(1))
                yield mid + perp * ComplexQuad(RealQuad(1, 0, 3))
                yield mid - perp * ComplexQuad(RealQuad(1, 0, 5))
    # the edge of the fattened domain: each side moved out by the fattening
    # (distance exactly f), beta*I's vertices, and the miter's vertices
    f = cert.select_fatten()
    scaled = cert.beta_region(sys_)
    if scaled.is_interval:
        lo, hi = scaled.interval_bounds()
        yield from (ComplexQuad(lo - f), ComplexQuad(hi + f), ComplexQuad(lo), ComplexQuad(hi))
        return
    for (gx, gy, _, _), e, p0, p1 in _sides(scaled):
        if e is not None:
            yield (p0 + p1) * HALF - ComplexQuad(gx * f / e, gy * f / e)
    yield from scaled.vertices
    try:
        yield from fattened_domain(sys_, cert, f).vertices
    except CertificateError:
        pass


@st.composite
def _keys(draw):
    kind = draw(st.sampled_from(["bundled", "integer", "gaussian"]))
    if kind == "bundled":
        return kind, draw(st.sampled_from(BUNDLED)), draw(st.sampled_from(["mult", "div"]))
    if kind == "integer":
        b = draw(st.sampled_from([-5, -4, -3, -2, 2, 3, 4, 5]))
        size = draw(st.integers(abs(b) + 1, abs(b) + 3))
        return kind, b, -draw(st.integers(0, size - 1)), size
    re_, im_ = draw(st.sampled_from([(a, b) for a in range(-2, 3) for b in range(1, 4) if a * a + b * b > 1]))
    return kind, re_, im_, draw(st.integers(0, 2))


def _rational(draw, bound: int) -> RealQuad:
    return RealQuad.from_fraction(draw(st.fractions(-bound, bound, max_denominator=64)))


@st.composite
def _values(draw):
    """(system, certificate, value): a special point, maybe nudged by 2^-j
    (off the real axis too), or a drawn value around the fattened domain."""
    sys_, cert, points = _case(draw(_keys()))
    reach = int(cert.k_bound.hi * sys_.abs_beta().hi) + 2
    if draw(st.booleans()):
        v = draw(st.sampled_from(points))
        if draw(st.booleans()):
            step = RealQuad(1, 0, 2 ** draw(st.integers(4, 40)))
            v = v + ComplexQuad(step * draw(st.sampled_from([-1, 1])), step * draw(st.sampled_from([-1, 0, 1])))
    else:
        v = ComplexQuad(_rational(draw, reach), RealQuad(0) if sys_.is_real else _rational(draw, reach))
    return sys_, cert, v


def _outcome(fn, *args):
    try:
        return fn(*args)
    except OlnumError as exc:
        return type(exc)


@settings(max_examples=600)
@given(_values())
def test_digit_select_equals_the_ball_test(case):
    sys_, cert, v = case
    assert _outcome(digit_select, cert, sys_, v) == _outcome(digit_select_exact, cert, sys_, v)


@settings(max_examples=300)
@given(_values())
def test_table_selection_equals_the_ball_test(case):
    sys_, cert, v = case
    best = nearest_admissible(cert, sys_, v)
    assert digit_select_total(cert, sys_, v) == (nearest_qualifying(sys_, v, None) if best is None else best)


@settings(max_examples=300)
@given(_values(), st.data())
def test_quotient_digit_equals_select_d_exact(case, data):
    sys_, cert, u = case
    delta = ComplexQuad(RealQuad.from_fraction(data.draw(st.fractions(Fraction(1, 4), 3, max_denominator=16))),
                        RealQuad(0) if sys_.is_real else _rational(data.draw, 2))
    if data.draw(st.booleans()):
        delta = -delta
    v = u * delta
    assert _outcome(quotient_digit, cert, sys_, v, delta.inverse()) == _outcome(select_d_exact, cert, sys_, v, delta)


def test_bisector_ties_go_to_the_earlier_digit():
    """At the midpoint of two qualifying digits i < j, j is never selected."""
    checked = 0
    for name in BUNDLED:
        sys_, cert, _ = _case(("bundled", name, "mult"))
        for i, a in enumerate(sys_.alphabet):
            for j in range(i + 1, len(sys_.alphabet)):
                mid = (a + sys_.alphabet[j]) * HALF
                if cert.selects_nearest or (ball_fits(cert, sys_, mid, i) and ball_fits(cert, sys_, mid, j)):
                    assert digit_select_total(cert, sys_, mid) != j
                    checked += 1
    assert checked > 0


# -- the run's kernel against ComplexQuad -------------------------------------------


def _encode_oracle(sys_, cert, value, L):
    """The ComplexQuad window encoder the kernel replaced: scale by beta^-1
    (else by beta) into I, then greedy ball-test digits of beta*r.  Returns
    (int digits, frac digits, value, tail)."""
    zero = sys_.zero_index
    if value.is_zero():
        return (zero,), (zero,) * L, value, 0

    def scale(v, factor):
        for steps in range(65):
            if region.region_contains(cert.region, v):
                return v, steps
            v = v * factor
        return None
    reduced = scale(value, sys_.inv_base)
    if reduced is None:
        reduced = scale(value, sys_.base)
        if reduced is None:
            raise DomainError("value not reducible into the certificate region")
        reduced = reduced[0], -reduced[1]
    r, shift = reduced
    digits = []
    for _ in range(max(shift + L, 0)):
        t = r * sys_.base
        digits.append(digit_select_exact(cert, sys_, t))
        r = t - sys_.digit(digits[-1])
    e = max(L, -shift)
    exact = value - r * sys_.inv_base ** e
    lead = max(shift, 0)
    ints = DigitString.make(sys_, digits[:lead] or [zero], ()).int_digits
    return ints, tuple(([zero] * (lead - shift) + digits[lead:])[:L]), exact, 0 if r.is_zero() else cert.k_bound


@settings(max_examples=300)
@given(_values(), st.data())
def test_kernel_maps_equal_complexquad(case, data):
    sys_, cert, v = case
    kern = region.compiled_selector(cert, sys_)
    p, d = to_point(v), kern.d
    assert from_point(p, d) == v and kern.value(p) == v
    assert to_point(kern.value((3 * p[0], 3 * p[1], 3 * p[2], 3 * p[3], 3 * p[4]))) == p
    i = data.draw(st.integers(0, len(sys_.alphabet) - 1))
    a = sys_.digit(i)
    assert kern.value(reduce_point(point_mul(kern.beta, p, d))) == v * sys_.base
    assert kern.value(reduce_point(point_mul(kern.inv_beta, p, d))) == v * sys_.inv_base
    assert kern.value(reduce_point(point_mul(kern.digits[i], p, d))) == v * a
    assert kern.value(reduce_point(point_add(p, kern.digits[i]))) == v + a
    assert kern.value(reduce_point(point_add(p, kern.digits[i], -1))) == v - a
    assert kern.inside(p) == region.region_contains(cert.beta_region(sys_), v)
    assert kern.in_region(p) == region.region_contains(cert.region, v)
    assert kern.nearest(p) == nearest_admissible(cert, sys_, v)
    assert kern.nearest(p, admissible=False) == nearest_qualifying(sys_, v, None)


@settings(max_examples=300)
@given(_values(), st.integers(0, 8), st.integers(0, 12), st.booleans())
def test_window_encode_equals_the_complexquad_encoder(case, L, down, zero):
    # beta^-down scales the value below the window (L + shift < 0) on the
    # regions right of zero, which encode by scaling up
    sys_, cert, v = case
    v = ComplexQuad.zero() if zero else v * sys_.inv_base ** down
    expected = _outcome(_encode_oracle, sys_, cert, v, L)
    w = _outcome(window_encode, sys_, cert, v, L)
    if isinstance(expected, type):
        assert w is expected
        return
    ints, fracs, value, tail = expected
    assert (w.digits.int_digits, w.digits.frac_digits, w.value) == (ints, fracs, value)
    assert len(w.digits.frac_digits) == L
    assert w.tail_bound == (RationalInterval.point(0) if tail == 0 else tail / sys_.abs_beta(Fraction(1, 10**9)).pow_int(L))
