"""Geometric certificates for on-line digit selection.

A certificate pairs a bounded convex region I (a real interval or a convex
polygon with quadratic-field coordinates) with a slack epsilon such that
every point of the epsilon-fattened beta*I admits a digit a whose shifted
region I+a contains the whole epsilon-ball.  Verification is exact: all
comparisons reduce to integer sign decisions on squared distances.

Real systems live on the real line (1-D balls are intervals); complex
systems use 2-D polygons.  The mu/nu variant keeps the region un-eroded and
selects by nearest digit; its covering is checked at fattening |beta|*mu+nu.
Runs select on the certificate's tests compiled into integer linear forms
(CompiledSelector); the ball test they reduce to stays as the monitors' oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from typing import Callable, Sequence

from .errors import CertificateError, DomainError, FieldMismatchError
from .field import ComplexQuad, Point, RationalInterval, RealQuad, from_point, point_mul, quad_sign, to_point
from .numeration import NumerationSystem, memo

_RQ0 = RealQuad(0)

VARIANT_SINGLE = "single_epsilon"
VARIANT_MU_NU = "mu_nu"


def _cross(o: ComplexQuad, p: ComplexQuad, q: ComplexQuad) -> RealQuad:
    return (p.re - o.re) * (q.im - o.im) - (p.im - o.im) * (q.re - o.re)


class ConvexPolygon:
    """Counterclockwise convex polygon; the 2-vertex degenerate form encodes
    a real interval [lo, hi]."""

    __slots__ = ("vertices", "cache")

    def __init__(self, vertices: Sequence[ComplexQuad]):
        pts = tuple(vertices)
        if len(pts) < 2:
            raise CertificateError("region needs at least two vertices")
        if len(pts) == 2:
            a, b = pts
            if not (a.is_real() and b.is_real()):
                raise CertificateError("two-vertex region must be a real interval")
            if (b.re - a.re).sign() <= 0:
                raise CertificateError("interval endpoints out of order")
        else:
            for i, p in enumerate(pts):
                if p == pts[(i + 1) % len(pts)]:
                    raise CertificateError("repeated polygon vertex")
            signs = [
                _cross(pts[i], pts[(i + 1) % len(pts)], pts[(i + 2) % len(pts)]).sign()
                for i in range(len(pts))
            ]
            if all(s < 0 for s in signs):
                pts = tuple(reversed(pts))
                signs = [-s for s in signs]
            if not all(s > 0 for s in signs):
                raise CertificateError("region not strictly convex")
        object.__setattr__(self, "vertices", pts)
        object.__setattr__(self, "cache", {})

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("ConvexPolygon is immutable")

    @property
    def is_interval(self) -> bool:
        return len(self.vertices) == 2

    @property
    def ambient_d(self) -> int:
        for v in self.vertices:
            d = v.re.d or v.im.d
            if d:
                return d
        return 0

    def interval_bounds(self) -> tuple[RealQuad, RealQuad]:
        a, b = self.vertices
        return a.re, b.re

    def halfplanes(self) -> list[tuple[RealQuad, RealQuad, RealQuad, RealQuad]]:
        """(gx, gy, c, nsq) per edge with the interior satisfying
        gx*x + gy*y >= c."""
        return memo(self, "halfplanes", lambda: _poly_halfplanes(self.vertices))

    def edge_norms(self) -> list[RealQuad | None]:
        """|g| per half-plane, exact (None where it leaves the field)."""
        return memo(self, "norms", lambda: [nsq.sqrt_exact(self.ambient_d) for *_, nsq in self.halfplanes()])

    def translate(self, a: ComplexQuad) -> ConvexPolygon:
        return ConvexPolygon([v + a for v in self.vertices])

    def scale(self, c: ComplexQuad) -> ConvexPolygon:
        if self.is_interval:
            if not c.is_real():
                raise DomainError("cannot scale a real interval by a complex factor")
            lo, hi = self.interval_bounds()
            a, b = lo * c.re, hi * c.re
            if (b - a).sign() < 0:
                a, b = b, a
            return ConvexPolygon([ComplexQuad(a), ComplexQuad(b)])
        return ConvexPolygon([v * c for v in self.vertices])

    def conjugate(self) -> ConvexPolygon:
        if self.is_interval:
            return self
        return ConvexPolygon([v.conj() for v in self.vertices])

    def to_list(self) -> list[dict]:
        return [v.to_dict() for v in self.vertices]

    def __repr__(self) -> str:
        return f"ConvexPolygon({[str(v) for v in self.vertices]})"


def _poly_halfplanes(pts) -> list[tuple[RealQuad, RealQuad, RealQuad, RealQuad]]:
    out = []
    n = len(pts)
    for i in range(n):
        v, w = pts[i], pts[(i + 1) % n]
        tx, ty = w.re - v.re, w.im - v.im
        gx, gy = -ty, tx
        c = gx * v.re + gy * v.im
        out.append((gx, gy, c, gx * gx + gy * gy))
    return out


def region_contains(region: ConvexPolygon, p: ComplexQuad) -> bool:
    if region.is_interval:
        if not p.is_real():
            return False
        lo, hi = region.interval_bounds()
        return (p.re - lo).sign() >= 0 and (hi - p.re).sign() >= 0
    for gx, gy, c, _ in region.halfplanes():
        if (gx * p.re + gy * p.im - c).sign() < 0:
            return False
    return True


def _segment_dist_sq(p: ComplexQuad, a: ComplexQuad, b: ComplexQuad) -> tuple[RealQuad, ComplexQuad]:
    ab = b - a
    ap = p - a
    t_num = ab.re * ap.re + ab.im * ap.im
    if t_num.sign() <= 0:
        return ap.norm_sq(), a
    t_den = ab.norm_sq()
    if (t_num - t_den).sign() >= 0:
        bp = p - b
        return bp.norm_sq(), b
    closest = a + ab * ComplexQuad(t_num / t_den)
    return (p - closest).norm_sq(), closest


def region_dist_sq(region: ConvexPolygon, p: ComplexQuad) -> RealQuad:
    if region_contains(region, p):
        return _RQ0
    pts = region.vertices
    if region.is_interval:
        d, _ = _segment_dist_sq(p, pts[0], pts[1])
        return d
    best: RealQuad | None = None
    n = len(pts)
    for i in range(n):
        d, _ = _segment_dist_sq(p, pts[i], pts[(i + 1) % n])
        if best is None or (d - best).sign() < 0:
            best = d
    assert best is not None
    return best


# -- clipping ------------------------------------------------------------------


def _split(points: list[ComplexQuad], gx: RealQuad, gy: RealQuad, c: RealQuad) -> tuple[list, list]:
    """One Sutherland-Hodgman pass: the parts of a convex polygon with
    g.x >= c and with g.x <= c, each side value and crossing computed once."""
    inside: list[ComplexQuad] = []
    outside: list[ComplexQuad] = []
    n = len(points)
    sides = [gx * p.re + gy * p.im - c for p in points]
    signs = [s.sign() for s in sides]
    for i in range(n):
        cur, nxt = points[i], points[(i + 1) % n]
        sg_cur, sg_nxt = signs[i], signs[(i + 1) % n]
        if sg_cur >= 0:
            inside.append(cur)
        if sg_cur <= 0:
            outside.append(cur)
        if sg_cur * sg_nxt < 0:
            t = sides[i] / (sides[i] - sides[(i + 1) % n])
            cross = ComplexQuad(cur.re + (nxt.re - cur.re) * t, cur.im + (nxt.im - cur.im) * t)
            inside.append(cross)
            outside.append(cross)
    return inside, outside


def _positive_area(points: list[ComplexQuad]) -> bool:
    """A convex point list encloses positive area (counterclockwise) exactly
    when one of its fan triangles turns left."""
    return any(_cross(points[0], points[i], points[i + 1]).sign() > 0 for i in range(1, len(points) - 1))


def _subtract(pieces: list[list[ComplexQuad]], halfplanes) -> list[list[ComplexQuad]]:
    """Split each piece into the parts outside the convex set given by
    halfplanes (interior: g.x >= c)."""
    out: list[list[ComplexQuad]] = []
    for piece in pieces:
        rem = piece
        for gx, gy, c, _ in halfplanes:
            rem, outside = _split(rem, gx, gy, c)
            if _positive_area(outside):
                out.append(outside)
            if not _positive_area(rem):
                rem = []
                break
    return out


def _mitered_offset(poly: ConvexPolygon, amount: RealQuad) -> list[ComplexQuad]:
    """Outer polygon containing the rounded offset; vertices are the
    intersections of adjacent outward-shifted edge lines."""
    shifted = []
    for (gx, gy, c, _), norm in zip(poly.halfplanes(), poly.edge_norms()):
        if norm is None:
            raise CertificateError(
                "edge length is not representable in the field; exact offset impossible"
            )
        shifted.append((gx, gy, c - amount * norm))
    pts: list[ComplexQuad] = []
    n = len(shifted)
    for i in range(n):
        g1x, g1y, c1 = shifted[i]
        g2x, g2y, c2 = shifted[(i + 1) % n]
        det = g1x * g2y - g2x * g1y
        if det.sign() == 0:
            raise CertificateError("degenerate corner in offset polygon")
        x = (c1 * g2y - c2 * g1y) / det
        y = (g1x * c2 - g2x * c1) / det
        pts.append(ComplexQuad(x, y))
    return pts


def _inward_planes(poly: ConvexPolygon, shift_by: ComplexQuad, erosion: RealQuad):
    """Half-planes of erode(poly + shift_by, erosion)."""
    out = []
    for i, (gx, gy, c, nsq) in enumerate(poly.halfplanes()):
        c_shift = c + gx * shift_by.re + gy * shift_by.im
        if erosion.sign() > 0:
            norm = poly.edge_norms()[i]
            if norm is None:
                raise CertificateError(
                    "edge length is not representable in the field; exact erosion impossible"
                )
            c_shift = c_shift + erosion * norm
        out.append((gx, gy, c_shift, nsq))
    return out


# -- separation ---------------------------------------------------------------


def _segments_cross(a, b, c, d) -> bool:
    o1 = _cross(a, b, c).sign()
    o2 = _cross(a, b, d).sign()
    o3 = _cross(c, d, a).sign()
    o4 = _cross(c, d, b).sign()
    if o1 != o2 and o3 != o4:
        return True
    # collinear touching counts as contact
    for (p, q, r, s) in ((a, b, c, o1), (a, b, d, o2), (c, d, a, o3), (c, d, b, o4)):
        if s == 0 and _between(p, q, r):
            return True
    return False


def _between(p, q, r) -> bool:
    return (
        (min(p.re, q.re) - r.re).sign() <= 0 <= (max(p.re, q.re) - r.re).sign()
        and (min(p.im, q.im) - r.im).sign() <= 0 <= (max(p.im, q.im) - r.im).sign()
    )


def _point_in_ccw(points: list[ComplexQuad], p: ComplexQuad) -> bool:
    n = len(points)
    for i in range(n):
        if _cross(points[i], points[(i + 1) % n], p).sign() < 0:
            return False
    return True


def _min_dist_sq(points_a: list[ComplexQuad], points_b: list[ComplexQuad]) -> tuple[RealQuad, ComplexQuad]:
    """Exact squared distance between two convex CCW point lists, with a
    witness point on the first set realizing it."""
    na, nb = len(points_a), len(points_b)
    for i in range(na):
        for j in range(nb):
            if _segments_cross(points_a[i], points_a[(i + 1) % na], points_b[j], points_b[(j + 1) % nb]):
                return _RQ0, points_a[i]
    if _point_in_ccw(points_b, points_a[0]):
        return _RQ0, points_a[0]
    if _point_in_ccw(points_a, points_b[0]):
        return _RQ0, points_b[0]
    best: RealQuad | None = None
    best_pt = points_a[0]
    for i in range(na):
        p = points_a[i]
        for j in range(nb):
            d, _ = _segment_dist_sq(p, points_b[j], points_b[(j + 1) % nb])
            if best is None or (d - best).sign() < 0:
                best, best_pt = d, p
    for j in range(nb):
        p = points_b[j]
        for i in range(na):
            d, closest = _segment_dist_sq(p, points_a[i], points_a[(i + 1) % na])
            if best is None or (d - best).sign() < 0:
                best, best_pt = d, closest
    assert best is not None
    return best, best_pt


# -- certificates ---------------------------------------------------------------


@dataclass(frozen=True)
class ParallelogramWitness:
    x0: RealQuad
    a2: RealQuad
    vertex_a: ComplexQuad
    vertex_b: ComplexQuad


@dataclass(frozen=True)
class VerifyResult:
    passed: bool
    witness: ComplexQuad | None = None
    reason: str = ""

    def __bool__(self) -> bool:
        return self.passed


class OLCertificate:
    """Region I and slack epsilon; a certificate is of the mu/nu variant
    exactly when mu and nu are given.  Everything that differs between the
    variants is decided here: the selection test, the fattenings and the
    monitors' remainder slacks."""

    def __init__(
        self,
        region: ConvexPolygon,
        epsilon: RealQuad,
        mu: RealQuad | None = None,
        nu: RealQuad | None = None,
        witness: ParallelogramWitness | None = None,
    ):
        if epsilon.sign() <= 0:
            raise CertificateError("epsilon must be positive")
        mu_nu = mu is not None
        if mu_nu != (nu is not None):
            raise CertificateError("mu/nu variant requires both mu and nu")
        self.region = region
        self.epsilon = epsilon
        self.mu = mu
        self.nu = nu
        self.witness = witness
        # mu/nu keeps the region un-eroded: the nearest digit, no ball test
        self.selects_nearest = mu_nu
        # the monitors' bound on the selection remainder's distance from I
        self.mult_slack = mu if mu_nu else _RQ0
        self.div_slack = mu if mu_nu else epsilon / 2
        self.contains_zero = region_contains(region, ComplexQuad.zero())
        # an interval strictly right of zero: a non-negative alphabet, whose
        # multiplication starts with a growth phase (in_growth_phase)
        self.right_of_zero = region.is_interval and region.interval_bounds()[0].sign() > 0
        self.k_bound = _k_bound(region, Fraction(1, 10**12))
        self.cache: dict = {}  # derived constants (memo), filled on first use

    @property
    def variant(self) -> str:
        return VARIANT_MU_NU if self.selects_nearest else VARIANT_SINGLE

    # largest |x| over the region, attained at a vertex
    def beta_region(self, sys: NumerationSystem) -> ConvexPolygon:
        return memo(self, ("beta_region", sys.base), lambda: self.region.scale(sys.base))

    def trunc_radius(self) -> RealQuad:
        return memo(self, "trunc", lambda: self.mu / 2 if self.selects_nearest else self.epsilon / 2)

    def select_fatten(self) -> RealQuad:
        return memo(self, "select", lambda: self.epsilon + self.mu / 2 if self.selects_nearest else self.epsilon)

    def mult_fatten(self) -> RealQuad:
        return memo(self, "mult", lambda: self.epsilon if self.selects_nearest else self.epsilon / 2)

    def div_fatten(self, sys: NumerationSystem) -> RealQuad:
        if not self.selects_nearest:
            return memo(self, "div", lambda: self.epsilon / 2)
        beta_abs = sys.abs_beta_exact()
        if beta_abs is None:
            raise CertificateError("|beta| is not a field element; mu/nu bookkeeping unavailable")
        return memo(self, ("div", sys), lambda: beta_abs * self.mu + self.nu)

    def to_dict(self) -> dict:
        out = {
            "vertices": self.region.to_list(),
            "epsilon": self.epsilon.to_dict(),
            "variant": self.variant,
        }
        if self.mu is not None:
            out["mu"] = self.mu.to_dict()
            out["nu"] = self.nu.to_dict()
        return out

    @classmethod
    def from_dict(cls, obj: dict) -> OLCertificate:
        """The "variant" key is optional; when given it must name the variant
        that the mu/nu keys imply."""
        region = ConvexPolygon([ComplexQuad.from_dict(v) for v in obj["vertices"]])
        epsilon = RealQuad.from_dict(obj["epsilon"])
        mu = RealQuad.from_dict(obj["mu"]) if "mu" in obj else None
        nu = RealQuad.from_dict(obj["nu"]) if "nu" in obj else None
        cert = cls(region, epsilon, mu=mu, nu=nu)
        variant = obj.get("variant", cert.variant)
        if variant not in (VARIANT_SINGLE, VARIANT_MU_NU):
            raise CertificateError(f"unknown certificate variant {variant!r}")
        if variant != cert.variant:
            raise CertificateError(f"certificate variant {variant!r} disagrees with its mu/nu keys")
        return cert


def _k_bound(region: ConvexPolygon, precision: Fraction) -> RationalInterval:
    los, his = [], []
    for v in region.vertices:
        iv = v.abs_interval(precision)
        los.append(iv.lo)
        his.append(iv.hi)
    return RationalInterval(max(los), max(his))


# -- certificate constructors ---------------------------------------------------


def real_interval_certificate(sys: NumerationSystem) -> OLCertificate:
    if not sys.is_real:
        raise DomainError("interval certificates require a real base and digits")
    rng = sys.contiguous_range()
    if rng is None:
        raise DomainError("interval certificates require a contiguous integer alphabet")
    m, M = rng
    beta = sys.base.re
    size = M - m + 1
    if (abs(beta) - size).sign() >= 0:
        raise DomainError("alphabet is not redundant: need #A > |beta|")
    if beta.sign() > 0:
        eps = (RealQuad(size) - beta) / (RealQuad(2) * (beta + 1))
        rho = (RealQuad(M) - RealQuad(2) * eps) / (beta - 1)
        lam = (RealQuad(m) + RealQuad(2) * eps) / (beta - 1)
    else:
        eps = (RealQuad(size) + beta) / (RealQuad(2) * (RealQuad(1) - beta))
        rho = (RealQuad(1 - m)) / (RealQuad(1) - beta)
        lam = (RealQuad(-M - 1)) / (RealQuad(1) - beta)
    region = ConvexPolygon([ComplexQuad(lam), ComplexQuad(rho)])
    return OLCertificate(region, eps)


def complex_parallelogram_certificate(sys: NumerationSystem) -> OLCertificate:
    base = sys.base
    if base.is_real():
        raise DomainError("parallelogram construction needs a non-real base")
    rng = sys.contiguous_range()
    if rng is None or rng[0] != -rng[1]:
        raise DomainError("parallelogram construction needs a symmetric contiguous integer alphabet")
    M = rng[1]
    bb = sys.beta_norm_sq
    two_re = abs(base.re + base.re)
    if ((bb + two_re) - RealQuad(2 * M + 1)).sign() >= 0:
        raise DomainError("insufficient alphabet: need #A > beta*conj(beta) + |beta + conj(beta)|")

    beta1 = base if base.re.sign() <= 0 else -base
    need_conj = beta1.im.sign() < 0
    beta0 = beta1.conj() if need_conj else beta1
    re0, im0 = beta0.re, beta0.im

    coeff0 = bb - RealQuad(2) * re0 - 1
    ub0 = RealQuad(M) / coeff0
    x0 = (RealQuad(1, 0, 2) + ub0) / 2
    coeff1 = bb - re0
    ub1 = (RealQuad(M) + x0 * (re0 + 1)) / coeff1
    u = (x0 + ub1) / 2
    a2 = u * im0
    a1 = -(re0 * u) - x0
    b1 = a1 + x0 + x0
    va = ComplexQuad(a1, a2)
    vb = ComplexQuad(b1, a2)

    # construction inequalities, all exact
    checks = [
        (x0 + x0 - 1).sign() > 0,
        ((beta0 * vb).im - (-(beta0 * va)).im).sign() == 0,
        (va.im - (beta0 * vb).im).sign() > 0,
        ((beta0 * vb).re - (va.re - M)).sign() > 0,
        ((beta0 * va).re - ((-vb).re - M)).sign() > 0,
    ]
    if not all(checks):
        raise CertificateError("parallelogram construction inequalities failed")

    region0 = ConvexPolygon([va, -vb, -va, vb])
    region = region0.conjugate() if need_conj else region0
    witness = ParallelogramWitness(x0=x0, a2=a2, vertex_a=va, vertex_b=vb)

    for k in range(1, 21):  # epsilon = 1/2 .. 1/2^20
        eps = RealQuad(1, 0, 2**k)
        cert = OLCertificate(region, eps, witness=witness)
        if verify_certificate(sys, cert).passed:
            return cert
    raise CertificateError("epsilon grid search exhausted without a verifiable certificate")


# -- verification -----------------------------------------------------------------


def verify_certificate(sys: NumerationSystem, cert: OLCertificate) -> VerifyResult:
    if cert.selects_nearest:
        return _verify_mu_nu(sys, cert)
    if cert.region.is_interval:
        return _verify_interval(sys, cert)
    return _verify_polygon(sys, cert)


def _verify_interval(sys: NumerationSystem, cert: OLCertificate) -> VerifyResult:
    if not sys.is_real:
        return VerifyResult(False, reason="interval region with a complex base")
    lo, hi = cert.region.interval_bounds()
    eps = cert.epsilon
    beta = sys.base.re
    e1, e2 = lo * beta, hi * beta
    if (e2 - e1).sign() < 0:
        e1, e2 = e2, e1
    p_lo, p_hi = e1 - eps, e2 + eps
    covers: list[tuple[RealQuad, RealQuad]] = []
    for d in sys.alphabet:
        a = d.re
        q_lo, q_hi = lo + a + eps, hi + a - eps
        if (q_hi - q_lo).sign() >= 0:
            covers.append((q_lo, q_hi))
    covers.sort(key=cmp_to_key(lambda s, t: (s[0] - t[0]).sign()))
    cur = p_lo
    for q_lo, q_hi in covers:
        if (q_lo - cur).sign() > 0:
            gap_hi = q_lo if (q_lo - p_hi).sign() < 0 else p_hi
            if (gap_hi - cur).sign() > 0:
                return VerifyResult(False, ComplexQuad((cur + gap_hi) / 2), "uncovered gap")
        if (q_hi - cur).sign() > 0:
            cur = q_hi
        if (cur - p_hi).sign() >= 0:
            return VerifyResult(True)
    if (cur - p_hi).sign() >= 0:
        return VerifyResult(True)
    return VerifyResult(False, ComplexQuad((cur + p_hi) / 2), "uncovered tail")


def _verify_polygon(sys: NumerationSystem, cert: OLCertificate) -> VerifyResult:
    eps = cert.epsilon
    q_planes = []
    for d in sys.alphabet:
        planes = _inward_planes(cert.region, d, eps)
        pts = list(cert.region.translate(d).vertices)
        for gx, gy, c, _ in planes:
            pts = _split(pts, gx, gy, c)[0]
            if not pts:
                break
        if pts and _positive_area(pts):
            q_planes.append(planes)
    return _covering_check(sys, cert.region, eps, q_planes)


def _verify_mu_nu(sys: NumerationSystem, cert: OLCertificate) -> VerifyResult:
    if cert.mu.sign() <= 0 or cert.nu.sign() <= 0:
        return VerifyResult(False, reason="mu and nu must be positive")
    f = cert.div_fatten(sys)  # |beta|*mu + nu
    if (cert.epsilon - f).sign() < 0:
        return VerifyResult(False, reason="budget |beta|*mu + nu exceeds the covering radius")
    q_planes = [_inward_planes(cert.region, d, _RQ0) for d in sys.alphabet]
    return _covering_check(sys, cert.region, f, q_planes)


def _covering_check(sys, region: ConvexPolygon, fatten: RealQuad, q_planes) -> VerifyResult:
    scaled = region.scale(sys.base)
    outer = _mitered_offset(scaled, fatten)
    pieces = [outer]
    for planes in q_planes:
        pieces = _subtract(pieces, planes)
        if not pieces:
            return VerifyResult(True)
    f_sq = fatten * fatten
    scaled_pts = list(scaled.vertices)
    for piece in pieces:
        dist, pt = _min_dist_sq(piece, scaled_pts)
        if (dist - f_sq).sign() <= 0:
            return VerifyResult(False, pt, "uncovered point in the fattened region")
    return VerifyResult(True)


# -- digit selection -----------------------------------------------------------


def fattened_domain(sys: NumerationSystem, cert: OLCertificate, fatten: RealQuad) -> ConvexPolygon:
    """Convex superset of the fattened beta*I (exact miter for polygons,
    exact endpoints for intervals)."""
    scaled = cert.beta_region(sys)
    if scaled.is_interval:
        lo, hi = scaled.interval_bounds()
        return ConvexPolygon([ComplexQuad(lo - fatten), ComplexQuad(hi + fatten)])
    return ConvexPolygon(_mitered_offset(scaled, fatten))


def ball_fits(cert: OLCertificate, sys: NumerationSystem, v: ComplexQuad, digit_index: int) -> bool:
    """Exact test: the epsilon-ball around v lies inside region + digit."""
    w = v - sys.digit(digit_index)
    eps = cert.epsilon
    if cert.region.is_interval:
        if not w.is_real():
            return False
        lo, hi = cert.region.interval_bounds()
        return (w.re - (lo + eps)).sign() >= 0 and ((hi - eps) - w.re).sign() >= 0
    if not region_contains(cert.region, w):
        return False
    eps_sq = eps * eps
    for gx, gy, c, nsq in cert.region.halfplanes():
        margin = gx * w.re + gy * w.im - c
        if (margin * margin - eps_sq * nsq).sign() < 0:
            return False
    return True


def nearest_qualifying(sys: NumerationSystem, v: ComplexQuad, fits: Callable[[int], bool] | None) -> int | None:
    """Index of the digit a minimizing |v - a| among the digit indices i
    passing fits(i), or among all digits when fits is None; ties go to the
    earlier digit in alphabet order.  None when no digit passes."""
    best: int | None = None
    best_d: RealQuad | None = None
    for i, a in enumerate(sys.alphabet):
        if fits is not None and not fits(i):
            continue
        d = (v - a).norm_sq()
        if best_d is None or (d - best_d).sign() < 0:
            best, best_d = i, d
    return best


def nearest_admissible(cert: OLCertificate, sys: NumerationSystem, z: ComplexQuad) -> int | None:
    """The OL Property test shared by both algorithms: the nearest digit a,
    in alphabet order, whose I + a holds the epsilon-ball around z (W in
    multiplication, W/D in division); on a mu/nu certificate the nearest digit.
    None when no digit qualifies."""
    fits = None if cert.selects_nearest else (lambda i: ball_fits(cert, sys, z, i))
    return nearest_qualifying(sys, z, fits)


def in_growth_phase(cert: OLCertificate, sys: NumerationSystem, v: ComplexQuad) -> bool:
    """On a region right of zero, v is real with 0 <= v < base*lambda - eps/2:
    the value (W) has not yet grown into the selection domain, and its digit
    is 0."""
    if not cert.right_of_zero or not v.is_real() or v.re.sign() < 0:
        return False
    lam, _ = cert.region.interval_bounds()
    return (v.re - (sys.base.re * lam - cert.epsilon / 2)).sign() < 0


def _domain_check(cert: OLCertificate, sys: NumerationSystem, v: ComplexQuad) -> None:
    dist = region_dist_sq(cert.beta_region(sys), v)
    if (dist - memo(cert, "select_sq", lambda: cert.select_fatten() ** 2)).sign() > 0:
        raise DomainError("value outside the digit selection domain")


_UNCOVERED = "no digit qualifies: certificate does not cover the selection domain"
_NO_QUOTIENT_DIGIT = "no digit qualifies for the quotient v/delta"


def _qualified(best: int | None, message: str) -> int:
    if best is None:
        raise CertificateError(message)
    return best


def digit_select(cert: OLCertificate, sys: NumerationSystem, v: ComplexQuad | Point) -> int:
    """Digit selector realized by the certificate, on its compiled tests: the
    digit of digit_select_exact, for a ComplexQuad or a kernel point.  In the
    growth phase the digit is 0."""
    sel = compiled_selector(cert, sys)
    p = sel.point(v)
    if cert.right_of_zero and in_growth_phase(cert, sys, sel.value(p)):
        return sys.zero_index
    if not sel.inside(p):
        _domain_check(cert, sys, sel.value(p))
    return _qualified(sel.nearest(p), _UNCOVERED)


def digit_select_exact(cert: OLCertificate, sys: NumerationSystem, v: ComplexQuad) -> int:
    """The ball-test twin of digit_select, the monitor's oracle:
    nearest_admissible on v inside the selection domain."""
    if in_growth_phase(cert, sys, v):
        return sys.zero_index
    _domain_check(cert, sys, v)
    return _qualified(nearest_admissible(cert, sys, v), _UNCOVERED)


def digit_select_total(cert: OLCertificate, sys: NumerationSystem, v: ComplexQuad) -> int:
    """Total extension used for table synthesis: the nearest admissible digit
    when any digit qualifies, plain nearest otherwise (compiled tests)."""
    sel = compiled_selector(cert, sys)
    p = sel.point(v)
    best = sel.nearest(p)
    return sel.nearest(p, admissible=False) if best is None else best


def quotient_digit(cert: OLCertificate, sys: NumerationSystem, v: ComplexQuad | Point,
                   recip: ComplexQuad | Point) -> int:
    """select_d_exact's digit for v/delta on the compiled tests, from v and
    recip = 1/delta: one kernel product, no inverse."""
    sel = compiled_selector(cert, sys)
    return _qualified(sel.nearest(point_mul(sel.point(recip), sel.point(v), sel.d)), _NO_QUOTIENT_DIGIT)


def select_d_exact(cert: OLCertificate, sys: NumerationSystem, v: ComplexQuad, delta: ComplexQuad) -> int:
    """Exact quotient-digit selection, the monitor's oracle:
    nearest_admissible on u = v/delta.  Division has no growth phase, and
    select_d checks its own domain."""
    if delta.is_zero():
        raise DomainError("divisor value is zero")
    return _qualified(nearest_admissible(cert, sys, v / delta), _NO_QUOTIENT_DIGIT)


# -- compiled selection -----------------------------------------------------------


def _sides(region: ConvexPolygon) -> list[tuple[RealQuad, RealQuad, RealQuad, RealQuad | None]]:
    """(gx, gy, c, e) per side of the region, interior gx*x + gy*y >= c, where
    an eps-ball fits inside the side at c + eps*e (e = |g|; None where |g|
    leaves the field).  An interval's sides are its two ends and the real
    axis, across which a 1-D ball needs no room (e = 0)."""
    if region.is_interval:
        lo, hi = region.interval_bounds()
        one = RealQuad(1)
        return [(one, _RQ0, lo, one), (-one, _RQ0, -hi, one), (_RQ0, one, _RQ0, _RQ0), (_RQ0, -one, _RQ0, _RQ0)]
    return [(gx, gy, c, e) for (gx, gy, c, _), e in zip(region.halfplanes(), region.edge_norms())]


def _form(gx: RealQuad, gy: RealQuad, c: RealQuad, d: int) -> tuple[int, ...]:
    """gx*x + gy*y - c times the positive integer gx.q*gy.q*c.q, as integer
    coefficients: rational and sqrt(d) parts of x, y and 1 (see _form_sign)."""
    fx, fy, fc = gy.q * c.q, gx.q * c.q, gx.q * gy.q
    return (gx.a * fx, gx.b * fx * d, gx.b * fx, gy.a * fy, gy.b * fy * d, gy.b * fy, c.a * fc, c.b * fc)


def _form_sign(t: tuple[int, ...], p: tuple[int, ...], d: int) -> int:
    """Sign of the form t (from _form) at the point p (field.to_point): one
    A + B*sqrt(d), by RealQuad's sign rule."""
    xa, xb, ya, yb, q = p
    gxa, gxbd, gxb, gya, gybd, gyb, ca, cb = t
    return quad_sign(gxa * xa + gxbd * xb + gya * ya + gybd * yb - ca * q,
                     gxa * xb + gxb * xa + gya * yb + gyb * ya - cb * q, d)


@dataclass(frozen=True)
class CompiledSelector:
    """A certificate's digit selection for one system as integer linear
    tests, built once (compiled_selector): whether v lies in beta*I, whether
    the eps-ball around v fits in I + a (eroded sides; a side whose |g| leaves
    the field keeps the squared test), and which of two digits lies nearer v,
    |v - a|^2 - |v - b|^2 = 2 Re(v conj(b - a)) - |b|^2 + |a|^2.  It decides
    what digit_select_exact and nearest_admissible decide, without building
    a RealQuad (but on a squared side).  It is also the run's kernel: the
    tests read integer points (field.to_point) over sqrt(d), and beta,
    beta^-1 and the digits are kept as points for the integer maps
    (field.point_mul, field.point_add)."""

    d: int
    domain: tuple  # forms of beta*I's sides
    region: tuple  # forms of I's sides
    fits: tuple | None  # per digit, forms of the eroded I + a; None on mu/nu (every digit)
    squared: tuple  # per digit, (gx, gy, c, eps^2 |g|^2) of the sides with |g| outside the field
    nearer: tuple  # nearer[i][j] > 0: digit j lies strictly nearer v than digit i
    beta: Point
    inv_beta: Point
    digits: tuple  # the alphabet's points

    def point(self, v: ComplexQuad | Point) -> Point:
        """v as a point of this kernel; a point passes through."""
        if isinstance(v, tuple):
            return v
        vd = v.re.d or v.im.d
        if vd and vd != self.d:
            raise FieldMismatchError(f"mismatched field descriptors: sqrt({vd}) vs sqrt({self.d})")
        return to_point(v)

    def value(self, p: Point) -> ComplexQuad:
        return from_point(p, self.d)

    def inside(self, p: Point) -> bool:
        """p lies in beta*I."""
        return all(_form_sign(t, p, self.d) >= 0 for t in self.domain)

    def in_region(self, p: Point) -> bool:
        """p lies in I (region_contains)."""
        return all(_form_sign(t, p, self.d) >= 0 for t in self.region)

    def nearest(self, p: Point, admissible: bool = True) -> int | None:
        """nearest_admissible(p), or the nearest digit when not admissible;
        ties go to the earlier digit in alphabet order."""
        d, best = self.d, None
        for i in range(len(self.nearer)):
            if admissible and self.fits is not None and not self._fits(i, p):
                continue
            if best is None or _form_sign(self.nearer[best][i], p, d) > 0:
                best = i
        return best

    def _fits(self, i: int, p: Point) -> bool:
        for t in self.fits[i]:
            if _form_sign(t, p, self.d) < 0:
                return False
        v = self.value(p) if self.squared[i] else None
        return all(((gx * v.re + gy * v.im - c) ** 2 - bound).sign() >= 0 for gx, gy, c, bound in self.squared[i])


def compiled_selector(cert: OLCertificate, sys: NumerationSystem) -> CompiledSelector:
    """The certificate's CompiledSelector for sys, built on first use."""
    return memo(cert, ("compiled", sys), lambda: _compile(cert, sys))


def _compile(cert: OLCertificate, sys: NumerationSystem) -> CompiledSelector:
    region, eps = cert.region, cert.epsilon
    d = sys.ambient_d or region.ambient_d or eps.d
    fits, squared = [], []
    for a in () if cert.selects_nearest else sys.alphabet:
        forms, sq = [], []
        for gx, gy, c, e in _sides(region):
            c_a = c + gx * a.re + gy * a.im
            if e is None:  # inside the side, then the squared margin
                forms.append(_form(gx, gy, c_a, d))
                sq.append((gx, gy, c_a, eps * eps * (gx * gx + gy * gy)))
            else:
                forms.append(_form(gx, gy, c_a + eps * e, d))
        fits.append(tuple(forms))
        squared.append(tuple(sq))
    nearer = tuple(
        tuple(_form((b - a).re * 2, (b - a).im * 2, b.norm_sq() - a.norm_sq(), d) for b in sys.alphabet)
        for a in sys.alphabet
    )
    domain = tuple(_form(gx, gy, c, d) for gx, gy, c, _ in _sides(cert.beta_region(sys)))
    inner = tuple(_form(gx, gy, c, d) for gx, gy, c, _ in _sides(region))
    return CompiledSelector(d, domain, inner,
                            None if cert.selects_nearest else tuple(fits), tuple(squared), nearer,
                            to_point(sys.base), to_point(sys.inv_base), tuple(to_point(a) for a in sys.alphabet))
