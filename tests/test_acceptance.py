"""Acceptance suite: one check per stated criterion, each printing a
PASS/FAIL line (run with -s to see them).  All arithmetic is exact; bounds
are certified rational intervals, never floating tolerances."""

import random
from fractions import Fraction
from itertools import product

import pytest

from olnum.field import ComplexQuad, RealQuad, sqrt_interval
from olnum.numeration import (
    DigitString,
    NumerationSystem,
    eval_digits,
    format_digits,
    parse_digits,
    zero_has_nontrivial_rep,
)
from olnum.online_div import div_error_constant
from olnum.online_mul import mult_error_constant
from olnum.params import div_params, eisenstein_params
from olnum.preprocess import dmin_lower_bound, preprocess_divisor
from olnum.presets import load_preset
from olnum.region import (
    OLCertificate,
    ball_fits,
    complex_parallelogram_certificate,
    digit_select_total,
    fattened_domain,
    real_interval_certificate,
    select_d_exact,
    verify_certificate,
)
from olnum.select import (
    golden_d_rule,
    golden_m_rule,
    synthesize_table,
    truncate,
)

RUNS = 100
STEPS = 40


def _report(ok: bool, label: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, label


# -- criterion 1: parameter-table reproduction -----------------------------------


def test_criterion1_golden_square_mult():
    p = load_preset("golden-square")
    ok = (p.mult_params.delta, p.mult_params.window_l) == (4, 3)
    _report(ok, "criterion 1: golden-square mult (delta, L) = (4, 3)")


def test_criterion1_golden_square_div():
    p = load_preset("golden-square")
    ok = div_params(p.sys, p.div_cert, p.preprocess.d_min).delta == 7 and (p.div_params.delta, p.div_params.window_l) == (6, 9)
    _report(ok, "criterion 1: golden-square div generic delta = 7, preset override (6, 9)")


def test_criterion1_knuth():
    p = load_preset("knuth")
    ok = (p.mult_params.delta, p.mult_params.window_l) == (9, 7) and (
        p.div_params.delta,
        p.div_params.window_l,
    ) == (11, 11)
    _report(ok, "criterion 1: knuth mult (9, 7) and div (11, 11)")


def test_criterion1_eisenstein_mult_frontier():
    pairs = {(pt.delta, pt.window_l) for pt in eisenstein_params("mult")}
    ok = {(5, 7), (6, 6)} <= pairs
    _report(ok, "criterion 1: eisenstein mult frontier contains (5, 7) and (6, 6)")


def test_criterion1_eisenstein_div_frontier_contains_10_9():
    pairs = {(pt.delta, pt.window_l) for pt in eisenstein_params("div")}
    ok = (10, 9) in pairs
    _report(ok, "criterion 1: eisenstein div frontier contains (10, 9)")


def test_criterion1_eisenstein_div_frontier_contains_7_10():
    # The stated budget sqrt(3) mu + nu <= sqrt(3)/6 together with the stated
    # div inequalities makes (7, 10) infeasible (no rational witness exists);
    # the computed frontier is {(7, 11), (8, 10), (10, 9)}.  Kept as stated.
    pairs = {(pt.delta, pt.window_l) for pt in eisenstein_params("div")}
    ok = (7, 10) in pairs
    _report(ok, "criterion 1: eisenstein div frontier contains (7, 10)")


# -- criterion 2: certificate verification ----------------------------------------


def test_criterion2_integer_bases_minimal_alphabets():
    ok = True
    for beta in range(2, 11):
        m = -(beta // 2)
        M = beta + m
        sys_ = load_preset(f"integer:{beta}:{m}:{M}").sys
        cert = real_interval_certificate(sys_)
        ok = ok and verify_certificate(sys_, cert).passed
    _report(ok, "criterion 2: interval certificates verify for bases 2..10, minimal redundant alphabets")


def test_criterion2_golden_square_fattening_equality():
    p = load_preset("golden-square")
    beta = p.sys.base.re
    lo, hi = p.cert.region.interval_bounds()
    eps2 = p.cert.epsilon + p.cert.epsilon
    ok = (beta * hi + eps2 == hi + RealQuad(1)) and (beta * lo - eps2 == lo + RealQuad(-1))
    _report(ok, "criterion 2: golden-square (beta I)^(2 eps) equals union(I + a) exactly")


def test_criterion2_knuth_oblong_passes():
    p = load_preset("knuth")
    _report(verify_certificate(p.sys, p.cert).passed, "criterion 2: knuth oblong certificate verifies")


def test_criterion2_parallelogram_construction():
    ok = True
    sys_2i = load_preset("knuth").sys
    cert = complex_parallelogram_certificate(sys_2i)
    ok = ok and verify_certificate(sys_2i, cert).passed
    beta = ComplexQuad(RealQuad(-3, 0, 2), RealQuad(0, 1, 2, 3))
    digits = [ComplexQuad.from_int(v) for v in (0, 1, -1, 2, -2, 3, -3)]
    sys_e = NumerationSystem(beta, digits, [str(v) for v in (0, 1, -1, 2, -2, 3, -3)])
    cert_e = complex_parallelogram_certificate(sys_e)
    ok = ok and verify_certificate(sys_e, cert_e).passed
    _report(ok, "criterion 2: parallelogram construction verifies for 2i and -3/2 + i sqrt(3)/2")


def test_criterion2_knuth_large_epsilon_fails():
    p = load_preset("knuth")
    bad = OLCertificate(p.cert.region, RealQuad(1, 0, 2))
    result = verify_certificate(p.sys, bad)
    ok = (not result.passed) and result.witness is not None
    if ok:
        ok = not any(ball_fits(bad, p.sys, result.witness, i) for i in range(len(p.sys.alphabet)))
    _report(ok, "criterion 2: knuth with eps = 1/2 fails with an uncovered witness")


# -- criteria 3, 4, 8: runs with exact per-step invariants --------------------------


def _random_streams(preset, rng, length):
    na = len(preset.sys.alphabet)
    return [rng.randrange(na) for _ in range(length)]


def _random_divisor(preset, rng, length):
    sys_ = preset.sys
    na = len(sys_.alphabet)
    while True:
        digits = [rng.choice([i for i in range(na) if i != sys_.zero_index])]
        digits += [rng.randrange(na) for _ in range(length - 1)]
        ds = DigitString((sys_.zero_index,), tuple(digits))
        if not eval_digits(sys_, ds).is_zero():
            pre, _ = preprocess_divisor(preset.preprocess, sys_, ds)
            return list(pre.frac_digits)


@pytest.mark.parametrize("name,seed", [("golden-square", 1001), ("knuth", 1002), ("eisenstein", 1003)])
def test_criterion3_mult_invariants(name, seed):
    preset = load_preset(name)
    rng = random.Random(seed)
    assert preset.max_int_mult() is not None  # the runs enforce the preset's integer-window bound
    for _ in range(RUNS):
        xs = _random_streams(preset, rng, STEPS)
        ys = _random_streams(preset, rng, STEPS)
        preset.mul(xs, ys, STEPS, check=True)
    _report(True, f"criterion 3+8: {name} mult: {RUNS} runs x {STEPS} steps, all step invariants exact")


@pytest.mark.parametrize("name,seed", [("golden-square", 2001), ("knuth", 2002), ("eisenstein", 2003)])
def test_criterion3_div_invariants(name, seed):
    preset = load_preset(name)
    rng = random.Random(seed)
    assert preset.max_int_div() is not None  # the runs enforce the preset's integer-window bound
    for _ in range(RUNS):
        ns = _random_streams(preset, rng, STEPS)
        ds = _random_divisor(preset, rng, 20)
        preset.div(ns, ds, STEPS, check=True)
    _report(True, f"criterion 3+8: {name} div: {RUNS} runs x {STEPS} steps, all step invariants exact")


def _within(diff_sq: RealQuad, bound: Fraction) -> bool:
    return (diff_sq - RealQuad.from_fraction(bound * bound)).sign() <= 0


_C4_SEEDS = {"golden-square": 41, "knuth": 42, "eisenstein": 43}


@pytest.mark.parametrize("name", ["golden-square", "knuth", "eisenstein"])
def test_criterion4_mult_convergence(name):
    preset = load_preset(name)
    sys_ = preset.sys
    rng = random.Random(_C4_SEEDS[name])
    c = (mult_error_constant(sys_, preset.cert) * sys_.abs_beta().pow_int(-STEPS)).lo
    ok = True
    for _ in range(5):
        xs = _random_streams(preset, rng, 12)
        ys = _random_streams(preset, rng, 12)
        out = preset.mul(xs, ys, STEPS, check=False)
        delta = preset.mult_params.delta
        x_val = eval_digits(sys_, DigitString.make(sys_, [sys_.zero_index], xs)) * sys_.beta_pow(-delta)
        y_val = eval_digits(sys_, DigitString.make(sys_, [sys_.zero_index], ys)) * sys_.beta_pow(-delta)
        ok = ok and _within((eval_digits(sys_, out) - x_val * y_val).norm_sq(), c)
    _report(ok, f"criterion 4: {name} |X*Y - P_40| <= C |beta|^-40 exactly")


@pytest.mark.parametrize("name", ["golden-square", "knuth", "eisenstein"])
def test_criterion4_div_convergence(name):
    preset = load_preset(name)
    sys_ = preset.sys
    rng = random.Random(_C4_SEEDS[name] + 100)
    c = (div_error_constant(sys_, preset.div_cert, preset.div_params.d_min)
         * sys_.abs_beta().pow_int(-STEPS)).lo
    ok = True
    for _ in range(5):
        ns = _random_streams(preset, rng, 12)
        ds = _random_divisor(preset, rng, 12)
        res = preset.div(ns, ds, STEPS, check=False)
        n_val = eval_digits(sys_, DigitString.make(sys_, [sys_.zero_index], ns)) \
            * sys_.beta_pow(-preset.div_params.delta - res.numerator_shift)
        d_val = eval_digits(sys_, DigitString.make(sys_, [sys_.zero_index], ds))
        ok = ok and _within((eval_digits(sys_, res.digits) - n_val / d_val).norm_sq(), c)
    _report(ok, f"criterion 4: {name} |N/D - Q_40| <= C |beta|^-40 exactly")


# -- criterion 5: preprocessing ------------------------------------------------------


def test_criterion5_base2_worked_chain():
    p = load_preset("integer:2:-1:1")
    ds = parse_digits(p.sys, "0 . 1 -1 -1 -1 0 -1 1 0 0 1")
    out, shift = preprocess_divisor(p.preprocess, p.sys, ds)
    ok = format_digits(p.sys, out) == "0 . 1 0 -1 1 0 0 1" and shift == 3
    _report(ok, "criterion 5: base-2 worked rewriting chain reproduces token-for-token")


def test_criterion5_dmin_values():
    ok = True
    p2 = load_preset("integer:2:-1:1")
    iv = dmin_lower_bound(p2.sys, p2.preprocess.rules, 2)
    ok = ok and iv.lo == iv.hi == Fraction(1, 4)
    p3 = load_preset("integer:3:-1:2")
    iv = dmin_lower_bound(p3.sys, p3.preprocess.rules, 2)
    ok = ok and iv.lo == iv.hi == Fraction(1, 9)
    p4 = load_preset("base4")
    iv = dmin_lower_bound(p4.sys, (), 1)
    ok = ok and iv.lo == iv.hi == Fraction(1, 12)
    gm = load_preset("golden-mean")
    iv = dmin_lower_bound(gm.sys, gm.preprocess.rules, 3)
    beta5_inv = (gm.sys.base.re ** 5).inverse().to_interval(Fraction(1, 10**14))
    ok = ok and iv.lo <= beta5_inv.hi and beta5_inv.lo <= iv.hi and iv.width() <= Fraction(1, 10**7)
    _report(ok, "criterion 5: D_min certifications reproduce 1/4, 1/9, 1/beta^5, 1/12")


def test_criterion5_eisenstein_dmin():
    p = load_preset("eisenstein")
    iv = dmin_lower_bound(p.sys, p.preprocess.rules, 3, precision=Fraction(1, 10**7))
    # sqrt(3)*(6-sqrt(7))/18 by interval arithmetic, independent of the params module
    w = Fraction(1, 10**12)
    oracle = sqrt_interval(3, w) * (6 - sqrt_interval(7, w)) / 18
    ok = oracle.width() <= w and iv.width() <= Fraction(1, 10**6) and iv.lo <= oracle.lo and oracle.hi <= iv.hi
    # exhaustive depth-3 irreducible-prefix search: min |0.d1 d2 d3|^2 >= 1/3
    sys_ = p.sys
    rules = [r for r in p.preprocess.rules if len(r.lhs) <= 3]
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
    ok = ok and (best - RealQuad(1, 0, 3)).sign() >= 0
    _report(ok, "criterion 5: eisenstein D_min interval within 1e-6 of sqrt(3)(6-sqrt(7))/18, min prefix norm >= 1/3")


# -- criterion 6: zero-representation verdicts -----------------------------------------


def test_criterion6_zero_rep_verdicts():
    v4 = zero_has_nontrivial_rep(load_preset("base4").sys)
    v2 = zero_has_nontrivial_rep(load_preset("integer:2:-1:1").sys)
    v3 = zero_has_nontrivial_rep(load_preset("integer:3:-1:2").sys)
    ok = (not v4.nontrivial_exists) and v2.nontrivial_exists and v3.nontrivial_exists
    _report(ok, "criterion 6: zero-representation verdicts for (4,-2..2), (2,-1..1), (3,-1..2)")


# -- criterion 7: table synthesis -------------------------------------------------------


def test_criterion7_golden_table():
    p = load_preset("golden-square")
    sys_, cert = p.sys, p.cert
    domain = fattened_domain(sys_, cert, cert.mult_fatten())
    table = synthesize_table(sys_, cert, 3, domain)
    ok = len(table.entries) == 243 and table.window_shape == (2, 3)
    for key, digit in table.entries.items():
        ds = DigitString(tuple(key[:2]), tuple(key[2:]))
        w = truncate(sys_, ds, 3)
        if golden_m_rule(sys_, w) != digit:
            ok = False
            break
    _report(ok, "criterion 7: golden-square table has 3^5 = 243 entries, all matching the lexicographic rule")


def test_criterion7_golden_division_rule_agreement():
    p = load_preset("golden-square")
    sys_, cert = p.sys, p.div_cert
    rng = random.Random(712)
    lo_sq = RealQuad.from_fraction(p.div_params.d_min.hi ** 2)
    fat = cert.epsilon
    from olnum.region import region_dist_sq

    checked = 0
    tries = 0
    ok = True
    while checked < 10_000 and tries < 200_000:
        tries += 1
        d_digits = [sys_.index_of_symbol(rng.choice(["1", "-1"]))] + [rng.randrange(3) for _ in range(8)]
        d_ds = DigitString((sys_.zero_index,), tuple(d_digits))
        d_win = truncate(sys_, d_ds, 9)
        delta = d_win.value
        if (delta.norm_sq() - lo_sq).sign() < 0:
            continue
        u_ds = DigitString((rng.randrange(3),), tuple(rng.randrange(3) for _ in range(9)))
        w_win = truncate(sys_, u_ds, 9)
        v = w_win.value
        if (region_dist_sq(cert.beta_region(sys_), v / delta) - fat * fat).sign() > 0:
            continue
        if golden_d_rule(sys_, w_win, d_win) != select_d_exact(cert, sys_, v, delta):
            ok = False
            break
        checked += 1
    ok = ok and checked == 10_000
    _report(ok, "criterion 7: specialized division sign rule agrees with generic selection on 10^4 admissible pairs")


# -- criterion 8 is asserted inside every step of criterion 3 (bounded window);
#    no wall-clock complexity claim is made ---------------------------------------------


def test_criterion8_note():
    _report(True, "criterion 8: per-step selection consults only the bounded window (asserted in criterion 3 runs)")
