import random
import sys
from dataclasses import replace
from functools import cmp_to_key
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from olnum import numeration, online_div, online_mul
from olnum.errors import DomainError
from olnum.field import ComplexQuad, RealQuad
from olnum.numeration import DigitString, eval_digits
from olnum.online_div import _quotient_guard, div_error_constant, div_run
from olnum.online_mul import InvariantViolation, OnlineState, mul_run, mul_step, mult_error_constant, run_online
from olnum.online_mul import _check_step as mul_check
from olnum.preprocess import preprocess_divisor
from olnum.presets import PRESET_NAMES, load_preset
from olnum.region import compiled_selector, region_contains
from olnum.select import truncate


@pytest.fixture(scope="module")
def golden():
    return load_preset("golden-square")


@pytest.fixture(scope="module")
def knuth():
    return load_preset("knuth")


@pytest.fixture(scope="module")
def eisenstein():
    return load_preset("eisenstein")


def _assert_within(diff_norm_sq, bound_interval):
    assert (diff_norm_sq - RealQuad.from_fraction(bound_interval.lo ** 2)).sign() <= 0


def _mul_state(preset):
    return OnlineState(preset.sys, preset.cert, preset.mult_params,
                       select_fn=preset.mult_select, exact_fn=preset.mult_exact)


def _mul_steps(state, digits):
    """Run one engine step per (x, y) digit pair through the mul recurrence."""
    xs, ys = zip(*digits)
    run_online(state, mul_step, mul_check, iter(xs), iter(ys), len(digits))


class TestMulStep:
    # the run keeps W and the partials as kernel points; state.kern.value
    # turns them back into ComplexQuads

    def test_first_step_zero(self, golden):
        state = _mul_state(golden)
        zero = golden.sys.zero_index
        _mul_steps(state, [(zero, zero)])
        assert state.emitted == [zero]
        assert state.kern.value(state.w).is_zero()

    def test_zero_inputs_scale_w(self, golden):
        sys_ = golden.sys
        state = _mul_state(golden)
        one, zero = sys_.index_of_symbol("1"), sys_.zero_index
        _mul_steps(state, [(zero, zero)] * 4 + [(one, one)])
        w_before = state.kern.value(state.w)
        if state.emitted[-1] == zero and not w_before.is_zero():
            _mul_steps(state, [(zero, zero)])
            assert (state.kern.value(state.w) - w_before * sys_.base).is_zero()

    def test_identity_at_step_five(self, golden):
        sys_ = golden.sys
        one, zero = sys_.index_of_symbol("1"), sys_.zero_index
        state = _mul_state(golden)
        _mul_steps(state, [(zero, zero)] * 4 + [(one, one)])
        value = state.kern.value
        p_4 = value(state.out_partial) - sys_.digit(state.emitted[-1]) * sys_.beta_pow(-5)
        expected = sys_.beta_pow(5) * (value(state.x_partial) * value(state.y_partial) - p_4)
        assert (value(state.w) - expected).is_zero()


class TestMulRun:
    def test_zeros(self, golden):
        sys_ = golden.sys
        out = golden.mul([], [], 10)
        assert all(i == sys_.zero_index for i in out.frac_digits)

    def test_golden_square_product(self, golden):
        sys_ = golden.sys
        one = sys_.index_of_symbol("1")
        out = golden.mul([one], [one], 20)
        product = eval_digits(sys_, out)
        exact = sys_.beta_pow(-10)
        c = mult_error_constant(sys_, golden.cert) * sys_.abs_beta().pow_int(-20)
        _assert_within((product - exact).norm_sq(), c)

    def test_knuth_square(self, knuth):
        sys_ = knuth.sys
        two = sys_.index_of_symbol("2")
        out = knuth.mul([two], [two], 24)
        product = eval_digits(sys_, out)
        exact = (sys_.digit(two) * sys_.beta_pow(-10)) ** 2  # real 2^-18
        assert exact == ComplexQuad(RealQuad(1, 0, 2**18))
        c = mult_error_constant(sys_, knuth.cert) * sys_.abs_beta().pow_int(-24)
        _assert_within((product - exact).norm_sq(), c)

    def test_eisenstein_square(self, eisenstein):
        sys_ = eisenstein.sys
        one = sys_.index_of_symbol("1")
        out = eisenstein.mul([one], [one], 20)
        product = eval_digits(sys_, out)
        exact = sys_.beta_pow(-12)
        c = mult_error_constant(sys_, eisenstein.cert) * sys_.abs_beta().pow_int(-20)
        _assert_within((product - exact).norm_sq(), c)

    def test_random_products_exact_bound(self, golden):
        sys_ = golden.sys
        rng = random.Random(500)
        n = 25
        c = mult_error_constant(sys_, golden.cert) * sys_.abs_beta().pow_int(-n)
        for _ in range(10):
            xs = [rng.randrange(3) for _ in range(10)]
            ys = [rng.randrange(3) for _ in range(10)]
            out = golden.mul(xs, ys, n)
            delta = golden.mult_params.delta
            x_val = eval_digits(sys_, DigitString.make(sys_, [sys_.zero_index], xs)) * sys_.beta_pow(-delta)
            y_val = eval_digits(sys_, DigitString.make(sys_, [sys_.zero_index], ys)) * sys_.beta_pow(-delta)
            _assert_within((eval_digits(sys_, out) - x_val * y_val).norm_sq(), c)

    def test_wrong_mode(self, golden):
        with pytest.raises(DomainError):
            mul_run(golden.sys, golden.cert, golden.div_params, [], [], 5, select_fn=golden.mult_select)


def test_no_floor_runs_unbounded():
    # zero has a non-trivial representation here: no floor bounds the window
    # and no divisor bound exists, so products run unbounded and division is refused
    for name in ("integer:-3:-3:3", "integer:2:-1:2"):
        p = load_preset(name)
        assert p.max_int_mult() is None and p.max_int_div() is None
        one = p.sys.index_of_symbol("1")
        assert len(p.mul([one], [one], 12).frac_digits) == 12
        with pytest.raises(DomainError, match="division unavailable"):
            p.div([one], [one], 5)


class TestDivRun:
    def test_zero_numerator(self, golden):
        sys_ = golden.sys
        one = sys_.index_of_symbol("1")
        res = golden.div([], [one], 12)
        assert all(i == sys_.zero_index for i in res.digits.frac_digits)
        assert res.numerator_shift == 0

    def test_golden_quotient(self, golden):
        sys_ = golden.sys
        one = sys_.index_of_symbol("1")
        res = golden.div([one], [one], 20)
        q = eval_digits(sys_, res.digits)
        exact = sys_.beta_pow(-6)
        c = div_error_constant(sys_, golden.div_cert, golden.div_params.d_min) * sys_.abs_beta().pow_int(-20)
        _assert_within((q - exact).norm_sq(), c)

    def test_eisenstein_quotient(self, eisenstein):
        sys_ = eisenstein.sys
        w = sys_.index_of_symbol("w")
        one = sys_.index_of_symbol("1")
        res = eisenstein.div([w], [one], 18)
        q = eval_digits(sys_, res.digits)
        exact = sys_.digit(w) * sys_.beta_pow(-10)
        c = div_error_constant(sys_, eisenstein.div_cert, eisenstein.div_params.d_min) * sys_.abs_beta().pow_int(-18)
        _assert_within((q - exact).norm_sq(), c)

    def test_unpreprocessed_divisor_rejected(self, golden):
        sys_ = golden.sys
        one = sys_.index_of_symbol("1")
        with pytest.raises(DomainError):
            golden.div([one], [sys_.zero_index, one], 10)

    def test_divisor_prefix_inside_dmin_enclosure(self, golden):
        # the prefixes of 0.1(-1)(-1)... fall to d_min = 1/beta^2 from above, and
        # D_18 lies below the upper end of d_min's enclosure: still a valid divisor
        sys_ = golden.sys
        one, neg = sys_.index_of_symbol("1"), sys_.index_of_symbol("-1")
        ds = [one] + [neg] * 24
        d_18 = eval_digits(sys_, DigitString.make(sys_, [sys_.zero_index], ds[:18]))
        assert (d_18.norm_sq() - RealQuad.from_fraction(golden.div_params.d_min.hi ** 2)).sign() < 0
        res = golden.div([one], ds, 30)
        assert res.digits == golden.div([one], ds, 30, check=False).digits
        d_val = eval_digits(sys_, DigitString.make(sys_, [sys_.zero_index], ds))
        exact = sys_.beta_pow(-1 - golden.div_params.delta) / d_val
        c = div_error_constant(sys_, golden.div_cert, golden.div_params.d_min) * sys_.abs_beta().pow_int(-30)
        _assert_within((eval_digits(sys_, res.digits) - exact).norm_sq(), c)

    def test_golden_mean_divisor_prefix_inside_dmin_enclosure(self):
        # the least irreducible prefix of the analysis depth (the minimiser of
        # dmin_lower_bound(sys, rules, 3)), then at each position the digit that
        # lowers |D_k| most: the prefixes fall to d_min = 1/beta^5 from above
        p = load_preset("golden-mean")
        sys_, rules, d_min = p.sys, p.preprocess.rules, p.div_params.d_min

        def value(ds):
            return eval_digits(sys_, DigitString((sys_.zero_index,), tuple(ds)))

        def least(candidates):
            return min(candidates, key=cmp_to_key(lambda s, t: (value(s).norm_sq() - value(t).norm_sq()).sign()))

        ds = list(least([c for c in product(range(3), repeat=3)
                         if c[0] != sys_.zero_index and not any(c[:len(r.lhs)] == r.lhs for r in rules)]))
        n = 32
        while len(ds) < n + p.div_params.delta:
            ds = least([ds + [i] for i in range(3)])
        assert [sys_.symbol(i) for i in ds[:5]] == ["1", "-1", "1", "-1", "-1"]
        raw = DigitString((sys_.zero_index,), tuple(ds))
        assert preprocess_divisor(p.preprocess, sys_, raw) == (raw, 0)  # already preprocessed
        inside = [k for k in range(1, len(ds) + 1)
                  if (value(ds[:k]).norm_sq() - RealQuad.from_fraction(d_min.hi ** 2)).sign() < 0]
        assert inside and inside[0] == 40 <= n + p.div_params.delta  # D_40 onwards: inside the enclosure
        one = sys_.index_of_symbol("1")
        res = p.div([one], ds, n)
        assert res.digits == p.div([one], ds, n, check=False).digits
        exact = sys_.beta_pow(-1 - p.div_params.delta) / value(ds)
        c = div_error_constant(sys_, p.div_cert, d_min) * sys_.abs_beta().pow_int(-n)
        _assert_within((eval_digits(sys_, res.digits) - exact).norm_sq(), c)

    def test_random_quotients_exact_bound(self, golden):
        sys_ = golden.sys
        rng = random.Random(123)
        n = 25
        c = div_error_constant(sys_, golden.div_cert, golden.div_params.d_min) * sys_.abs_beta().pow_int(-n)
        runs = 0
        while runs < 8:
            dd = [sys_.index_of_symbol(rng.choice(["1", "-1"]))] + [rng.randrange(3) for _ in range(9)]
            ds_raw = DigitString((sys_.zero_index,), tuple(dd))
            if eval_digits(sys_, ds_raw).is_zero():
                continue
            pre, shift = preprocess_divisor(golden.preprocess, sys_, ds_raw)
            ns = [rng.randrange(3) for _ in range(10)]
            res = golden.div(ns, list(pre.frac_digits), n)
            n_val = eval_digits(sys_, DigitString.make(sys_, [sys_.zero_index], ns)) * sys_.beta_pow(-golden.div_params.delta)
            d_val = eval_digits(sys_, pre)
            _assert_within((eval_digits(sys_, res.digits) - n_val / d_val).norm_sq(), c)
            runs += 1


class TestStaticShift:
    def test_zero_for_every_bundled_division(self):
        for name in PRESET_NAMES:
            p = load_preset(name)
            if p.div_params is not None:
                assert _quotient_guard(p.sys, p.div_cert, p.div_params) == 0

    @settings(max_examples=24, deadline=None)
    @given(name=st.sampled_from(["integer:2:-1:1", "integer:4:-2:2", "integer:5:-3:3", "integer:-4:-2:2"]),
           data=st.data())
    def test_integer_quotients_within_error_constant(self, name, data):
        p = load_preset(name)
        sys_, params, n = p.sys, p.div_params, 20
        digit = st.integers(0, len(sys_.alphabet) - 1)
        lead = data.draw(st.sampled_from([i for i in range(len(sys_.alphabet)) if i != sys_.zero_index]))
        raw = DigitString((sys_.zero_index,), (lead, *data.draw(st.lists(digit, max_size=9))))
        assume(not eval_digits(sys_, raw).is_zero())
        pre, _ = preprocess_divisor(p.preprocess, sys_, raw)
        ns = data.draw(st.lists(digit, max_size=10))
        res = p.div(ns, list(pre.frac_digits), n)
        n_val = eval_digits(sys_, DigitString.make(sys_, [sys_.zero_index], ns))
        n_val = n_val * sys_.beta_pow(-params.delta - res.numerator_shift)
        c = div_error_constant(sys_, p.div_cert, params.d_min) * sys_.abs_beta().pow_int(-n)
        _assert_within((eval_digits(sys_, res.digits) - n_val / eval_digits(sys_, pre)).norm_sq(), c)


class TestTraceAndState:
    def test_trace_rows(self, golden):
        sys_ = golden.sys
        rows = []
        one = sys_.index_of_symbol("1")
        golden.mul([one], [one], 8, trace_fn=rows.append)
        assert len(rows) == 8
        assert rows[0]["k"] == 1 and "digit" in rows[0]

    def test_div_priming_checks_prefixes(self, golden):
        sys_ = golden.sys
        params = golden.div_params
        one = sys_.index_of_symbol("1")
        pulled = []

        def divisor():
            for idx in [one] + [sys_.zero_index] * (params.delta + 5):
                pulled.append(idx)
                yield idx

        # before the first quotient digit the run reads delta divisor digits
        res = golden.div([one], divisor(), 0)
        assert res.digits.frac_digits == () and len(pulled) == params.delta
        # ... checks the first is nonzero and each of their prefixes
        with pytest.raises(DomainError):
            golden.div([one], [sys_.zero_index, one], 0)
        base2 = load_preset("integer:2:-1:1")
        one, neg = base2.sys.index_of_symbol("1"), base2.sys.index_of_symbol("-1")
        with pytest.raises(InvariantViolation, match="D_3"):
            base2.div([one], [one, neg, neg], 0)


@pytest.mark.parametrize("check", [True, False])
@pytest.mark.parametrize("kind", ["mul", "div"])
def test_int_window_bound_enforced(golden, kind, check):
    sys_ = golden.sys
    one = sys_.index_of_symbol("1")
    with pytest.raises(InvariantViolation):
        if kind == "mul":
            mul_run(sys_, golden.cert, golden.mult_params, [one], [one], 8, select_fn=golden.mult_select,
                    exact_fn=golden.mult_exact, check=check, max_int_window=0)
        else:
            div_run(sys_, golden.div_cert, golden.div_params, [one], [one], 8, select_fn=golden.div_select,
                    check=check, max_int_window=0)


class TestStreamingInputs:
    def test_generator_streams(self, golden):
        sys_ = golden.sys
        one = sys_.index_of_symbol("1")

        def xs():
            yield one

        out = golden.mul(xs(), iter([one]), 20)
        assert (eval_digits(sys_, out) - sys_.beta_pow(-10)).is_zero()

    def test_generator_divisor(self, golden):
        sys_ = golden.sys
        one = sys_.index_of_symbol("1")
        res = golden.div(iter([one]), iter([one]), 15)
        assert (eval_digits(sys_, res.digits) - sys_.beta_pow(-6)).is_zero()


class TestNonNegativeAlphabet:
    def test_monitored_random_runs(self):
        preset = load_preset("integer:2:0:2")
        sys_ = preset.sys
        rng = random.Random(31)
        na = len(sys_.alphabet)
        c = (mult_error_constant(sys_, preset.cert) * sys_.abs_beta().pow_int(-25)).lo
        for _ in range(6):
            xs = [rng.randrange(na) for _ in range(20)]
            ys = [rng.randrange(na) for _ in range(20)]
            out = preset.mul(xs, ys, 25, check=True)
            d = preset.mult_params.delta
            xv = eval_digits(sys_, DigitString.make(sys_, [sys_.zero_index], xs)) * sys_.beta_pow(-d)
            yv = eval_digits(sys_, DigitString.make(sys_, [sys_.zero_index], ys)) * sys_.beta_pow(-d)
            err = (eval_digits(sys_, out) - xv * yv).norm_sq()
            assert (err - RealQuad.from_fraction(c * c)).sign() <= 0

    def test_division_refused_before_reading_operands(self):
        preset = load_preset("integer:3:0:3")
        assert preset.div_cert.right_of_zero

        def unread():
            raise AssertionError("operand pulled")
            yield  # pragma: no cover

        with pytest.raises(DomainError, match="no growth phase"):
            preset.div(unread(), unread(), 5)

    def test_growth_phase_belongs_to_the_certificate(self):
        # every preset shares the one exact selector; the growth phase is
        # decided by the certificate, not by a preset-specific selector
        nonneg, signed = load_preset("integer:3:0:3"), load_preset("golden-square")
        assert nonneg.mult_exact is signed.mult_exact
        assert nonneg.cert.right_of_zero and not signed.cert.right_of_zero
        with pytest.raises(ValueError):
            replace(nonneg, mult_exact=lambda sys_, cert, v: sys_.zero_index)


def _operands(preset, rng, n):
    """Seeded multiplication operands and a preprocessed divisor for n steps."""
    sys_ = preset.sys
    na, zero = len(sys_.alphabet), sys_.zero_index
    m = n - preset.mult_params.delta
    xs, ys = ([rng.randrange(na) for _ in range(m)] for _ in range(2))
    raw = [rng.choice([i for i in range(na) if i != zero])] + [rng.randrange(na) for _ in range(n - 1)]
    den, _ = preprocess_divisor(preset.preprocess, sys_, DigitString((zero,), tuple(raw)))
    return xs, ys, [rng.randrange(na) for _ in range(n)], list(den.frac_digits)


@pytest.mark.parametrize("name", ["golden-square", "knuth", "eisenstein"])
def test_runs_leave_no_powers_on_the_system(name):
    # the run carries beta^-k, beta^k and the divisor's power itself; the
    # system keeps only the powers it starts with (beta^0, beta, 1/beta)
    preset = load_preset.__wrapped__(name)
    xs, ys, ns, ds = _operands(preset, random.Random(19), 160)
    preset.mul(xs, ys, 160)
    preset.div(ns, ds, 160)
    assert len(preset.sys._pow_cache) <= 3


class TestMonitorCatchesWrongDigit:
    """A windowed selector that returns another digit at one step, one whose
    I + a still holds the value (so the remainder stays inside I), is caught
    by the windowed-vs-exact check on a generic preset."""

    @staticmethod
    def _wrong_once(select, other_of):
        fired = []

        def wrong(sys_, cert, *windows):
            digit = select(sys_, cert, *windows)
            other = None if fired else other_of(sys_, cert, digit, *windows)
            if other is None:
                return digit
            fired.append(other)
            return other
        return wrong, fired

    @staticmethod
    def _other_admissible(sys_, cert, digit, z):
        return next((i for i in range(len(sys_.alphabet))
                     if i != digit and region_contains(cert.region, z - sys_.digit(i))), None)

    def test_mul(self, knuth):
        xs, ys, _, _ = _operands(knuth, random.Random(5), 40)
        wrong, fired = self._wrong_once(
            knuth.mult_select, lambda s, c, digit, w: self._other_admissible(s, c, digit, w.value))
        with pytest.raises(InvariantViolation, match="differs from exact selection"):
            replace(knuth, mult_select=wrong).mul(xs, ys, 40)
        assert len(fired) == 1

    def test_div(self, knuth):
        _, _, ns, ds = _operands(knuth, random.Random(6), 40)
        wrong, fired = self._wrong_once(
            knuth.div_select,
            lambda s, c, digit, w, d: self._other_admissible(s, c, digit, w.value / d.value))
        with pytest.raises(InvariantViolation, match="differs from exact selection"):
            replace(knuth, div_select=wrong).div(ns, ds, 40)
        assert len(fired) == 1


def test_negative_digit_count_refused_before_reading(knuth):
    pulled = []

    def source():
        while True:
            pulled.append(1)
            yield knuth.sys.zero_index
    with pytest.raises(DomainError, match="digit count must be non-negative"):
        knuth.mul(source(), source(), -1)
    assert pulled == []


class TestDivisorWindow:
    """The divisor window kept on the run state is, at every step, the window
    truncate builds from the divisor digits read so far (D_(k+delta))."""

    @staticmethod
    def _rows_match_truncate(preset, ns, ds, n):
        sys_, delta, L = preset.sys, preset.div_params.delta, preset.div_params.window_l
        rows = []
        preset.div(ns, ds, n, trace_fn=rows.append)
        for row in rows:
            read = DigitString((sys_.zero_index,), tuple(ds[:row["k"] + delta]))
            assert row["d_window"] == truncate(sys_, read, L)
        return rows

    @pytest.mark.parametrize("name", ["knuth", "golden-square"])
    def test_matches_truncate(self, name):
        preset = load_preset(name)
        _, _, ns, ds = _operands(preset, random.Random(7), 40)
        self._rows_match_truncate(preset, ns, ds, 40)

    def test_tail_flip(self, golden):
        # digits L+1..L+5 (10..14) are zero and digit 15 is not: the window's
        # digits stop changing at D_9, its tail bound leaves 0 at D_15 (step 9)
        sys_, rng = golden.sys, random.Random(8)
        one, zero = sys_.index_of_symbol("1"), sys_.zero_index
        ds = [one] + [rng.randrange(3) for _ in range(8)] + [zero] * 5 + [one] + [rng.randrange(3) for _ in range(30)]
        rows = self._rows_match_truncate(golden, [rng.randrange(3) for _ in range(40)], ds, 40)
        assert [row["d_window"].tail_bound.hi > 0 for row in rows[6:9]] == [False, False, True]


def _count_eval_digits(monkeypatch):
    """Wrap eval_digits in every olnum module that holds it, where a run looks
    it up; returns a one-element list holding the call count."""
    calls = [0]
    original = numeration.eval_digits

    def counted(*args):
        calls[0] += 1
        return original(*args)
    for name, module in list(sys.modules.items()):
        if name.startswith("olnum") and getattr(module, "eval_digits", None) is original:
            monkeypatch.setattr(module, "eval_digits", counted)
    return calls


@pytest.mark.parametrize("check, bound", [(False, 0), (True, 1)])
@pytest.mark.parametrize("kind", ["mul", "div"])
def test_windows_are_decoded_only_by_the_monitor(knuth, monkeypatch, kind, check, bound):
    # selection reads each window's value; with monitoring on, one decode per
    # step checks the W window's digits against it (step 1 also counts the
    # divisor digits read before it)
    xs, ys, ns, ds = _operands(knuth, random.Random(8), 40)
    calls = _count_eval_digits(monkeypatch)
    per_step = []

    def trace(row):
        per_step.append(calls[0] - sum(per_step))
    if kind == "mul":
        knuth.mul(xs, ys, 40, check=check, trace_fn=trace)
    else:
        knuth.div(ns, ds, 40, check=check, trace_fn=trace)
    assert len(per_step) == 40 and max(per_step) <= bound


@pytest.mark.parametrize("kind", ["mul", "div"])
def test_monitor_catches_window_digits_off_their_value(knuth, monkeypatch, kind):
    # the encoder's 20th window gets another first fractional digit but keeps
    # its value: selection (on the value) is unchanged, the monitor's decode is not
    xs, ys, ns, ds = _operands(knuth, random.Random(9), 40)
    run = (lambda **kw: knuth.mul(xs, ys, 40, **kw)) if kind == "mul" else (lambda **kw: knuth.div(ns, ds, 40, **kw))
    clean = run(check=False)
    encode = online_mul.window_encode

    def tampered():
        calls = []

        def fn(sys_, cert, value, L):
            w = encode(sys_, cert, value, L)
            calls.append(1)
            if len(calls) != 20:
                return w
            frac = list(w.digits.frac_digits)
            frac[0] = (frac[0] + 1) % len(sys_.alphabet)
            return replace(w, digits=DigitString(w.digits.int_digits, tuple(frac)))
        return fn
    monkeypatch.setattr(online_mul, "window_encode", tampered())
    assert run(check=False) == clean
    monkeypatch.setattr(online_mul, "window_encode", tampered())
    with pytest.raises(InvariantViolation, match="step 20: window digits disagree"):
        run()


@pytest.mark.parametrize("kind", ["mul", "div"])
@pytest.mark.parametrize("name", ["golden-square", "knuth", "eisenstein"])
def test_monitor_catches_one_wrong_kernel_product(monkeypatch, name, kind):
    # the beta map of the recurrence is off by 2^-60 once, at step 20: too
    # little to move the window, but the recurrence identity, checked on
    # ComplexQuads, no longer holds
    preset = load_preset(name)
    xs, ys, ns, ds = _operands(preset, random.Random(10), 40)
    module = online_mul if kind == "mul" else online_div
    beta = compiled_selector(preset.cert if kind == "mul" else preset.div_cert, preset.sys).beta
    original, calls = module.point_mul, []

    def wrong(c, p, d):
        r = original(c, p, d)
        if c is beta:
            calls.append(1)
            if len(calls) == 20:
                s = 1 << 60
                return (r[0] * s + r[4], r[1] * s, r[2] * s, r[3] * s, r[4] * s)
        return r
    monkeypatch.setattr(module, "point_mul", wrong)
    with pytest.raises(InvariantViolation, match="step 20: recurrence disagrees"):
        preset.mul(xs, ys, 40) if kind == "mul" else preset.div(ns, ds, 40)


def test_unmonitored_runs_build_few_realquads(monkeypatch):
    # a seed-1 cycle (one product and one quotient per showcase preset,
    # n = 160) with check=False, after a warm-up: window_encode builds no
    # RealQuad, and the whole run at most 40 per digit
    n, rng = 160, random.Random(1)
    runs = [(p, _operands(p, rng, n)) for p in map(load_preset, ("golden-square", "knuth", "eisenstein"))]

    def cycle():
        for p, (xs, ys, ns, ds) in runs:
            p.mul(xs, ys, n, check=False)
            p.div(ns, ds, n, check=False)
    cycle()
    counts, encoding = {"run": 0, "encode": 0}, []
    init, encode = RealQuad.__init__, online_mul.window_encode

    def counted_init(self, *args, **kwargs):
        counts["run"] += 1
        counts["encode"] += bool(encoding)
        init(self, *args, **kwargs)

    def marked_encode(*args):
        encoding.append(1)
        try:
            return encode(*args)
        finally:
            encoding.pop()
    monkeypatch.setattr(RealQuad, "__init__", counted_init)
    monkeypatch.setattr(online_mul, "window_encode", marked_encode)
    cycle()
    monkeypatch.undo()
    assert counts["encode"] == 0
    assert counts["run"] <= 40 * 2 * len(runs) * n
