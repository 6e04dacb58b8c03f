import random

import pytest

from olnum.errors import DomainError
from olnum.field import ComplexQuad, RealQuad
from olnum.numeration import DigitString, eval_digits
from olnum.online_div import DivState, div_error_constant, div_run, make_generic_div_select
from olnum.online_mul import InvariantViolation, MulState, mul_run, mul_step, mult_error_constant
from olnum.preprocess import preprocess_divisor
from olnum.presets import load_preset


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


class TestMulStep:
    def test_first_step_zero(self, golden):
        state = MulState(golden.sys, golden.cert, golden.mult_params,
                         select_fn=golden.mult_select, exact_fn=golden.mult_exact)
        _, p = mul_step(state, golden.sys.zero_index, golden.sys.zero_index)
        assert p == golden.sys.zero_index
        assert state.w.is_zero()

    def test_zero_inputs_scale_w(self, golden):
        sys_ = golden.sys
        state = MulState(sys_, golden.cert, golden.mult_params,
                         select_fn=golden.mult_select, exact_fn=golden.mult_exact)
        one = sys_.index_of_symbol("1")
        for k in range(1, 6):
            x = one if k == 5 else sys_.zero_index
            mul_step(state, x, x)
        w_before = state.w
        p_before = state.p_prev
        if p_before == sys_.zero_index and not w_before.is_zero():
            mul_step(state, sys_.zero_index, sys_.zero_index)
            assert (state.w - w_before * sys_.base).is_zero()

    def test_identity_at_step_five(self, golden):
        sys_ = golden.sys
        one = sys_.index_of_symbol("1")
        state = MulState(sys_, golden.cert, golden.mult_params,
                         select_fn=golden.mult_select, exact_fn=golden.mult_exact)
        for k in range(1, 6):
            x = one if k == 5 else sys_.zero_index
            mul_step(state, x, x)
        expected = sys_.beta_pow(5) * (state.x_partial * state.y_partial - (state.p_partial - sys_.digit(state.p_prev) * sys_.beta_pow(-5)))
        assert (state.w - expected).is_zero()


class TestMulRun:
    def test_zeros(self, golden):
        sys_ = golden.sys
        out = mul_run(sys_, golden.cert, golden.mult_params, [], [], 10,
                      select_fn=golden.mult_select, exact_fn=golden.mult_exact)
        assert all(i == sys_.zero_index for i in out.frac_digits)

    def test_golden_square_product(self, golden):
        sys_ = golden.sys
        one = sys_.index_of_symbol("1")
        out = mul_run(sys_, golden.cert, golden.mult_params, [one], [one], 20,
                      select_fn=golden.mult_select, exact_fn=golden.mult_exact)
        product = eval_digits(sys_, out)
        exact = sys_.beta_pow(-10)
        c = mult_error_constant(sys_, golden.cert) * sys_.abs_beta().pow_int(-20)
        _assert_within((product - exact).norm_sq(), c)

    def test_knuth_square(self, knuth):
        sys_ = knuth.sys
        two = sys_.index_of_symbol("2")
        out = mul_run(sys_, knuth.cert, knuth.mult_params, [two], [two], 24)
        product = eval_digits(sys_, out)
        exact = (sys_.digit(two) * sys_.beta_pow(-10)) ** 2  # real 2^-18
        assert exact == ComplexQuad(RealQuad(1, 0, 2**18))
        c = mult_error_constant(sys_, knuth.cert) * sys_.abs_beta().pow_int(-24)
        _assert_within((product - exact).norm_sq(), c)

    def test_eisenstein_square(self, eisenstein):
        sys_ = eisenstein.sys
        one = sys_.index_of_symbol("1")
        out = mul_run(sys_, eisenstein.cert, eisenstein.mult_params, [one], [one], 20)
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
            out = mul_run(sys_, golden.cert, golden.mult_params, xs, ys, n,
                          select_fn=golden.mult_select, exact_fn=golden.mult_exact)
            delta = golden.mult_params.delta
            x_val = eval_digits(sys_, DigitString.make(sys_, [sys_.zero_index], xs)) * sys_.beta_pow(-delta)
            y_val = eval_digits(sys_, DigitString.make(sys_, [sys_.zero_index], ys)) * sys_.beta_pow(-delta)
            _assert_within((eval_digits(sys_, out) - x_val * y_val).norm_sq(), c)

    def test_wrong_mode(self, golden):
        with pytest.raises(DomainError):
            mul_run(golden.sys, golden.cert, golden.div_params, [], [], 5)


class TestDivRun:
    def test_zero_numerator(self, golden):
        sys_ = golden.sys
        one = sys_.index_of_symbol("1")
        res = div_run(sys_, golden.div_cert, golden.div_params, [], [one], 12,
                      select_fn=golden.div_select)
        assert all(i == sys_.zero_index for i in res.digits.frac_digits)
        assert res.numerator_shift == 0

    def test_golden_quotient(self, golden):
        sys_ = golden.sys
        one = sys_.index_of_symbol("1")
        res = div_run(sys_, golden.div_cert, golden.div_params, [one], [one], 20,
                      select_fn=golden.div_select)
        q = eval_digits(sys_, res.digits)
        exact = sys_.beta_pow(-6)
        c = div_error_constant(sys_, golden.div_cert, golden.div_params.d_min) * sys_.abs_beta().pow_int(-20)
        _assert_within((q - exact).norm_sq(), c)

    def test_eisenstein_quotient(self, eisenstein):
        sys_ = eisenstein.sys
        w = sys_.index_of_symbol("w")
        one = sys_.index_of_symbol("1")
        res = div_run(sys_, eisenstein.div_cert, eisenstein.div_params, [w], [one], 18)
        q = eval_digits(sys_, res.digits)
        exact = sys_.digit(w) * sys_.beta_pow(-10)
        c = div_error_constant(sys_, eisenstein.div_cert, eisenstein.div_params.d_min) * sys_.abs_beta().pow_int(-18)
        _assert_within((q - exact).norm_sq(), c)

    def test_unpreprocessed_divisor_rejected(self, golden):
        sys_ = golden.sys
        one = sys_.index_of_symbol("1")
        with pytest.raises(DomainError):
            div_run(sys_, golden.div_cert, golden.div_params, [one], [sys_.zero_index, one], 10)

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
            res = div_run(sys_, golden.div_cert, golden.div_params, ns, list(pre.frac_digits), n,
                          select_fn=golden.div_select)
            n_val = eval_digits(sys_, DigitString.make(sys_, [sys_.zero_index], ns)) * sys_.beta_pow(-golden.div_params.delta)
            d_val = eval_digits(sys_, pre)
            _assert_within((eval_digits(sys_, res.digits) - n_val / d_val).norm_sq(), c)
            runs += 1


class TestTraceAndState:
    def test_trace_rows(self, golden):
        sys_ = golden.sys
        rows = []
        one = sys_.index_of_symbol("1")
        mul_run(sys_, golden.cert, golden.mult_params, [one], [one], 8,
                select_fn=golden.mult_select, exact_fn=golden.mult_exact, trace_fn=rows.append)
        assert len(rows) == 8
        assert rows[0]["k"] == 1 and "digit" in rows[0]

    def test_div_priming_checks_prefixes(self, golden):
        sys_ = golden.sys
        state = DivState(golden.sys, golden.div_cert, golden.div_params,
                         make_generic_div_select(golden.div_params.alpha, golden.div_params.d_min))
        one = sys_.index_of_symbol("1")
        state.prime([one])
        assert len(state.d_digits) == golden.div_params.delta


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

        out = mul_run(sys_, golden.cert, golden.mult_params, xs(), iter([one]), 20,
                      select_fn=golden.mult_select, exact_fn=golden.mult_exact)
        assert (eval_digits(sys_, out) - sys_.beta_pow(-10)).is_zero()

    def test_generator_divisor(self, golden):
        sys_ = golden.sys
        one = sys_.index_of_symbol("1")
        res = div_run(sys_, golden.div_cert, golden.div_params, iter([one]), iter([one]), 15,
                      select_fn=golden.div_select)
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
            out = mul_run(sys_, preset.cert, preset.mult_params, xs, ys, 25,
                          select_fn=preset.mult_select, exact_fn=preset.mult_exact, check=True)
            d = preset.mult_params.delta
            xv = eval_digits(sys_, DigitString.make(sys_, [sys_.zero_index], xs)) * sys_.beta_pow(-d)
            yv = eval_digits(sys_, DigitString.make(sys_, [sys_.zero_index], ys)) * sys_.beta_pow(-d)
            err = (eval_digits(sys_, out) - xv * yv).norm_sq()
            assert (err - RealQuad.from_fraction(c * c)).sign() <= 0
