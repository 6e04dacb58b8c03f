"""The on-line contract of the run API: by the time output digit k is
emitted, a multiplication has pulled at most k - delta digits of each
operand and a division at most k numerator and k + delta divisor digits.
Operands are lazy iterators that count their pulls; every trace row checks
the counts."""

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from olnum.numeration import DigitString, eval_digits
from olnum.preprocess import preprocess_divisor
from olnum.presets import load_preset

N = 30
PRESETS = ("golden-square", "knuth", "eisenstein")
SETTINGS = settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])


class Counting:
    """Iterator over a digit list that records how many digits were pulled."""

    def __init__(self, digits):
        self.digits = list(digits)
        self.pulled = 0

    def __iter__(self):
        return self

    def __next__(self):
        if self.pulled == len(self.digits):
            raise StopIteration
        self.pulled += 1
        return self.digits[self.pulled - 1]


def _digits(data, sys_, length):
    return data.draw(st.lists(st.integers(0, len(sys_.alphabet) - 1), min_size=length, max_size=length))


@SETTINGS
@given(name=st.sampled_from(PRESETS), check=st.booleans(), data=st.data())
def test_mul_pulls_at_most_k_minus_delta(name, check, data):
    p = load_preset(name)
    sys_, delta = p.sys, p.mult_params.delta
    xs, ys = Counting(_digits(data, sys_, N)), Counting(_digits(data, sys_, N))
    rows = []

    def row(r):
        rows.append(r["k"])
        assert xs.pulled <= max(r["k"] - delta, 0) and ys.pulled <= max(r["k"] - delta, 0)

    p.mul(xs, ys, N, check=check, trace_fn=row)
    assert rows == list(range(1, N + 1))
    assert xs.pulled == ys.pulled == N - delta


@SETTINGS
@given(name=st.sampled_from(PRESETS), check=st.booleans(), data=st.data())
def test_div_pulls_at_most_k_and_k_plus_delta(name, check, data):
    p = load_preset(name)
    sys_, delta = p.sys, p.div_params.delta
    nonzero = [i for i in range(len(sys_.alphabet)) if i != sys_.zero_index]
    raw = DigitString((sys_.zero_index,), (data.draw(st.sampled_from(nonzero)), *_digits(data, sys_, N - 1)))
    assume(not eval_digits(sys_, raw).is_zero())
    pre, _ = preprocess_divisor(p.preprocess, sys_, raw)
    ns, ds = Counting(_digits(data, sys_, N)), Counting(pre.frac_digits + (sys_.zero_index,) * (N + delta))
    rows = []

    def row(r):
        rows.append(r["k"])
        assert ns.pulled <= r["k"] and ds.pulled <= r["k"] + delta

    p.div(ns, ds, N, check=check, trace_fn=row)
    assert rows == list(range(1, N + 1))
    assert ds.pulled == N + delta
