"""Digit streams pinned by digest: seeded multiplications and divisions on the
three showcase presets must emit exactly the same digits after any change
that is meant to preserve behaviour."""

import hashlib
import random

from olnum.numeration import DigitString, eval_digits
from olnum.preprocess import preprocess_divisor
from olnum.presets import load_preset

N = 40
PRESETS = ("golden-square", "knuth", "eisenstein")
STREAMS_SHA256 = "22236cae0a73ed0adc9844e66f12915e2894ac39afa30bbd86e0202ee8a7f364"


def _digits(rng: random.Random, sys_, length: int) -> list[int]:
    return [rng.randrange(len(sys_.alphabet)) for _ in range(length)]


def _divisor(rng: random.Random, sys_) -> list[int]:
    """Raw divisor with a nonzero first digit and a nonzero value."""
    nonzero = [i for i in range(len(sys_.alphabet)) if i != sys_.zero_index]
    while True:
        digits = [rng.choice(nonzero)] + _digits(rng, sys_, N - 1)
        if not eval_digits(sys_, DigitString((sys_.zero_index,), tuple(digits))).is_zero():
            return digits


def _streams() -> str:
    rng = random.Random(2024)
    lines = []
    for name in PRESETS:
        p = load_preset(name)
        sys_ = p.sys
        m = N - p.mult_params.delta
        prod = p.mul(_digits(rng, sys_, m), _digits(rng, sys_, m), N, check=False)
        lines.append(f"{name}|mul|{' '.join(sys_.symbol(i) for i in prod.frac_digits)}")
        num = _digits(rng, sys_, N)
        raw = DigitString((sys_.zero_index,), tuple(_divisor(rng, sys_)))
        den, shift = preprocess_divisor(p.preprocess, sys_, raw)
        quo = p.div(num, list(den.frac_digits), N, check=False)
        digits = " ".join(sys_.symbol(i) for i in quo.digits.frac_digits)
        lines.append(f"{name}|div|{shift}|{quo.numerator_shift}|{digits}")
    return "\n".join(lines) + "\n"


def test_digit_streams_unchanged():
    assert hashlib.sha256(_streams().encode()).hexdigest() == STREAMS_SHA256


NONNEG_N = 30
NONNEG_PRESETS = ("integer:2:0:2", "integer:3:0:3")
NONNEG_SHA256 = "b3ddd54ea86329d48d88e76e43bb3e88ad34be94d1535bd637e358d3498404c2"


def _nonneg_mul_streams() -> str:
    """Seeded products on non-negative alphabets, whose first digits come
    from the growth phase (W still below beta*I), with the monitor on and off."""
    lines = []
    for name in NONNEG_PRESETS:
        p = load_preset(name)
        sys_ = p.sys
        m = NONNEG_N - p.mult_params.delta
        for check in (True, False):
            rng = random.Random(7)
            for _ in range(6):
                prod = p.mul(_digits(rng, sys_, m), _digits(rng, sys_, m), NONNEG_N, check=check)
                lines.append(f"{name}|{check}|{' '.join(sys_.symbol(i) for i in prod.frac_digits)}")
    return "\n".join(lines) + "\n"


def test_nonneg_mul_streams_unchanged():
    assert hashlib.sha256(_nonneg_mul_streams().encode()).hexdigest() == NONNEG_SHA256
