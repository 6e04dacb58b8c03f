"""Operations of the benchmark: seeded operand generation, timed execution
of one on-line multiplication or division (through the library API or
through the ``olnum`` CLI entry point) and the exact output oracle.

Entry points are always looked up as module attributes at call time
(``online_mul.mul_run``, ``cli.main``, ...), so that the traced run can
rebind them without this module knowing about tracing.
"""

from __future__ import annotations

import contextlib
import io
import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from olnum import cli, online_div, online_mul, preprocess, presets
from olnum.errors import OlnumError
from olnum.field import RealQuad
from olnum.numeration import DigitString, eval_digits, format_digits, parse_digits

PRESETS = ("golden-square", "knuth", "eisenstein")
OPS_PER_CYCLE = 2 * len(PRESETS)
# bound now, before any probe rebinds presets.load_preset
clear_preset_cache = presets.load_preset.cache_clear


@dataclass
class Op:
    """One multiplication or division on one preset, with its operands as
    digit-index lists (operands are fractional: integer part zero)."""

    label: str
    preset: str
    kind: str  # "mul" or "div"
    a: list[int]
    b: list[int]
    files: tuple[str, str] | None = None


@dataclass
class Outcome:
    """What one execution of an Op produced and when."""

    ok: bool
    error: str = ""
    start: float = 0.0
    end: float = 0.0
    stamps: list[float] = field(default_factory=list)
    digits: tuple[int, ...] = ()
    numerator_shift: int = 0
    divisor_shift: int = 0

    @property
    def call_s(self) -> float:
        return self.end - self.start

    def gaps_s(self) -> list[float]:
        """Wall time between consecutive emitted digits, digit 1 timed from
        the start of the call."""
        prev = self.start
        out = []
        for t in self.stamps:
            out.append(t - prev)
            prev = t
        return out


def _random_digits(rng: random.Random, n_symbols: int, length: int) -> list[int]:
    return [rng.randrange(n_symbols) for _ in range(length)]


def _random_divisor(rng: random.Random, preset, length: int) -> list[int]:
    """Raw divisor: nonzero first digit and nonzero value (preprocessing is
    part of every division op)."""
    sys_ = preset.sys
    nonzero = [i for i in range(len(sys_.alphabet)) if i != sys_.zero_index]
    while True:
        digits = [rng.choice(nonzero)] + _random_digits(rng, len(sys_.alphabet), length - 1)
        if not eval_digits(sys_, DigitString((sys_.zero_index,), tuple(digits))).is_zero():
            return digits


def make_cycle(rng: random.Random, loaded: dict, n: int, c: int) -> list[Op]:
    """Cycle c: one multiplication and one division per preset, with fresh
    operands.  Multiplication operands have n - delta digits and numerators
    n digits, so a run of n steps consumes them whole; raw divisors have n
    digits."""
    ops = []
    for name in PRESETS:
        p = loaded[name]
        na = len(p.sys.alphabet)
        m = n - p.mult_params.delta
        ops.append(Op(f"c{c}-{name}-mul", name, "mul", _random_digits(rng, na, m), _random_digits(rng, na, m)))
        ops.append(Op(f"c{c}-{name}-div", name, "div", _random_digits(rng, na, n), _random_divisor(rng, p, n)))
    return ops


def write_operand_files(ops: list[Op], loaded: dict, directory: Path) -> None:
    """Write each op's operands as CLI digit streams ("0 . d1 d2 ...")."""
    for op in ops:
        sys_ = loaded[op.preset].sys
        paths = []
        for tag, digits in (("a", op.a), ("b", op.b)):
            path = directory / f"{op.label}-{tag}.txt"
            path.write_text(format_digits(sys_, DigitString((sys_.zero_index,), tuple(digits))) + "\n", encoding="utf-8")
            paths.append(str(path))
        op.files = (paths[0], paths[1])


def run_api(op: Op, preset, n: int, check: bool) -> Outcome:
    """One op through the library API with the criterion-3 configuration:
    the preset's selectors and integer-window bound; divisions include
    divisor preprocessing."""
    stamps: list[float] = []

    def stamp(_row: dict) -> None:
        stamps.append(perf_counter())

    sys_ = preset.sys
    out = Outcome(ok=False, stamps=stamps)
    out.start = perf_counter()
    try:
        if op.kind == "mul":
            res = online_mul.mul_run(
                sys_, preset.cert, preset.mult_params, op.a, op.b, n,
                select_fn=preset.mult_select, exact_fn=preset.mult_exact,
                check=check, max_int_window=preset.max_int_mult(), trace_fn=stamp,
            )
            out.end = perf_counter()
            out.digits = res.frac_digits
        else:
            raw = DigitString((sys_.zero_index,), tuple(op.b))
            pre, dshift = preprocess.preprocess_divisor(preset.preprocess, sys_, raw)
            select = preset.div_select or online_div.make_generic_div_select(
                preset.div_params.alpha, preset.div_params.d_min)
            res = online_div.div_run(
                sys_, preset.div_cert, preset.div_params, op.a, list(pre.frac_digits), n,
                select_fn=select, check=check, max_int_window=preset.max_int_div(), trace_fn=stamp,
            )
            out.end = perf_counter()
            out.digits = res.digits.frac_digits
            out.numerator_shift = res.numerator_shift
            out.divisor_shift = dshift
    except Exception as exc:  # an op that raises is a failed op, not a failed run
        out.end = perf_counter()
        out.error = f"{type(exc).__name__}: {exc}"
        return out
    out.ok = True
    return out


class _StampedStream(io.TextIOBase):
    """Text sink that records the time of every write."""

    def __init__(self) -> None:
        self.chunks: list[tuple[float, str]] = []

    def writable(self) -> bool:
        return True

    def write(self, s: str) -> int:
        self.chunks.append((perf_counter(), s))
        return len(s)

    def text(self) -> str:
        return "".join(s for _, s in self.chunks)


_TRACE_ROW = re.compile(r"^\d+,")
_SHIFT = re.compile(r"^(numerator|divisor)-shift (-?\d+)$", re.M)


def run_cli(op: Op, preset, n: int) -> Outcome:
    """One cold in-process ``olnum`` call: the preset cache is cleared first,
    so the call pays preset construction as a fresh process does.  The
    per-step CSV trace goes to stderr; the time of each row write is the
    time its digit became visible."""
    stdout, stderr = _StampedStream(), _StampedStream()
    clear_preset_cache()
    out = Outcome(ok=False)
    out.start = perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main([op.kind, "--preset", op.preset, "--digits", str(n), "--trace", "-", *op.files])
    except Exception as exc:
        out.end = perf_counter()
        out.error = f"{type(exc).__name__}: {exc}"
        return out
    out.end = perf_counter()
    err_text = stderr.text()
    if code != 0:
        out.error = f"exit {code}: {err_text.strip()[-200:]}"
        return out
    out.stamps = [t for t, s in stderr.chunks if _TRACE_ROW.match(s)]
    try:
        out.digits = parse_digits(preset.sys, stdout.text()).frac_digits
    except OlnumError as exc:
        out.error = f"unparsable output: {exc}"
        return out
    shifts = {kind: int(v) for kind, v in _SHIFT.findall(err_text)}
    out.numerator_shift = shifts.get("numerator", 0)
    out.divisor_shift = shifts.get("divisor", 0)
    out.ok = True
    return out


def _within(diff_sq: RealQuad, bound) -> bool:
    return (diff_sq - RealQuad.from_fraction(bound * bound)).sign() <= 0


def verify(op: Op, out: Outcome, preset, n: int) -> str:
    """Exact oracle: |X*Y - P_n| <= C |beta|^-n for products and
    |N/D - Q_n| <= C |beta|^-n for quotients, over the operand digits the run
    consumed, with C from mult_error_constant / div_error_constant.  Returns
    an empty string when the output is correct, else the reason."""
    sys_ = preset.sys
    zero = sys_.zero_index
    if len(out.digits) != n:
        return f"{len(out.digits)} digits emitted, expected {n}"
    if len(out.stamps) != n:
        return f"{len(out.stamps)} digit timestamps, expected {n}"
    value = eval_digits(sys_, DigitString((zero,), tuple(out.digits)))
    if op.kind == "mul":
        delta = preset.mult_params.delta
        c = (online_mul.mult_error_constant(sys_, preset.cert) * sys_.abs_beta().pow_int(-n)).lo
        scale = sys_.beta_pow(-delta)
        x = eval_digits(sys_, DigitString((zero,), tuple(op.a[: n - delta]))) * scale
        y = eval_digits(sys_, DigitString((zero,), tuple(op.b[: n - delta]))) * scale
        exact = x * y
    else:
        # the oracle preprocesses the divisor itself, after any tracing
        pre, dshift = preprocess.preprocess_divisor(preset.preprocess, sys_, DigitString((zero,), tuple(op.b)))
        if dshift != out.divisor_shift:
            return f"divisor shift {out.divisor_shift}, expected {dshift}"
        params = preset.div_params
        shift = out.numerator_shift
        c = (online_div.div_error_constant(sys_, preset.div_cert, params.d_min)
             * sys_.abs_beta().pow_int(-n)).lo
        num = eval_digits(sys_, DigitString((zero,), tuple(op.a[: max(n - shift, 0)])))
        num = num * sys_.beta_pow(-params.delta - shift)
        den = eval_digits(sys_, DigitString((zero,), tuple(pre.frac_digits[: n + params.delta])))
        exact = num / den
    if not _within((value - exact).norm_sq(), c):
        return "result outside the certified error bound"
    return ""


def stream_record(op: Op, out: Outcome, symbols) -> bytes:
    """Canonical bytes of one op's emitted digit stream, for the digest."""
    digits = " ".join(symbols[i] for i in out.digits)
    return f"{op.label}|{op.kind}|{out.numerator_shift}|{digits}\n".encode()
