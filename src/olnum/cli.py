"""Command-line front end: digit streams in, digit streams out.

Exit codes: 0 success, 1 parse error, 2 domain error, 3 certificate
verification failure.  Streams are whitespace-separated digit tokens with a
single "." point token, read from files or stdin ("-").
"""

from __future__ import annotations

import argparse
import json
import re
import sys as _sysmod
from fractions import Fraction

from .errors import CertificateError, DomainError, OlnumError, ParseError
from .field import ComplexQuad, RealQuad
from .numeration import (
    NumerationSystem,
    encode_value,
    eval_digits,
    format_digits,
    parse_digits,
)
from .params import div_params, eisenstein_params, mult_params
from .preprocess import preprocess_divisor
from .presets import PRESET_NAMES, Preset, derived_preset, load_preset, unruled_spec
from .region import (
    OLCertificate,
    complex_parallelogram_certificate,
    fattened_domain,
    real_interval_certificate,
    verify_certificate,
)
from .select import synthesize_table


def _read_text(path: str) -> str:
    if path == "-":
        return _sysmod.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_json(path: str):
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _default_cert(sys: NumerationSystem) -> OLCertificate:
    if sys.is_real:
        return real_interval_certificate(sys)
    return complex_parallelogram_certificate(sys)


def _custom_preset(sys: NumerationSystem, cert: OLCertificate | None) -> Preset:
    if cert is None:
        cert = _default_cert(sys)
    result = verify_certificate(sys, cert)
    if not result.passed:
        raise CertificateError(f"certificate failed verification: {result.reason}")
    return derived_preset("custom", sys, cert, unruled_spec(sys))


def _context(args) -> Preset:
    if getattr(args, "system", None):
        sys_obj = NumerationSystem.from_dict(_load_json(args.system))
        cert = None
        if getattr(args, "cert", None):
            cert = OLCertificate.from_dict(_load_json(args.cert))
        return _custom_preset(sys_obj, cert)
    name = getattr(args, "preset", None) or "golden-square"
    return load_preset(name)


def _trace_writer(path: str | None, sys_: NumerationSystem):
    if not path:
        return None, None
    fh = _sysmod.stderr if path == "-" else open(path, "w", encoding="utf-8")
    fh.write("k,digit,w,window,d_window\n")

    def write(row: dict) -> None:
        def toks(key):
            win = row.get(key)
            return format_digits(sys_, win.digits).replace(" ", "") if win is not None else ""
        fh.write(f"{row['k']},{row['digit']},{row['w']},{toks('window')},{toks('d_window')}\n")

    def close() -> None:
        if fh is not _sysmod.stderr:
            fh.close()

    return write, close


def cmd_mul(args) -> int:
    preset = _context(args)
    sys_ = preset.sys
    xs = parse_digits(sys_, _read_text(args.x))
    ys = parse_digits(sys_, _read_text(args.y))
    if any(i != sys_.zero_index for i in xs.int_digits) or any(i != sys_.zero_index for i in ys.int_digits):
        raise DomainError("operands must be fractional (integer part zero)")
    trace, close = _trace_writer(args.trace, sys_)
    try:
        out = preset.mul(list(xs.frac_digits), list(ys.frac_digits), args.digits,
                         check=not args.no_check, trace_fn=trace)
    finally:
        if close:
            close()
    print(format_digits(sys_, out))
    return 0


def cmd_div(args) -> int:
    preset = _context(args)
    sys_ = preset.sys
    ns = parse_digits(sys_, _read_text(args.n))
    ds = parse_digits(sys_, _read_text(args.d))
    shift = 0
    if not args.no_preprocess:
        if preset.preprocess is None:
            raise DomainError("no preprocessing rules available")
        ds, shift = preprocess_divisor(preset.preprocess, sys_, ds)
    if any(i != sys_.zero_index for i in ns.int_digits) or any(i != sys_.zero_index for i in ds.int_digits):
        raise DomainError("operands must be fractional (integer part zero)")
    # the engine reads the divisor on-line; a zero value is only visible whole
    if eval_digits(sys_, ds).is_zero():
        raise DomainError("divisor evaluates to zero")
    trace, close = _trace_writer(args.trace, sys_)
    try:
        result = preset.div(list(ns.frac_digits), list(ds.frac_digits), args.digits,
                            check=not args.no_check, trace_fn=trace)
    finally:
        if close:
            close()
    print(format_digits(sys_, result.digits))
    if shift:
        print(f"divisor-shift {shift}", file=_sysmod.stderr)
    if result.numerator_shift:
        print(f"numerator-shift {result.numerator_shift}", file=_sysmod.stderr)
    return 0


def _parse_value(sys_: NumerationSystem, text: str) -> ComplexQuad:
    text = text.strip()
    if text.startswith("{"):
        try:
            return ComplexQuad.from_dict(json.loads(text))
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad value JSON: {exc}") from exc
    try:
        return ComplexQuad(RealQuad.from_fraction(Fraction(text)))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational value {text!r}") from exc


def cmd_encode(args) -> int:
    preset = _context(args)
    sys_, cert = preset.sys, preset.cert
    value = _parse_value(sys_, args.value)
    ds, shift = encode_value(sys_, cert, value, args.digits)
    print(format_digits(sys_, ds))
    if shift:
        print(f"shift {shift}", file=_sysmod.stderr)
    return 0


def cmd_eval(args) -> int:
    preset = _context(args)
    sys_ = preset.sys
    ds = parse_digits(sys_, _read_text(args.stream))
    value = eval_digits(sys_, ds)
    prec = Fraction(1, 10**12)
    re_iv = value.re.to_interval(prec)
    im_iv = value.im.to_interval(prec)
    print(json.dumps(value.to_dict()))
    print(f"~ {float(re_iv.midpoint()):.12g} + {float(im_iv.midpoint()):.12g}i")
    return 0


def cmd_preprocess(args) -> int:
    preset = _context(args)
    sys_ = preset.sys
    if preset.preprocess is None:
        raise DomainError("no preprocessing rules available")
    ds = parse_digits(sys_, _read_text(args.stream))
    out, shift = preprocess_divisor(preset.preprocess, sys_, ds)
    print(format_digits(sys_, out))
    print(f"shift {shift}", file=_sysmod.stderr)
    return 0


def cmd_params(args) -> int:
    preset = _context(args)
    rows: list[tuple[str, ...]] = []
    header = ("system", "mode", "delta", "L", "alpha", "d_min", "source")
    modes = [args.mode] if args.mode else ["mult", "div"]

    def fmt_alpha(p):
        return str(p.alpha) if p.alpha is not None else "-"

    def fmt_dmin(p):
        if p.d_min is None:
            return "-"
        return f"[{float(p.d_min.lo):.9g}, {float(p.d_min.hi):.9g}]"

    for mode in modes:
        eff = preset.mult_params if mode == "mult" else preset.div_params
        if preset.cert.selects_nearest:
            alpha, d_min = (fmt_alpha(eff), fmt_dmin(eff)) if mode == "div" else ("-", "-")
            for pt in eisenstein_params(mode):
                rows.append((preset.name, mode, str(pt.delta), str(pt.window_l), alpha, d_min,
                             f"frontier mu={float(pt.mu):.6g} nu={float(pt.nu):.6g}"))
            continue
        if eff is None:
            rows.append((preset.name, mode, "-", "-", "-", "-", "unavailable"))
            continue
        if mode == "mult":
            gen = mult_params(preset.sys, preset.cert)
        else:
            gen = div_params(preset.sys, preset.div_cert, preset.preprocess.d_min)
        if (gen.delta, gen.window_l) != (eff.delta, eff.window_l):
            rows.append((preset.name, mode, str(eff.delta), str(eff.window_l), fmt_alpha(eff), fmt_dmin(eff), "preset"))
        rows.append((preset.name, mode, str(gen.delta), str(gen.window_l), fmt_alpha(gen), fmt_dmin(gen), "derived"))
    widths = [max(len(r[i]) for r in [header] + rows) for i in range(len(header))]
    for r in [header] + rows:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    return 0


def cmd_check_ol(args) -> int:
    if args.system:
        sys_obj = NumerationSystem.from_dict(_load_json(args.system))
        if args.region:
            cert = OLCertificate.from_dict(_load_json(args.region))
        else:
            cert = _default_cert(sys_obj)
    else:
        preset = load_preset(args.preset or "golden-square")
        sys_obj, cert = preset.sys, preset.cert
    result = verify_certificate(sys_obj, cert)
    if result.passed:
        print("pass")
        return 0
    witness = f" witness={result.witness}" if result.witness is not None else ""
    print(f"fail{witness} {result.reason}".rstrip())
    return 3


def cmd_table(args) -> int:
    preset = _context(args)
    sys_, cert = preset.sys, preset.cert
    params = preset.mult_params
    domain = fattened_domain(sys_, cert, cert.mult_fatten())
    rules = preset.preprocess.rules if preset.preprocess else ()
    table = synthesize_table(sys_, cert, params.window_l, domain, rules=rules or None)
    _sysmod.stdout.write(table.serialize(sys_))
    return 0


def _add_common(p: argparse.ArgumentParser, with_cert: bool = False) -> None:
    p.add_argument("--preset", choices=None, help=f"bundled system ({', '.join(PRESET_NAMES)} or integer:<b>:<m>:<M>)")
    p.add_argument("--system", help="JSON system description (overrides --preset)")
    if with_cert:
        p.add_argument("--cert", help="JSON certificate for --system")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="olnum", description="exact on-line arithmetic in redundant numeration systems")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mul", help="on-line multiplication")
    _add_common(p, with_cert=True)
    p.add_argument("--digits", type=int, default=20, help="output digit count")
    p.add_argument("--trace", help="per-step CSV trace file ('-' for stderr)")
    p.add_argument("--no-check", action="store_true", help="disable exact invariant monitoring")
    p.add_argument("x")
    p.add_argument("y")
    p.set_defaults(fn=cmd_mul)

    p = sub.add_parser("div", help="on-line division")
    _add_common(p, with_cert=True)
    p.add_argument("--digits", type=int, default=20)
    p.add_argument("--trace")
    p.add_argument("--no-check", action="store_true")
    p.add_argument("--no-preprocess", action="store_true", help="divisor is already preprocessed")
    p.add_argument("n")
    p.add_argument("d")
    p.set_defaults(fn=cmd_div)

    p = sub.add_parser("encode", help="encode an exact value into digits")
    # argparse reads only integers and decimals as negative numbers; let
    # "--value -5/3" (and "-1e3") through as a value, not as an option
    p._negative_number_matcher = re.compile(r"^-\.?\d")
    _add_common(p, with_cert=True)
    p.add_argument("--value", required=True, help="rational 'p/q' or ComplexQuad JSON")
    p.add_argument("--digits", type=int, default=20)
    p.set_defaults(fn=cmd_encode)

    p = sub.add_parser("eval", help="evaluate a digit stream exactly")
    _add_common(p)
    p.add_argument("stream")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("preprocess", help="preprocess a divisor stream")
    _add_common(p)
    p.add_argument("stream")
    p.set_defaults(fn=cmd_preprocess)

    p = sub.add_parser("params", help="print run parameters")
    _add_common(p)
    p.add_argument("--mode", choices=["mult", "div"])
    p.set_defaults(fn=cmd_params)

    p = sub.add_parser("check-ol", help="verify a certificate")
    _add_common(p, with_cert=False)
    p.add_argument("--region", help="JSON certificate file")
    p.set_defaults(fn=cmd_check_ol)

    p = sub.add_parser("table", help="synthesize and print a selection table")
    _add_common(p, with_cert=True)
    p.set_defaults(fn=cmd_table)

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"olnum: parse error: {exc}", file=_sysmod.stderr)
        return 1
    except (DomainError, ZeroDivisionError) as exc:
        print(f"olnum: {exc}", file=_sysmod.stderr)
        return 2
    except CertificateError as exc:
        print(f"olnum: certificate error: {exc}", file=_sysmod.stderr)
        return 3
    except OlnumError as exc:
        print(f"olnum: {exc}", file=_sysmod.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
