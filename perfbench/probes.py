"""Layer probes for the traced run.

A probe rebinds one entry point of an ``olnum`` module, in every ``olnum``
module that holds it, so that calls made through the module attribute
record a span (name, start, end, parent span, op id) or a count.  Nothing
under ``src/`` changes: callers that look the name up at call time see the
probe, and ``uninstall`` puts the originals back.  A target that no longer
exists is reported as missing, and the metrics that depend on it come out
as null instead of crashing the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter
from pathlib import Path
from statistics import median
from time import perf_counter

# (span name, module, attribute): timed entry points
SPAN_TARGETS = (
    ("presets.load_preset", "olnum.presets", "load_preset"),
    ("params.eisenstein_params", "olnum.params", "eisenstein_params"),
    ("region.verify_certificate", "olnum.region", "verify_certificate"),
    ("online_mul.mul_run", "olnum.online_mul", "mul_run"),
    ("online_div.div_run", "olnum.online_div", "div_run"),
    ("online_mul.mul_step", "olnum.online_mul", "mul_step"),
    ("online_div.div_step", "olnum.online_div", "div_step"),
    ("online_mul.check", "olnum.online_mul", "_check_step"),
    ("online_div.check", "olnum.online_div", "_check_step"),
    ("online_div.quotient_guard", "olnum.online_div", "_quotient_guard"),
    ("preprocess.preprocess_divisor", "olnum.preprocess", "preprocess_divisor"),
    ("select.window_encode", "olnum.select", "window_encode"),
    ("region.digit_select", "olnum.region", "digit_select"),
    ("numeration.eval_digits", "olnum.numeration", "eval_digits"),
    ("cli.main", "olnum.cli", "main"),
)
# (count name, module, attribute): called too often for a span each
CONTAINS_TARGET = ("region.region_contains", "olnum.region", "region_contains")
BALL_FITS_TARGET = ("region.ball_fits", "olnum.region", "ball_fits")
REALQUAD_INIT = ("field.RealQuad", "olnum.field", "RealQuad")
# functions handed to mul_run / div_run that the runs call once per step
SELECTOR_ARGS = ("select_fn", "exact_fn")
SELECTOR = "select.selector"
LOAD = "presets.load_preset"


class Tracer:
    """Spans and counts of one traced run, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, op id, label]
        self.stack: list[int] = []
        self.counts: Counter = Counter()  # (scope, name, parent span name) -> n
        self.rows: list[tuple[str, int, int, int]] = []  # (op id, k, w bits, window int_len)
        self.op: str | None = None
        self.load_depth = 0
        self.missing: set[str] = set()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _parent_name(self) -> str:
        return self.spans[self.stack[-1]][0] if self.stack else ""

    def open(self, name: str, label: str = "") -> int:
        if name == LOAD:
            self.load_depth += 1
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self.stack[-1] if self.stack else -1, self.op, label])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self.stack.pop()
        if self.spans[idx][0] == LOAD:
            self.load_depth -= 1

    def scope(self) -> str:
        """Op id that counts are charged to; work inside a preset load is
        charged to no op."""
        return "" if self.load_depth or self.op is None else self.op

    def timed(self, name: str, fn, label_arg: bool = False):
        tracer = self

        @functools.wraps(fn)
        def probe(*args, **kwargs):
            idx = tracer.open(name, str(args[0]) if label_arg and args else "")
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)

        return probe

    def counted(self, name: str, fn, by_parent: bool = False, record_result: bool = False):
        tracer = self
        counts = self.counts

        @functools.wraps(fn)
        def probe(*args, **kwargs):
            result = fn(*args, **kwargs)
            scope = tracer.scope()
            counts[(scope, name, tracer._parent_name() if by_parent else "")] += 1
            if record_result and result:
                counts[(scope, name + ".pass", "")] += 1
            return result

        return probe

    def run_probe(self, name: str, fn):
        """Span around mul_run/div_run that also times the selectors passed
        in and reads W and the window from the per-step rows."""
        tracer = self

        def watch(trace_fn):
            def row_probe(row: dict) -> None:
                w, window = row.get("w"), row.get("window")
                bits = _w_bits(w) if w is not None else 0
                int_len = window.int_len() if window is not None else 0
                tracer.rows.append((tracer.scope(), row.get("k", 0), bits, int_len))
                if trace_fn is not None:
                    trace_fn(row)
            return row_probe

        @functools.wraps(fn)
        def probe(*args, **kwargs):
            for arg in SELECTOR_ARGS:
                if callable(kwargs.get(arg)):
                    kwargs[arg] = tracer.timed(SELECTOR, kwargs[arg])
            if "trace_fn" in kwargs:
                kwargs["trace_fn"] = watch(kwargs["trace_fn"])
            idx = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)

        return probe

    # -- installation ----------------------------------------------------

    def _rebind(self, name: str, module: str, attr: str, make) -> None:
        try:
            mod = importlib.import_module(module)
        except ImportError:
            self.missing.add(f"{module}.{attr}")
            return
        orig = getattr(mod, attr, None)
        if orig is None:
            self.missing.add(f"{module}.{attr}")
            return
        probe = make(name, orig)
        for mname, m in list(sys.modules.items()):
            if m is None or not (mname == "olnum" or mname.startswith("olnum.")):
                continue
            for key, value in list(vars(m).items()):
                if value is orig:
                    self._undo.append((m, key, value))
                    setattr(m, key, probe)

    def install(self) -> None:
        for name, module, attr in SPAN_TARGETS:
            if name in ("online_mul.mul_run", "online_div.div_run"):
                self._rebind(name, module, attr, self.run_probe)
            else:
                self._rebind(name, module, attr, lambda n, f: self.timed(n, f, label_arg=(n == LOAD)))
        self._rebind(*CONTAINS_TARGET, lambda n, f: self.counted(n, f, by_parent=True))
        self._rebind(*BALL_FITS_TARGET, lambda n, f: self.counted(n, f, record_result=True))
        name, module, attr = REALQUAD_INIT
        try:
            cls = getattr(importlib.import_module(module), attr)
            orig = cls.__init__
        except (ImportError, AttributeError):
            self.missing.add(f"{module}.{attr}.__init__")
        else:
            self._undo.append((cls, "__init__", orig))
            cls.__init__ = self.counted(name, orig)

    def uninstall(self) -> None:
        while self._undo:
            obj, key, value = self._undo.pop()
            setattr(obj, key, value)

    def dump(self, path: Path) -> None:
        """Write the spans, one JSON array per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _w_bits(w) -> int:
    """Largest coordinate bit length of a ComplexQuad (numerators and
    denominators of both parts)."""
    bits = 0
    for part in (getattr(w, "re", None), getattr(w, "im", None)):
        for coord in ("a", "b", "q"):
            v = getattr(part, coord, 0)
            if isinstance(v, int):
                bits = max(bits, abs(v).bit_length())
    return bits


# -- per-layer metrics ------------------------------------------------------------

# metric -> (unit, probe targets it needs)
LAYER_METRICS = {
    "presets.load_ms.golden-square": ("ms", ("presets.load_preset",)),
    "presets.load_ms.knuth": ("ms", ("presets.load_preset",)),
    "presets.load_ms.eisenstein": ("ms", ("presets.load_preset",)),
    "params.eisenstein_params.ms_per_load": ("ms", ("params.eisenstein_params", "presets.load_preset")),
    "params.eisenstein_params.calls_per_load": ("count", ("params.eisenstein_params", "presets.load_preset")),
    "region.verify_certificate.ms_per_load": ("ms", ("region.verify_certificate", "presets.load_preset")),
    "select.window_encode.ms_per_digit": ("ms", ("select.window_encode",)),
    "select.window_encode.scale_tries_per_call": ("count", ("select.window_encode", "region.region_contains")),
    "region.digit_select.calls_per_digit": ("count", ("region.digit_select",)),
    "region.digit_select.ms_per_digit": ("ms", ("region.digit_select",)),
    "region.digit_select.window_encode.calls_per_digit": ("count", ("region.digit_select", "select.window_encode")),
    "region.digit_select.window_encode.ms_per_digit": ("ms", ("region.digit_select", "select.window_encode")),
    "region.digit_select.selector.calls_per_digit": ("count", ("region.digit_select",)),
    "region.digit_select.selector.ms_per_digit": ("ms", ("region.digit_select",)),
    "region.digit_select.monitor.calls_per_digit": ("count", ("region.digit_select", "online_mul.check", "online_div.check")),
    "region.digit_select.monitor.ms_per_digit": ("ms", ("region.digit_select", "online_mul.check", "online_div.check")),
    "region.ball_fits.pass_ratio": ("ratio", ("region.ball_fits",)),
    "select.selector.ms_per_digit": ("ms", ("online_mul.mul_run", "online_div.div_run")),
    "select.window_int_len_max": ("count", ("online_mul.mul_run", "online_div.div_run")),
    "numeration.eval_digits.calls_per_digit": ("count", ("numeration.eval_digits",)),
    "numeration.eval_digits.ms_per_digit": ("ms", ("numeration.eval_digits",)),
    "field.realquad_new_per_digit": ("count", ("field.RealQuad",)),
    "field.w_bits_k40": ("bits", ("online_mul.mul_run", "online_div.div_run")),
    "field.w_bits_k160": ("bits", ("online_mul.mul_run", "online_div.div_run")),
    "online_mul.check.ms_per_digit": ("ms", ("online_mul.check",)),
    "online_div.check.ms_per_digit": ("ms", ("online_div.check",)),
    "online_mul.mul_step.self_ms_per_digit": ("ms", ("online_mul.mul_step",)),
    "online_div.div_step.self_ms_per_digit": ("ms", ("online_div.div_step",)),
    "online_div.quotient_guard.ms_per_op": ("ms", ("online_div.quotient_guard",)),
    "preprocess.preprocess_divisor.ms_per_op": ("ms", ("preprocess.preprocess_divisor",)),
    "cli.self_ms_per_call": ("ms", ("cli.main", "presets.load_preset", "preprocess.preprocess_divisor",
                                    "online_mul.mul_run", "online_div.div_run")),
}

_TARGET_PATHS = {name: f"{module}.{attr}" for name, module, attr in SPAN_TARGETS + (CONTAINS_TARGET, BALL_FITS_TARGET)}
_TARGET_PATHS[REALQUAD_INIT[0]] = f"{REALQUAD_INIT[1]}.{REALQUAD_INIT[2]}.__init__"


def layer_metrics(tracer: Tracer, op_kinds: dict[str, str], digits: dict[str, int], load_ops: set[str]) -> dict:
    """Per-layer metrics of the traced ops.

    op_kinds maps each traced op id to "mul" or "div", digits maps it to the
    digits it emitted; load_ops are the op ids of the set-up preset loads.
    Per-digit ratios are over all digits of the traced ops (per mul digit
    for online_mul.*, per div digit for online_div.*); per-load ratios are
    over every cold preset load seen (set-up loads and CLI calls)."""
    spans = tracer.spans
    children_s = [0.0] * len(spans)
    for name, start, end, parent, op, label in spans:
        if parent >= 0:
            children_s[parent] += end - start

    def context(idx: int) -> str:
        """Which part of a step a span ran for: monitor, window_encode or
        selector (anything else inside a step)."""
        ctx = "selector"
        parent = spans[idx][3]
        while parent >= 0:
            pname = spans[parent][0]
            if pname in ("online_mul.check", "online_div.check"):
                return "monitor"
            if pname == "select.window_encode":
                ctx = "window_encode"
            parent = spans[parent][3]
        return ctx

    total = Counter()      # span name -> seconds, traced ops only
    self_s = Counter()
    calls = Counter()
    split_calls = Counter()
    split_s = Counter()
    loads: dict[str, list[float]] = {}
    load_total = Counter()
    load_calls = Counter()
    n_loads = 0
    for idx, (name, start, end, parent, op, label) in enumerate(spans):
        dur = end - start
        if name == LOAD:
            loads.setdefault(label, []).append(dur)
            n_loads += 1
        if op in load_ops or _inside(spans, idx, LOAD):
            load_total[name] += dur
            load_calls[name] += 1
            continue
        if op not in op_kinds:
            continue
        total[name] += dur
        self_s[name] += dur - children_s[idx]
        calls[name] += 1
        if name == "region.digit_select":
            ctx = context(idx)
            split_calls[ctx] += 1
            split_s[ctx] += dur

    n_digits = sum(digits.values()) or 1
    mul_digits = sum(d for op, d in digits.items() if op_kinds.get(op) == "mul") or 1
    div_digits = sum(d for op, d in digits.items() if op_kinds.get(op) == "div") or 1
    div_ops = sum(1 for k in op_kinds.values() if k == "div") or 1
    ms = 1000.0

    counts = Counter()
    for (scope, name, parent), n in tracer.counts.items():
        if scope in op_kinds:
            counts[(name, parent)] += n
            counts[(name, "*")] += n
    rows = [r for r in tracer.rows if r[0] in op_kinds]

    def w_bits(k: int) -> int:
        return max((bits for _, kk, bits, _ in rows if kk == k), default=0)

    values = {
        "presets.load_ms.golden-square": median(loads["golden-square"]) * ms if loads.get("golden-square") else 0.0,
        "presets.load_ms.knuth": median(loads["knuth"]) * ms if loads.get("knuth") else 0.0,
        "presets.load_ms.eisenstein": median(loads["eisenstein"]) * ms if loads.get("eisenstein") else 0.0,
        "params.eisenstein_params.ms_per_load": load_total["params.eisenstein_params"] * ms / max(n_loads, 1),
        "params.eisenstein_params.calls_per_load": load_calls["params.eisenstein_params"] / max(n_loads, 1),
        "region.verify_certificate.ms_per_load": load_total["region.verify_certificate"] * ms / max(n_loads, 1),
        "select.window_encode.ms_per_digit": total["select.window_encode"] * ms / n_digits,
        "select.window_encode.scale_tries_per_call":
            counts[("region.region_contains", "select.window_encode")] / max(calls["select.window_encode"], 1),
        "region.digit_select.calls_per_digit": calls["region.digit_select"] / n_digits,
        "region.digit_select.ms_per_digit": total["region.digit_select"] * ms / n_digits,
        "region.ball_fits.pass_ratio":
            counts[("region.ball_fits.pass", "*")] / max(counts[("region.ball_fits", "*")], 1),
        "select.selector.ms_per_digit": total[SELECTOR] * ms / n_digits,
        "select.window_int_len_max": max((r[3] for r in rows), default=0),
        "numeration.eval_digits.calls_per_digit": calls["numeration.eval_digits"] / n_digits,
        "numeration.eval_digits.ms_per_digit": total["numeration.eval_digits"] * ms / n_digits,
        "field.realquad_new_per_digit": counts[("field.RealQuad", "*")] / n_digits,
        "field.w_bits_k40": w_bits(40),
        "field.w_bits_k160": w_bits(160),
        "online_mul.check.ms_per_digit": total["online_mul.check"] * ms / mul_digits,
        "online_div.check.ms_per_digit": total["online_div.check"] * ms / div_digits,
        "online_mul.mul_step.self_ms_per_digit": self_s["online_mul.mul_step"] * ms / mul_digits,
        "online_div.div_step.self_ms_per_digit": self_s["online_div.div_step"] * ms / div_digits,
        "online_div.quotient_guard.ms_per_op": total["online_div.quotient_guard"] * ms / div_ops,
        "preprocess.preprocess_divisor.ms_per_op": total["preprocess.preprocess_divisor"] * ms / div_ops,
        "cli.self_ms_per_call": self_s["cli.main"] * ms / max(calls["cli.main"], 1),
    }
    for ctx in ("window_encode", "selector", "monitor"):
        values[f"region.digit_select.{ctx}.calls_per_digit"] = split_calls[ctx] / n_digits
        values[f"region.digit_select.{ctx}.ms_per_digit"] = split_s[ctx] * ms / n_digits

    out = {}
    for metric, (unit, needs) in LAYER_METRICS.items():
        lost = [t for t in needs if _TARGET_PATHS.get(t) in tracer.missing]
        out[metric] = {"value": None if lost else values[metric], "unit": unit}
    return out


def _inside(spans: list, idx: int, name: str) -> bool:
    parent = spans[idx][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False
