"""Workloads, measurement and reporting of the olnum benchmark; run.py is
the entry point and puts the package under test on the import path first."""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import shutil
import tempfile
from math import gcd
from pathlib import Path
from statistics import median
from time import perf_counter

import ops
import probes
from olnum import presets

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"

# workload -> (driven through the CLI, exact monitoring on, output digits)
WORKLOADS = {
    "online-monitored": (False, True, 160),
    "online-fast": (False, False, 160),
    "cold-cli": (True, True, 40),
}
MIN_PASSES = 6      # passes over the run's six ops that every run makes
SETUP_REPS = 3      # set-ups per run; setup_s is their median
WARMUP_DIGITS = 24
# Tail percentiles, per workload and sample kind, each leaving at least ten
# samples beyond it at the run's fixed sample counts.  Digit samples are
# 3 ops * n digits per kind (480 on online-*, 120 on cold-cli); calls are
# every execution, at least MIN_PASSES * 6 = 36.
TAIL_PCT = {
    ("online-monitored", "digit"): 97.5,
    ("online-fast", "digit"): 97.5,
    ("cold-cli", "digit"): 90.0,
    ("online-monitored", "call"): 72.0,
    ("online-fast", "call"): 72.0,
    ("cold-cli", "call"): 72.0,
}


def percentile(values: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks."""
    s = sorted(values)
    if not s:
        return 0.0
    pos = (len(s) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def canary_ms() -> float:
    """Wall time of a fixed pure-integer loop, a host-speed diagnostic."""
    t = perf_counter()
    acc = 0
    m = (1 << 127) - 1
    for i in range(1, 40001):
        acc ^= gcd(i * 0x9E3779B97F4A7C15, m + i)
    if acc < 0:  # keeps the loop's result live
        raise AssertionError
    return (perf_counter() - t) * 1000.0


class Bench:
    def __init__(self, workload: str, seed: int, n: int | None):
        self.workload = workload
        self.via_cli, self.check, default_n = WORKLOADS[workload]
        self.seed = seed
        self.n = n or default_n
        self.workdir = Path(tempfile.mkdtemp(prefix="ops-", dir=OUT_DIR))
        self.loaded: dict = {}
        self.ops: list = []

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    # -- set-up ------------------------------------------------------------

    def set_up(self, tracer=None, rep: int = 0) -> float:
        """Cold-load the presets, make the operands, warm up; returns the
        wall time taken."""
        start = perf_counter()
        ops.clear_preset_cache()
        if tracer is not None:
            tracer.op = f"load-{rep}"
            tracer.install()
        try:
            self.loaded = {name: presets.load_preset(name) for name in ops.PRESETS}
        finally:
            if tracer is not None:
                tracer.uninstall()
                tracer.op = None
        self.ops = ops.make_cycle(random.Random(self.seed), self.loaded, self.n, 0)
        if self.via_cli:
            ops.write_operand_files(self.ops, self.loaded, self.workdir)
        for op in ops.make_cycle(random.Random(-self.seed), self.loaded, WARMUP_DIGITS, -1):
            out = ops.run_api(op, self.loaded[op.preset], WARMUP_DIGITS, check=True)
            if not out.ok:
                raise RuntimeError(f"warm-up {op.label} failed: {out.error}")
        return perf_counter() - start

    # -- ops ---------------------------------------------------------------

    def execute(self, op):
        preset = self.loaded[op.preset]
        if self.via_cli:
            return ops.run_cli(op, preset, self.n)
        return ops.run_api(op, preset, self.n, self.check)

    def verify(self, results: list[tuple[int, object]]) -> tuple[list[str], str]:
        """Check every result: the first of each distinct op against the
        exact oracle, repeats digit for digit against the first.  Returns the
        failures and the SHA-256 digest of all ops' digit streams."""
        failures = []
        first: dict[int, object] = {}
        for i, out in results:
            op = self.ops[i]
            if not out.ok:
                failures.append(f"{op.label}: {out.error}")
                continue
            if i not in first:
                reason = ops.verify(op, out, self.loaded[op.preset], self.n)
                if reason:
                    failures.append(f"{op.label}: {reason}")
                    continue
                first[i] = out
            elif (out.digits, out.numerator_shift) != (first[i].digits, first[i].numerator_shift):
                failures.append(f"{op.label}: digits differ from the first execution")
        digest = hashlib.sha256()
        for i, op in enumerate(self.ops):
            if i in first:
                digest.update(ops.stream_record(op, first[i], self.loaded[op.preset].sys.symbols))
            else:
                digest.update(f"{op.label}|missing\n".encode())
        return failures, digest.hexdigest()


def measure(bench: Bench, seconds: float) -> list[tuple[int, object]]:
    """Closed loop of passes over every op of the run, in order, until the
    next pass would end after `seconds` (at least MIN_PASSES passes).  The
    executions of one op are a pass apart, seconds at least, so together
    they sample the host's speed over the whole run."""
    results = []
    start = perf_counter()
    passes = 0
    while True:
        for i, op in enumerate(bench.ops):
            results.append((i, bench.execute(op)))
        passes += 1
        elapsed = perf_counter() - start
        if passes >= MIN_PASSES and elapsed * (passes + 1) / passes > seconds:
            return results


def typical(results) -> dict[int, tuple[float, list[float]]]:
    """Per op, the median of its successful executions: the median call and,
    digit by digit, the median latency.  The program's work is the same in
    every execution; what varies between them is the host, whose speed drifts
    by a third or more over seconds to minutes.  A median over executions
    spread across the whole run reads the run's typical host speed; a minimum
    would read whichever spell happened to be fastest, which differs far more
    from run to run."""
    by_op: dict[int, list] = {}
    for i, out in results:
        if out.ok:
            by_op.setdefault(i, []).append(out)
    return {
        i: (median(out.call_s for out in outs), [median(col) for col in zip(*(out.gaps_s() for out in outs))])
        for i, outs in by_op.items()
    }


def end_to_end(bench: Bench, results, setup_s: float) -> tuple[dict, dict]:
    per_op = typical(results)
    mul_gaps = [g for i, (_, gaps) in per_op.items() if bench.ops[i].kind == "mul" for g in gaps]
    div_gaps = [g for i, (_, gaps) in per_op.items() if bench.ops[i].kind == "div" for g in gaps]
    first_div = [gaps[0] for i, (_, gaps) in per_op.items() if bench.ops[i].kind == "div" and gaps]
    op_calls = [call for call, _ in per_op.values()]
    calls = [out.call_s for _, out in results if out.ok]
    digits = sum(len(gaps) for _, gaps in per_op.values())
    busy = sum(op_calls)
    d_pct = TAIL_PCT[(bench.workload, "digit")]
    c_pct = TAIL_PCT[(bench.workload, "call")]
    ms = 1000.0
    metrics = {
        "mul_digit_ms_p50": (percentile(mul_gaps, 50) * ms, "ms"),
        "mul_digit_ms_tail": (percentile(mul_gaps, d_pct) * ms, "ms"),
        "div_digit_ms_p50": (percentile(div_gaps, 50) * ms, "ms"),
        "div_digit_ms_tail": (percentile(div_gaps, d_pct) * ms, "ms"),
        "div_first_digit_ms_p50": (percentile(first_div, 50) * ms, "ms"),
        "digits_per_s": (digits / busy if busy else 0.0, "1/s"),
        "call_ms_p50": (percentile(op_calls, 50) * ms, "ms"),
        # six per-op calls leave no percentile with ten beyond it, so the
        # call tail is over every execution
        "call_ms_tail": (percentile(calls, c_pct) * ms, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }

    def tail_info(samples: list, pct: float) -> dict:
        value = percentile(samples, pct)
        return {"percentile": pct, "samples": len(samples), "beyond": sum(1 for v in samples if v > value)}

    samples = {
        "mul_digit_ms_tail": tail_info(mul_gaps, d_pct),
        "div_digit_ms_tail": tail_info(div_gaps, d_pct),
        "call_ms_tail": tail_info(calls, c_pct),
        "div_first_digit_ms_p50": {"samples": len(first_div)},
        "executions_per_op": len(calls) / max(len(per_op), 1),
        "digits": digits,
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, samples


def traced(bench: Bench, tracer) -> tuple[list, dict, float]:
    """Every op of the run once untraced and once traced,
    in turn; returns the results, the per-layer metrics and the tracing
    overhead."""
    results = []
    plain_s = traced_s = 0.0
    kinds, digits = {}, {}
    for i, op in enumerate(bench.ops):
        plain = bench.execute(op)
        tracer.op = op.label
        tracer.install()
        try:
            out = bench.execute(op)
        finally:
            tracer.uninstall()
            tracer.op = None
        results += [(i, plain), (i, out)]
        if plain.ok and out.ok:
            plain_s += plain.call_s
            traced_s += out.call_s
            kinds[op.label] = op.kind
            digits[op.label] = len(out.digits)
    overhead = traced_s / plain_s - 1.0 if plain_s else 0.0
    load_ops = {f"load-{r}" for r in range(SETUP_REPS)}
    return results, probes.layer_metrics(tracer, kinds, digits, load_ops), overhead


def main(argv: list[str], import_s: float) -> int:
    ap = argparse.ArgumentParser(prog="perfbench/run.py", description="olnum benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--digits", type=int, default=None, help="output digits per op (smoke tests)")
    args = ap.parse_args(argv)

    canary_start = canary_ms()
    OUT_DIR.mkdir(exist_ok=True)
    bench = Bench(args.workload, args.seed, args.digits)
    tracer = probes.Tracer() if args.trace else None
    try:
        setups = [bench.set_up(tracer, rep) for rep in range(SETUP_REPS)]
        setup_s = import_s + median(setups)
        if tracer is None:
            results = measure(bench, args.seconds)
        else:
            results, layer, overhead = traced(bench, tracer)
            tracer.dump(OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl")
        failures, digest = bench.verify(results)
    finally:
        bench.close()

    diagnostics = {
        "workload": args.workload,
        "seed": args.seed,
        "digits_per_op": bench.n,
        "digest": digest,
        "canary_ms": {"start": canary_start, "end": canary_ms()},
        "setup_s": {"import": import_s, "reps": setups},
        "attempted_ops": len(results),
        "failed_ops_frac": len(failures) / len(results),
        "failures": failures[:10],
    }
    if tracer is None:
        metrics, samples = end_to_end(bench, results, setup_s)
        diagnostics["samples"] = samples
    else:
        metrics = dict(layer)
        metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
        diagnostics["missing_targets"] = sorted(tracer.missing)
        diagnostics["spans"] = len(tracer.spans)
    print(json.dumps({"diagnostics": diagnostics}))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(results),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0
