"""Measurement loop, setup samples, metric assembly and the result file."""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import platform
import resource
import statistics
import subprocess
import sys
import time

import mpmath
import numpy as np

import oracles as orc
import refkernel as rk
import tracing
from workloads import WORKLOADS, Check, CliResult

MIN_SETUP_SAMPLES = 7

END_TO_END_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
    "accuracy_digits": "digits",
}


def machine_info() -> dict:
    return {
        "os_cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mpmath": mpmath.__version__,
        "machine": platform.machine(),
    }


def _digest(op, result) -> str:
    h = hashlib.sha256()
    if isinstance(result, CliResult):
        h.update(result.stdout.encode())
    else:
        h.update(pickle.dumps(result))
    for path in op.outputs:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _bytes_out(op, result) -> int:
    n = len(result.stdout.encode()) if isinstance(result, CliResult) else 0
    return n + sum(os.path.getsize(p) for p in op.outputs)


class Runner:
    """Runs the reps of one workload and keeps what the checks need."""

    def __init__(self, workload):
        self.workload = workload
        self.ops = workload.ops()
        self.sampler = rk.SpeedSampler()
        self.reps: list = []        # one dict per rep
        self.last_results: dict = {}
        self.bytes_out = 0

    def run_rep(self, tracer=None) -> dict:
        """One rep under the speed sampler; returns its timing record."""
        op_times, digests, errors = {}, {}, {}
        clock = self.sampler.work_clock
        self.sampler.take()
        if tracer is not None:
            tracer.install()
        try:
            with self.sampler:
                for op in self.ops:
                    if tracer is not None:
                        tracer.op = f"{self.workload.name}/{len(self.reps)}/{op.name}"
                    result = t0 = None
                    try:
                        if op.before is not None:
                            op.before()
                        t0 = clock()
                        result = op.run()
                    except Exception as exc:  # an error fails this operation only
                        errors[op.name] = f"{type(exc).__name__}: {exc}"
                    if t0 is not None:
                        op_times[op.name] = clock() - t0
                    if result is not None:
                        digests[op.name] = _digest(op, result)
                        self.last_results[op.name] = result
                        if tracer is not None:
                            self.bytes_out += _bytes_out(op, result)
        finally:
            if tracer is not None:
                tracer.uninstall()
        samples = self.sampler.take()
        if not samples:
            t0 = time.thread_time()
            rk.kernel()
            samples = [time.thread_time() - t0]
        raw = sum(op_times.values())
        r_measured = rk.harmonic_mean(samples)
        rep = {
            "traced": tracer is not None,
            "raw_s": raw,
            "r_measured_s": r_measured,
            "kernel_samples": len(samples),
            "adjusted_s": raw * rk.R_NOMINAL / r_measured,
            "op_raw_s": op_times,
            "digests": digests,
            "errors": errors,
        }
        self.reps.append(rep)
        return rep


def _fresh_python(code: str, env: dict) -> float:
    # No timeout: with one, Popen.wait polls with sleeps of up to 50 ms,
    # which quantises these 0.1-0.4 s timings.
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def setup_sample(workload, root: str, index: int) -> dict:
    """Fresh interpreter to ready (import pfdensity.cli, write the inputs),
    bracketed by two fresh interpreters that import only the stdlib."""
    base = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env = dict(base, PYTHONPATH=os.path.join(root, "src"))
    out_path = os.path.join(workload.workdir, f"setup{index}.json")
    code = workload.setup_code(out_path)
    ref_before = _fresh_python(rk.FRESH_REFERENCE_CODE, base)
    raw = _fresh_python(code, env)
    ref_after = _fresh_python(rk.FRESH_REFERENCE_CODE, base)
    with open(out_path, encoding="utf-8") as fh:
        json.load(fh)
    r_measured = (ref_before + ref_after) / 2.0
    return {"raw_s": raw, "r_measured_s": r_measured,
            "adjusted_s": raw * rk.FRESH_R_NOMINAL / r_measured}


def _median(values):
    return statistics.median(values) if values else 0.0


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 root: str, workdir: str) -> dict:
    start = time.perf_counter()
    workload = WORKLOADS[name](seed, workdir)
    runner = Runner(workload)
    setups: list = []
    tracer = tracing.Tracer(runner.sampler.work_clock) if trace else None

    def elapsed():
        return time.perf_counter() - start

    def take_setup():
        setups.append(setup_sample(workload, root, len(setups)))

    if not trace:
        take_setup()
        take_setup()
    while True:
        traced = trace and len(runner.reps) % 2 == 1
        rep = runner.run_rep(tracer if traced else None)
        if traced:
            rep["spans"], tracer.spans = tracer.spans, []
        if not trace:
            take_setup()
        per_rep = elapsed() / len(runner.reps)
        need_more = trace and len(runner.reps) < 2
        if not need_more and elapsed() + per_rep > seconds:
            break
    while not trace and len(setups) < MIN_SETUP_SAMPLES:
        take_setup()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # --- correctness -----------------------------------------------------------
    final = {op.name: runner.reps[-1]["digests"].get(op.name) for op in runner.ops}
    checks = []
    if all(final.values()):
        try:
            checks = workload.check(runner.last_results)
        except Exception as exc:  # unreadable output: report, do not crash
            checks = [Check("check", f"{type(exc).__name__}: {exc}", False)]
    failed_ops = {c.op for c in checks if not c.ok}
    attempted = failed = 0
    for rep in runner.reps:
        for op in runner.ops:
            attempted += 1
            ok = (op.name not in failed_ops and final[op.name] is not None
                  and rep["digests"].get(op.name) == final[op.name])
            failed += not ok
    errs = [c.err for c in checks if c.err is not None]
    correct = failed == 0 and bool(checks) and all(c.ok for c in checks)

    untraced = [r["adjusted_s"] for r in runner.reps if not r["traced"]]
    result = {
        "workload": name, "seed": seed, "trace": int(trace),
        "machine": machine_info(),
        "r_nominal_s": rk.R_NOMINAL, "fresh_r_nominal_s": rk.FRESH_R_NOMINAL,
        "sample_interval_s": rk.SAMPLE_INTERVAL_S,
        "reps": [{k: v for k, v in r.items() if k != "spans"} for r in runner.reps],
        "setup_samples": setups,
        "failed_checks": [vars(c) for c in checks if not c.ok][:50],
        "checks": len(checks),
        "correct": correct, "attempted": attempted, "failed": failed,
    }
    if not trace:
        metrics = {
            "run_s": _median(untraced),
            "setup_s": _median([s["adjusted_s"] for s in setups]),
            "peak_rss_mb": peak_rss_mb,
            "ok_ratio": (attempted - failed) / attempted,
            "accuracy_digits": min((orc.digits(e) for e in errs), default=0.0),
        }
        units = END_TO_END_UNITS
        result["diagnostics"] = {
            "run_raw_s": _median([r["raw_s"] for r in runner.reps]),
            "run_r_measured_s": _median([r["r_measured_s"] for r in runner.reps]),
            "setup_raw_s": _median([s["raw_s"] for s in setups]),
            "setup_r_measured_s": _median([s["r_measured_s"] for s in setups]),
            "reps": len(runner.reps), "setup_samples": len(setups),
        }
    else:
        metrics, units, dominance = _trace_metrics(workload, runner, tracer, untraced)
        result["dominance"] = dominance
    result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    return result


def _trace_metrics(workload, runner, tracer, untraced):
    traced_reps = [r for r in runner.reps if r["traced"]]
    n = len(traced_reps)
    sums: dict = {}
    layers_total: dict = {}
    for rep in traced_reps:
        scale = rk.R_NOMINAL / rep["r_measured_s"]
        metrics, layers = tracing.layer_metrics(rep["spans"])
        for k, v in metrics.items():
            if k.endswith("_s"):
                sums[k] = sums.get(k, 0.0) + v * scale / n
        for k, v in layers.items():
            layers_total[k] = layers_total.get(k, 0.0) + v * scale / n
    counts = tracer.counts
    out = dict(sums)
    for name in tracing.COUNT_METRICS:
        if name == "bell.max_coeff_bits":
            out[name] = counts[name]
        else:
            out[name] = counts[name] / n
    out["saddle.q_per_p"] = metrics["saddle.q_per_p"]
    expected = workload.expected_real_zeros() * n
    out["poly.real_yield"] = counts["poly.real_found"] / expected if expected else 1.0
    out["cli.bytes_out"] = runner.bytes_out / n
    out["trace.overhead_s"] = (_median([r["adjusted_s"] for r in traced_reps])
                               - _median(untraced))
    holds, ranking = tracing.dominant_layers(layers_total, workload.predicted)
    dominance = {"predicted": list(workload.predicted), "holds": holds,
                 "layer_self_s": dict(ranking)}
    return out, tracing.PER_LAYER_UNITS, dominance
