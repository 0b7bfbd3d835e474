"""In-memory spans around the calls into each layer of pfdensity.

The program is not modified: `Tracer.install` replaces each traced public
function, in every pfdensity module that holds a reference to it, with a
wrapper that records a span.  A call from one layer into another (saddle
into `poly_roots`, `lorenz_report` into `jacobian_eigen`) therefore gets
its own span, and a batching change shows up as a change in call count.

A span is (kind, start, end, parent, op).  Parents follow the call stack
of the calling thread; a span opened on a worker thread of the CLI's
thread pool, whose own stack is empty, is parented to the open span of the
main thread.  Self time is a span's duration minus the union of the
intervals its children cover, so overlapping children on two threads are
not subtracted twice.
"""

from __future__ import annotations

import sys
import threading
from dataclasses import dataclass

__all__ = ["Span", "Tracer", "TRACED", "PER_LAYER_UNITS", "self_times",
           "layer_metrics", "dominant_layers"]


@dataclass
class Span:
    kind: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    op: str


# (kind, module, function).  The kind names the metric group it feeds.
TRACED = (
    ("cli.run", "pfdensity.cli", "run"),
    ("bell.chain", "pfdensity.bell", "bell_sequence_exact"),
    ("bell.chain", "pfdensity.bell", "bell_sequence"),
    ("bell.chain", "pfdensity.bell", "solve_coefficient_system"),
    ("poly.roots", "pfdensity.poly", "poly_roots"),
    ("poly.roots", "pfdensity.poly", "real_zeros"),
    ("saddle.q", "pfdensity.saddle", "zero_density_q"),
    ("saddle.p", "pfdensity.saddle", "invariant_density_p"),
    ("empirical.orbit", "pfdensity.empirical", "iterate_orbit"),
    ("empirical.ks", "pfdensity.empirical", "ks_distance"),
    ("empirical.ks", "pfdensity.empirical", "histogram_ks"),
    ("odeiter.euler", "pfdensity.odeiter", "euler_iterate"),
    ("odeiter.newton", "pfdensity.odeiter", "fixed_points"),
    ("odeiter.newton", "pfdensity.odeiter", "seed_lattice"),
    ("odeiter.freq", "pfdensity.odeiter", "critical_frequencies"),
    ("odeiter.freq", "pfdensity.odeiter", "jacobian_eigen"),
    ("quadform.eigen", "pfdensity.quadform", "symmetric_eigen"),
    ("lorenz.report", "pfdensity.lorenz", "lorenz_report"),
)

LAYER_OF_KIND = {kind: kind.split(".")[0] for kind, _, _ in TRACED}

# Self-time metric per span kind, and the layers in report order.
TIME_METRIC = {
    "bell.chain": "bell.chain_s",
    "poly.roots": "poly.roots_s",
    "saddle.q": "saddle.q_s",
    "saddle.p": "saddle.p_s",
    "empirical.orbit": "empirical.orbit_s",
    "empirical.ks": "empirical.ks_s",
    "odeiter.euler": "odeiter.euler_s",
    "odeiter.newton": "odeiter.newton_s",
    "odeiter.freq": "odeiter.freq_s",
    "quadform.eigen": "quadform.eigen_s",
    "lorenz.report": "lorenz.report_s",
    "cli.run": "cli.self_s",
}
LAYERS = ("bell", "poly", "saddle", "empirical", "odeiter", "quadform",
          "lorenz", "cli")

# Every per-layer metric the traced run reports, with its unit.
PER_LAYER_UNITS = {
    "bell.chain_s": "s", "bell.coeffs": "count", "bell.max_coeff_bits": "bits",
    "poly.roots_s": "s", "poly.roots_calls": "count", "poly.degree_total": "count",
    "poly.nonconvergence": "count", "poly.real_yield": "ratio",
    "saddle.q_s": "s", "saddle.q_calls": "count", "saddle.p_s": "s",
    "saddle.p_calls": "count", "saddle.q_per_p": "ratio",
    "empirical.orbit_s": "s", "empirical.orbit_steps": "count",
    "empirical.ks_s": "s", "empirical.out_of_range": "count",
    "odeiter.euler_s": "s", "odeiter.euler_steps": "count",
    "odeiter.newton_s": "s", "odeiter.newton_seeds": "count",
    "odeiter.newton_nonconverged": "count", "odeiter.freq_s": "s",
    "quadform.eigen_s": "s", "quadform.eigen_calls": "count",
    "lorenz.report_s": "s",
    "cli.self_s": "s", "cli.bytes_out": "bytes",
    "trace.overhead_s": "s",
}
# Counted by the span wrappers (see _count).
COUNT_METRICS = tuple(name for name, unit in PER_LAYER_UNITS.items()
                      if unit in ("count", "bits"))


def _coeff_bits(c) -> int:
    num = getattr(c, "numerator", None)
    if num is None or isinstance(c, float):
        return 0
    return max(abs(num).bit_length(), c.denominator.bit_length())


def _count(func, args, kwargs, result, counts):
    """Per-call counts taken after the span has closed."""
    name = func.__name__
    if name == "bell_sequence_exact":
        counts["bell.coeffs"] += sum(len(p.coeffs) for p in result)
        bits = max((_coeff_bits(c) for p in result for c in p.coeffs), default=0)
        counts["bell.max_coeff_bits"] = max(counts["bell.max_coeff_bits"], bits)
    elif name == "poly_roots":
        counts["poly.roots_calls"] += 1
        counts["poly.degree_total"] += args[0].degree
    elif name == "real_zeros":
        counts["poly.real_found"] += len(result)
    elif name == "zero_density_q":
        counts["saddle.q_calls"] += 1
    elif name == "invariant_density_p":
        counts["saddle.p_calls"] += 1
    elif name == "iterate_orbit":
        counts["empirical.orbit_steps"] += args[2] + args[3]
        counts["empirical.out_of_range"] += result.out_of_range
    elif name == "euler_iterate":
        counts["odeiter.euler_steps"] += args[0].n
    elif name == "seed_lattice":
        counts["odeiter.newton_seeds"] += len(result)
    elif name == "fixed_points":
        counts["odeiter.newton_nonconverged"] += result.non_converged
    elif name == "symmetric_eigen":
        counts["quadform.eigen_calls"] += 1


class Tracer:
    """Collects spans and counts while installed; see the module docstring."""

    def __init__(self, clock):
        self.clock = clock
        self.spans: list = []
        self.op = ""
        self._local = threading.local()
        self._main_stack: list = []
        self._saved: list = []
        self._lock = threading.Lock()
        self.counts = dict.fromkeys(COUNT_METRICS + ("poly.real_found",), 0)

    def _stack(self) -> list:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, kind, func):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = tracer._main_stack[-1] if tracer._main_stack else -1
            span = Span(kind, tracer.clock(), 0.0, parent, tracer.op)
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(span)
            stack.append(index)
            try:
                result = func(*args, **kwargs)
            except Exception as exc:
                if type(exc).__name__ == "NonConvergence":
                    with tracer._lock:
                        tracer.counts["poly.nonconvergence"] += 1
                raise
            finally:
                span.end = tracer.clock()
                stack.pop()
            with tracer._lock:
                _count(func, args, kwargs, result, tracer.counts)
            return result

        traced.__wrapped__ = func
        return traced

    def install(self):
        for kind, modname, name in TRACED:
            original = getattr(sys.modules[modname], name)
            wrapper = self._wrap(kind, original)
            for mname, module in list(sys.modules.items()):
                if mname.split(".")[0] != "pfdensity" or module is None:
                    continue
                if getattr(module, name, None) is original:
                    self._saved.append((module, name, original))
                    setattr(module, name, wrapper)

    def uninstall(self):
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()


def self_times(spans) -> list:
    """Each span's duration minus the union of its children's intervals."""
    children: dict = {}
    for i, sp in enumerate(spans):
        if sp.parent >= 0:
            children.setdefault(sp.parent, []).append(i)
    out = []
    for i, sp in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted((max(spans[c].start, sp.start),
                              min(spans[c].end, sp.end))
                             for c in children.get(i, ())):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(sp.end - sp.start - covered)
    return out


def layer_metrics(spans):
    """(metrics, layer totals): self seconds per metric group and the number
    of q calls per p call; and self seconds per layer."""
    selfs = self_times(spans)
    times = {metric: 0.0 for metric in TIME_METRIC.values()}
    layers = {layer: 0.0 for layer in LAYERS}
    q_in_p = p_spans = 0
    for sp, st in zip(spans, selfs):
        times[TIME_METRIC[sp.kind]] += st
        layers[LAYER_OF_KIND[sp.kind]] += st
        p_spans += sp.kind == "saddle.p"
        if (sp.kind == "saddle.q" and sp.parent >= 0
                and spans[sp.parent].kind == "saddle.p"):
            q_in_p += 1
    times["saddle.q_per_p"] = q_in_p / p_spans if p_spans else 0.0
    return times, layers


def dominant_layers(layers: dict, predicted: tuple):
    """(holds, ranking): the predicted layers' combined self time must exceed
    that of every other single layer."""
    ranking = sorted(layers.items(), key=lambda kv: kv[1], reverse=True)
    combined = sum(layers[name] for name in predicted)
    others = [t for name, t in layers.items() if name not in predicted]
    return combined > max(others, default=0.0), ranking
