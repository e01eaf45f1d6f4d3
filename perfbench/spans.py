"""Span recording at qpamp's layer boundaries, from outside the program.

``Tracer.install`` replaces the attributes that callers look up (for example
``qpamp.divergence.augustin_sandwiched_curve``, including every
``from .model import enumerate_type_class`` alias inside ``qpamp``, and
``numpy.linalg.eigh``/``eigvalsh`` as the ``qmat`` kernel boundary) with
wrappers that record a span per call; ``uninstall`` puts the originals back.
Nothing under ``src/`` changes.

A span has a name, start, end, parent span, job id and thread.  Spans stay in
memory until the run ends.  A span's self time is its duration minus the
durations of its children on the same thread; spans recorded on a thread-pool
worker count toward their layer's work and busy time but not toward any
parent's self time, because the caller waits for them in parallel.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import math
import sys
import threading
import time
import tracemalloc
from collections import defaultdict

import numpy as np

#: computed real flops of one Hermitian eigenvalue solve of dimension d:
#: the complex tridiagonal reduction, 4 * (4/3) d^3; eigenvectors not counted
EIG_FLOP_FACTOR = 16.0 / 3.0
REFERENCE_DIMS = (4, 16, 64)


class Span:
    __slots__ = ("name", "start", "end", "parent", "job", "thread", "info")

    def __init__(self, name, start, parent, job, thread):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.job = job
        self.thread = thread
        self.info = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """In-memory span recorder; one per traced pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self.job: str | None = None
        self._main = threading.get_ident()
        self._main_stack: list[Span] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            # a pool worker's first span hangs under the caller's open span
            parent = self._main_stack[-1] if self._main_stack else None
        span = Span(name, time.perf_counter(), parent, self.job, threading.get_ident())
        self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    def wrap(self, name: str, fn, info=None, memory: bool = False):
        """Wrapper recording a span per call.

        ``info(args, kwargs, result)`` returns what the metrics need from a
        successful call; an exception is recorded by its class name.  With
        ``memory`` the call runs under tracemalloc and its peak is recorded.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            traced = memory and not tracemalloc.is_tracing()
            if traced:
                tracemalloc.start()
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.info = {"error": type(exc).__name__}
                raise
            finally:
                tracer.close(span)
                if traced:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    span.info = {**(span.info or {}), "peak_bytes": peak}
            if info is not None:
                span.info = {**(span.info or {}), **info(args, kwargs, result)}
            return result

        return wrapper

    def install(self, memory: bool = False) -> None:
        """Wrap every boundary in ``BOUNDARIES`` wherever qpamp refers to it.

        With ``memory``, only the boundaries marked for it are wrapped, and
        their calls run under tracemalloc.  tracemalloc slows every
        allocation, so the memory peaks come from a pass of their own and
        the timed spans from a pass without it.
        """
        for module_name, *_ in BOUNDARIES:
            importlib.import_module(module_name)
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "qpamp"]
        for module_name, attr, name, info, peak in BOUNDARIES:
            if memory and not peak:
                continue
            module = sys.modules[module_name]
            original = getattr(module, attr)
            wrapped = self.wrap(name, original, info, memory)
            for ns in {id(m): m for m in [module, *modules]}.values():
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._patches.append((ns, key, original))
                        setattr(ns, key, wrapped)

    def uninstall(self) -> None:
        for ns, key, original in reversed(self._patches):
            setattr(ns, key, original)
        self._patches.clear()

    @contextlib.contextmanager
    def span(self, name: str):
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)


# -- what each boundary records ---------------------------------------------------


def _eig_info(args, kwargs, result):
    return {"shape": np.shape(args[0])}


def _count_info(args, kwargs, result):
    return {"count": len(result)}


def _source_key(src) -> bytes:
    return src.state_stack().tobytes() + np.asarray(src.prior).tobytes()


def _curve_info(family):
    def info(args, kwargs, result):
        src, alphas = args[0], np.asarray(args[1], dtype=float)
        rest = repr((args[2:], sorted(kwargs.items()))).encode()
        key = hashlib.sha256(
            family.encode() + _source_key(src) + alphas.tobytes() + rest
        ).hexdigest()
        return {"alphas": int(alphas.size), "key": key}

    return info


def _augustin_info(args, kwargs, result):
    return {"iterations": int(result.iterations)}


def _partition_count(size: int, bins: int) -> int:
    k = size // bins
    total = math.factorial(size)
    for _ in range(bins):
        total //= math.factorial(k)
    return total // math.factorial(bins)


def _pa_exact_info(args, kwargs, result):
    size = args[0].type.class_size()
    return {"partitions": _partition_count(size, args[1])}


def _mc_info(args, kwargs, result):
    return {"trials": int(result.trials)}


def _leakage_info(args, kwargs, result):
    return {"exact": bool(result.exact)}


def _exponent(attr):
    return ("qpamp.exponent", attr, "exponent." + attr, None, False)


#: (module, attribute, span name, info hook, record tracemalloc peak)
BOUNDARIES = (
    ("numpy.linalg", "eigh", "qmat.eigh", _eig_info, False),
    ("numpy.linalg", "eigvalsh", "qmat.eigvalsh", _eig_info, False),
    ("qpamp.model", "enumerate_type_class", "model.enumerate_type_class", _count_info, False),
    ("qpamp.model", "enumerate_n_types", "model.enumerate_n_types", _count_info, False),
    ("qpamp.divergence", "augustin_sandwiched_curve", "divergence.curve",
     _curve_info("augustin_sandwiched"), False),
    ("qpamp.divergence", "conditional_renyi_sandwiched_curve", "divergence.curve",
     _curve_info("conditional_renyi_sandwiched"), False),
    ("qpamp.divergence", "augustin_petz_up_curve", "divergence.curve",
     _curve_info("augustin_petz_up"), False),
    ("qpamp.divergence", "augustin_sandwiched", "divergence.scalar", _augustin_info, False),
    ("qpamp.divergence", "conditional_renyi_sandwiched", "divergence.scalar", None, False),
    _exponent("pa_achievability_exponent"),
    _exponent("pa_strong_converse_exponent"),
    _exponent("sc_achievability_exponent"),
    _exponent("sc_converse_exponent"),
    _exponent("dupuis_exponent"),
    _exponent("iid_exponent_via_types"),
    ("qpamp.simulate", "d_sc_exact", "simulate.exact", None, True),
    ("qpamp.simulate", "d_pa_exact", "simulate.exact", _pa_exact_info, True),
    ("qpamp.simulate", "verify_equivalence", "simulate.equivalence", None, False),
    ("qpamp.simulate", "d_pa_monte_carlo", "simulate.mc", _mc_info, False),
    ("qpamp.simulate", "d_sc_monte_carlo", "simulate.mc", _mc_info, False),
    ("qpamp.wiretap", "secrecy_exponent", "wiretap.secrecy", None, False),
    ("qpamp.wiretap", "simulate_leakage", "wiretap.leakage", _leakage_info, False),
    ("qpamp.cli", "main", "cli.main", None, False),
)


# -- span arithmetic ------------------------------------------------------------------


def self_times(spans: list[Span]) -> dict[int, float]:
    """id(span) -> duration minus its same-thread children's durations."""
    out = {id(s): s.duration for s in spans}
    for s in spans:
        if s.parent is not None and s.parent.thread == s.thread:
            out[id(s.parent)] -= s.duration
    return out


def _ancestors(span: Span):
    node = span.parent
    while node is not None:
        yield node
        node = node.parent


def _under_layer(span: Span, layer: str) -> bool:
    return any(a.layer == layer for a in _ancestors(span))


def _info(span: Span, key: str, default=None):
    return (span.info or {}).get(key, default)


def reference_rates(seed: int = 0) -> dict[int, float]:
    """GFLOP/s of a large batched numpy.linalg.eigvalsh at d = 4, 16, 64.

    Batches hold 16 MiB of complex Hermitian matrices; the median of five
    repetitions is reported, using the same flop count as the layer metric.
    """
    rng = np.random.default_rng(seed)
    rates = {}
    for d in REFERENCE_DIMS:
        batch = (1 << 24) // (16 * d * d)
        g = rng.normal(size=(batch, d, d)) + 1j * rng.normal(size=(batch, d, d))
        herm = g + np.conj(np.swapaxes(g, -1, -2))
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            np.linalg.eigvalsh(herm)
            times.append(time.perf_counter() - t0)
        rates[d] = batch * EIG_FLOP_FACTOR * d**3 / float(np.median(times)) / 1e9
    return rates


def _reference_rate(rates: dict[int, float], d: int) -> float:
    """Log-log interpolation between the measured dimensions, clamped."""
    dims = sorted(rates)
    x = math.log(min(max(d, dims[0]), dims[-1]))
    return math.exp(
        np.interp(x, [math.log(k) for k in dims], [math.log(rates[k]) for k in dims])
    )


def peak_mb(spans: list[Span]) -> float:
    """Largest tracemalloc peak of an exact-enumeration span, in MiB."""
    return max((_info(s, "peak_bytes", 0) for s in spans), default=0) / 2**20


def layer_metrics(
    spans: list[Span], rates: dict[int, float], per_job_scope: bool
) -> dict[str, float]:
    """Per-layer metrics of one traced pass, from its spans.

    ``exponent.curve_unique_frac`` counts a curve as distinct once per pass,
    or once per job with ``per_job_scope`` (cli-cold, where every job is its
    own process and nothing can be shared between jobs).
    """
    by = defaultdict(list)
    for s in spans:
        by[s.name].append(s)
    selfs = self_times(spans)
    m: dict[str, float] = {}

    eig = by["qmat.eigh"] + by["qmat.eigvalsh"]
    matrices = flops = ref_time = 0.0
    for s in eig:
        shape = _info(s, "shape")
        if shape is None:
            continue
        count, d = float(np.prod(shape[:-2])), shape[-1]
        matrices += count
        work = count * EIG_FLOP_FACTOR * d**3
        flops += work
        ref_time += work / (_reference_rate(rates, d) * 1e9)
    busy = sum(s.duration for s in eig)
    m["qmat.eig_calls"] = len(eig)
    m["qmat.eig_matrices"] = matrices
    m["qmat.eig_matrices_per_call"] = matrices / len(eig) if eig else 0.0
    m["qmat.eig_busy_s"] = busy
    m["qmat.eig_gflop_computed"] = flops / 1e9
    m["qmat.eig_rate_frac"] = ref_time / busy if busy > 0 else 0.0
    for d in REFERENCE_DIMS:
        m[f"qmat.eig_ref_gflops_d{d}"] = rates[d]

    enum = by["model.enumerate_type_class"] + by["model.enumerate_n_types"]
    m["model.enumerate_calls"] = len(enum)
    m["model.enumerate_ms"] = 1e3 * sum(s.duration for s in enum)
    m["model.sequences"] = sum(_info(s, "count", 0) for s in enum)

    curves, scalars = by["divergence.curve"], by["divergence.scalar"]
    alphas = sum(_info(s, "alphas", 0) for s in curves)
    curve_s = sum(s.duration for s in curves)
    iters = [_info(s, "iterations") for s in scalars if _info(s, "iterations") is not None]
    m["divergence.curve_calls"] = len(curves)
    m["divergence.curve_alphas"] = alphas
    m["divergence.curve_ms"] = 1e3 * curve_s
    m["divergence.curve_us_per_alpha"] = 1e6 * curve_s / alphas if alphas else 0.0
    m["divergence.scalar_solves"] = len(scalars)
    m["divergence.scalar_ms"] = 1e3 * sum(s.duration for s in scalars)
    m["divergence.scalar_iters_mean"] = float(np.mean(iters)) if iters else 0.0
    m["divergence.nonconverged"] = sum(
        1 for s in curves + scalars if _info(s, "error") == "ConvergenceError"
    )

    reports = [s for s in spans if s.layer == "exponent"]
    exp_s = sum(s.duration for s in reports)
    grid_s = sum(s.duration for s in curves if _under_layer(s, "exponent"))
    refine_s = sum(s.duration for s in scalars if _under_layer(s, "exponent"))
    m["exponent.reports"] = len(reports)
    m["exponent.ms_per_report"] = 1e3 * exp_s / len(reports) if reports else 0.0
    m["exponent.grid_share"] = grid_s / exp_s if exp_s > 0 else 0.0
    m["exponent.refine_share"] = refine_s / exp_s if exp_s > 0 else 0.0
    m["exponent.self_ms"] = 1e3 * sum(selfs[id(s)] for s in reports)
    distinct = len({(s.job if per_job_scope else None, _info(s, "key")) for s in curves})
    m["exponent.curve_unique_frac"] = distinct / len(curves) if curves else 0.0

    exact, mc = by["simulate.exact"], by["simulate.mc"]
    exact_s = sum(s.duration for s in exact)
    subsets = sum(
        float(np.prod(_info(s, "shape")[:-2]))
        for s in eig
        if _info(s, "shape") is not None
        and any(a.name == "simulate.exact" for a in _ancestors(s))
    )
    trials = sum(_info(s, "trials", 0) for s in mc)
    mc_s = sum(s.duration for s in mc)
    m["simulate.exact_calls"] = len(exact)
    m["simulate.exact_ms"] = 1e3 * exact_s
    m["simulate.subsets_computed"] = subsets
    m["simulate.partitions_computed"] = sum(_info(s, "partitions", 0) for s in exact)
    m["simulate.us_per_subset"] = 1e6 * exact_s / subsets if subsets else 0.0
    m["simulate.mc_calls"] = len(mc)
    m["simulate.mc_trials"] = trials
    m["simulate.us_per_trial"] = 1e6 * mc_s / trials if trials else 0.0
    m["simulate.refused"] = sum(
        1
        for s in spans
        if s.layer == "simulate"
        and _info(s, "error") == "CapacityError"
        and not (s.parent is not None and s.parent.layer == "simulate")
    )

    secrecy, leakage = by["wiretap.secrecy"], by["wiretap.leakage"]
    leak_children = defaultdict(float)
    for s in spans:
        if s.layer == "simulate" and s.parent is not None and s.parent.name == "wiretap.leakage":
            leak_children[id(s.parent)] += s.duration
    m["wiretap.secrecy_ms"] = 1e3 * sum(s.duration for s in secrecy)
    m["wiretap.leakage_ms"] = 1e3 * sum(s.duration for s in leakage)
    m["wiretap.leakage_self_ms"] = 1e3 * sum(
        s.duration - leak_children[id(s)] for s in leakage
    )
    m["wiretap.leakage_exact_frac"] = (
        sum(1 for s in leakage if _info(s, "exact")) / len(leakage) if leakage else 0.0
    )

    mains = by["cli.main"]
    m["cli.self_ms_per_job"] = 1e3 * sum(selfs[id(s)] for s in mains) / len(mains) if mains else 0.0
    return m
