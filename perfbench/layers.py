"""In-process tracing of cpl_kit's modules for the per-layer metrics.

Every public function defined in a ``cpl_kit`` module is wrapped in a span
(name, parent, start, end, error flag, row count), and the wrapper
is bound in place of the original in every ``cpl_kit`` module namespace
that binds it, so calls between modules are seen too. Spans opened in a
``ThreadPoolExecutor`` worker take as parent the innermost span open on the
thread that submitted the work. Concurrent worker spans share the wall
time they cover in proportion to their durations, so every layer's self
time is a share of the job's wall time and the layers sum to at most it.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import statistics
import sys
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

KINDS = ("grr", "exp", "rappor", "oue", "blh", "olh", "she", "ss")
MECHANISM_FUNCS = ("perturb_column", "decode_column", "estimate_frequencies")
#: Modules whose summed self time is reported as ``layer.<module>.self_s``.
MODULES = ("cli", "data_model", "mechanisms", "statistical", "cpl_bound", "cpl_exact",
           "calibration", "benchmarks", "composition", "correlation_metrics", "rng")
#: Spans the per-layer metrics read; one missing from the program is
#: reported as absent and its metrics read 0.
NAMED = ("cli.main", "data_model.load_csv", "data_model.expand_dataset",
         *(f"mechanisms.{f}" for f in MECHANISM_FUNCS), "mechanisms.transition_matrix",
         "statistical.perturb_dataset", "statistical.statistical_cpl",
         "statistical.sup_ratio_leakage", "cpl_bound.cpl_bound", "cpl_exact.cpl_exact",
         "calibration.worst_tpl", "benchmarks.utility_benchmark")


def _leading_rows(args, kwargs, result) -> int:
    values = args[1] if len(args) > 1 else kwargs.get("values")
    return int(np.shape(values)[0]) if np.ndim(values) else 0


def _result_rows(args, kwargs, result) -> int:
    return int(result.n_records)


#: Row counters: how many records a call processed.
ROW_COUNTERS = {"mechanisms.perturb_column": _leading_rows,
                "data_model.expand_dataset": _result_rows}


@dataclass
class Span:
    name: str
    kind: str | None
    parent: int | None
    #: Opened on a pool thread, under a span of the submitting thread.
    pooled: bool
    start: float
    end: float = 0.0
    error: bool = False
    rows: int = 0

    @property
    def module(self) -> str:
        return self.name.partition(".")[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def _kind(args, kwargs) -> str | None:
    spec = args[0] if args else kwargs.get("spec")
    return getattr(spec, "kind", None)


class Tracer:
    """Collects spans while installed; ``spans`` holds one job's worth."""

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self.originals = self._discover()
        self.absent = sorted(set(NAMED) - set(self.originals))

    @staticmethod
    def _discover() -> dict:
        package = importlib.import_module("cpl_kit")
        found = {}
        for info in pkgutil.iter_modules(package.__path__):
            mod = importlib.import_module(f"cpl_kit.{info.name}")
            for name, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not name.startswith("_")):
                    found[f"{info.name}.{name}"] = fn
        return found

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else getattr(self._local, "adopted", None)

    def _wrap(self, name: str, fn):
        count_rows = ROW_COUNTERS.get(name)
        kinded = name.startswith("mechanisms.") and name.split(".")[1] in MECHANISM_FUNCS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            adopted = None if stack else getattr(self._local, "adopted", None)
            span = Span(name, _kind(args, kwargs) if kinded else None,
                        stack[-1] if stack else adopted, adopted is not None, 0.0)
            with self._lock:
                index = len(self.spans)
                self.spans.append(span)
            stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if count_rows:
                try:
                    span.rows = count_rows(args, kwargs, result)
                except (AttributeError, IndexError, TypeError, ValueError):
                    pass
            return result

        return traced

    @contextmanager
    def installed(self):
        """Bind the span wrappers everywhere, and adopt pool work, for the
        duration of the block."""
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in self.originals.items()}
        patched = []
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "cpl_kit" and not mod_name.startswith("cpl_kit."):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    patched.append((mod, attr, value))
                    setattr(mod, attr, wrappers[id(value)])
        submit = ThreadPoolExecutor.submit
        tracer = self

        def adopting_submit(pool, fn, /, *args, **kwargs):
            parent = tracer.current()

            def adopted(*a, **kw):
                tracer._local.adopted = parent
                try:
                    return fn(*a, **kw)
                finally:
                    tracer._local.adopted = None

            return submit(pool, adopted, *args, **kwargs)

        ThreadPoolExecutor.submit = adopting_submit
        try:
            yield self
        finally:
            ThreadPoolExecutor.submit = submit
            for mod, attr, value in patched:
                setattr(mod, attr, value)


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > max(start, reach):
            total += end - max(start, reach)
            reach = end
    return total


def attribute(spans: list[Span]) -> tuple[list[float], list[float]]:
    """Wall-time share (total, self) of every span.

    A span on the main thread keeps its duration. The pool-thread children
    of one span share the wall time their union covers inside it, each in
    proportion to its duration, and pass that scale on to their subtrees.
    """
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(i)
    scale = [1.0] * len(spans)
    for i, s in enumerate(spans):  # a parent is always recorded before its children
        kids = children.get(i, ())
        same = [k for k in kids if not spans[k].pooled]
        pooled = [k for k in kids if spans[k].pooled]
        for k in same:
            scale[k] = scale[i]
        if pooled:
            covered = _covered([(max(spans[k].start, s.start), min(spans[k].end, s.end))
                                for k in pooled])
            covered = min(covered, s.duration - sum(spans[k].duration for k in same))
            busy = sum(spans[k].duration for k in pooled)
            for k in pooled:
                scale[k] = scale[i] * max(covered, 0.0) / busy if busy > 0 else 0.0
    total = [scale[i] * s.duration for i, s in enumerate(spans)]
    own = [total[i] - sum(total[k] for k in children.get(i, ())) for i in range(len(spans))]
    return total, own


def job_layers(spans: list[Span], surrogates: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced job, each with its unit."""
    total, own = attribute(spans)
    s, self_s, kind_s, layer = (defaultdict(float) for _ in range(4))
    calls, errors, rows = (defaultdict(int) for _ in range(3))
    for i, span in enumerate(spans):
        s[span.name] += total[i]
        self_s[span.name] += own[i]
        calls[span.name] += 1
        errors[span.name] += span.error
        rows[span.name] += span.rows
        layer[span.module] += own[i]
        if span.kind:
            kind_s[f"{span.name}.{span.kind}"] += total[i]

    m = {
        "data_model.load_csv.s": (s["data_model.load_csv"], "s"),
        "data_model.expand_dataset.s": (s["data_model.expand_dataset"], "s"),
        "data_model.expand_dataset.rows": (rows["data_model.expand_dataset"], "count"),
    }
    for f in MECHANISM_FUNCS:
        m[f"mechanisms.{f}.s"] = (s[f"mechanisms.{f}"], "s")
        for kind in KINDS:
            m[f"mechanisms.{f}.{kind}.s"] = (kind_s[f"mechanisms.{f}.{kind}"], "s")
    m["mechanisms.rows"] = (rows["mechanisms.perturb_column"], "count")
    m["mechanisms.transition_matrix.s"] = (s["mechanisms.transition_matrix"], "s")
    m["mechanisms.transition_matrix.calls"] = (calls["mechanisms.transition_matrix"], "count")
    m["statistical.perturb_dataset.s"] = (s["statistical.perturb_dataset"], "s")
    m["statistical.statistical_cpl.s"] = (s["statistical.statistical_cpl"], "s")
    m["statistical.sup_ratio_leakage.s"] = (s["statistical.sup_ratio_leakage"], "s")
    m["statistical.sup_ratio_leakage.calls"] = (calls["statistical.sup_ratio_leakage"], "count")
    m["statistical.sup_ratio_leakage.errors"] = (errors["statistical.sup_ratio_leakage"], "count")
    m["statistical.surrogate_ms"] = (
        1e3 * s["statistical.statistical_cpl"] / surrogates if surrogates else 0.0, "ms")
    bound_calls = calls["cpl_bound.cpl_bound"]
    m["cpl_bound.cpl_bound.s"] = (s["cpl_bound.cpl_bound"], "s")
    m["cpl_bound.cpl_bound.calls"] = (bound_calls, "count")
    m["cpl_bound.cpl_bound.us_per_call"] = (
        1e6 * s["cpl_bound.cpl_bound"] / bound_calls if bound_calls else 0.0, "us")
    m["cpl_exact.cpl_exact.s"] = (s["cpl_exact.cpl_exact"], "s")
    m["cpl_exact.cpl_exact.calls"] = (calls["cpl_exact.cpl_exact"], "count")
    probes = calls["calibration.worst_tpl"]
    m["calibration.worst_tpl.s"] = (s["calibration.worst_tpl"], "s")
    m["calibration.worst_tpl.calls"] = (probes, "count")
    m["calibration.probe_ms"] = (1e3 * s["calibration.worst_tpl"] / probes if probes else 0.0, "ms")
    m["benchmarks.utility_benchmark.self_s"] = (self_s["benchmarks.utility_benchmark"], "s")
    m["cli.main.self_s"] = (self_s["cli.main"], "s")
    for mod in MODULES:
        m[f"layer.{mod}.self_s"] = (layer[mod], "s")
    m["layer.total_s"] = (sum(layer.values()), "s")
    return m


def summarize(per_job: list[dict], traced_s: list[float],
              untraced_s: list[float]) -> dict[str, tuple[float, str]]:
    """Median of each per-job layer metric, plus the traced and untraced job
    times and their difference, the tracing overhead."""
    m = {name: (statistics.median(job[name][0] for job in per_job), unit)
         for name, (_, unit) in per_job[0].items()}
    traced, untraced = statistics.median(traced_s), statistics.median(untraced_s)
    m["trace.job_s"] = (traced, "s")
    m["trace.untraced_job_s"] = (untraced, "s")
    m["trace.overhead_s"] = (traced - untraced, "s")
    return m
