"""Span tracer installed into thermoshift from outside.

Each traced public function is replaced by a wrapper that records a span
(name, start, end, parent) in memory.  The wrapper is installed into every
module namespace that binds the function: ``cli`` and ``approx`` import
``perron_data`` and friends by name, so patching ``thermoshift.transfer``
alone would miss their calls.  The hottest inner calls (Birkhoff sums, word
probabilities, admissibility tests) only bump a counter, because a span per
call would cost more than the call.

Span names are ``<module>.<function>``; self time is a span's duration minus
the durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

# module -> public functions wrapped in spans named "<module>.<function>"
SPANS = {
    "cli": ("main", "parse_config", "run_experiment"),
    "systems": ("builtin_system", "builtin_shift"),
    "shift": (
        "build_sft",
        "is_topologically_mixing",
        "enumerate_words",
        "enumerate_periodic",
        "higher_block_recode",
    ),
    "potential": ("random_function", "recode_to_markovian"),
    "measures": (
        "random_markov_measure",
        "integrate",
        "block_entropy",
        "conditional_entropy",
    ),
    "transfer": (
        "perron_data",
        "transfer_matrix",
        "gibbs_certificate",
        "partition_sum",
        "gurevich_estimate",
    ),
    "bounds": (
        "pressure_gap_bound",
        "finitary_gap_bound",
        "block_entropy_gap_bound",
        "reduction_step_norms",
        "cohomology_residual",
        "entropy_averaging_check",
    ),
    "approx": (
        "periodic_orbit_measure",
        "periodic_orbit_harness",
        "combined_orbit_harness",
        "stability_bound",
        "truncate",
        "truncation_harness",
        "orbit_entropy_identity",
    ),
}
# (module, class, method) -> span name
_METHOD_SPANS = {
    ("potential", "LocallyConstantFunction", "__init__"): "potential.lcf_construct",
    ("potential", "LocallyConstantFunction", "norms"): "potential.norms",
}
# hot calls, counted and never timed: (module, class or None, name) -> name
COUNTED = {
    ("potential", "LocallyConstantFunction", "birkhoff_sum"): "potential.birkhoff_sum",
    ("measures", "MarkovMeasure", "word_probability"): "measures.word_probability",
    ("shift", "TransitionMatrix", "is_word"): "shift.is_word",
    ("measures", None, "kl_divergence"): "measures.kl_divergence",
}
# functions that return BoundReports; only the outermost one in a call
# chain is counted, since harnesses build reports from other reports
REPORTERS = {
    "bounds.pressure_gap_bound",
    "bounds.finitary_gap_bound",
    "bounds.block_entropy_gap_bound",
    "approx.periodic_orbit_harness",
    "approx.combined_orbit_harness",
    "approx.stability_bound",
    "approx.truncation_harness",
}
LAYERS = tuple(SPANS)
PACKAGE = "thermoshift"


@dataclass
class SpanStats:
    calls: int = 0
    inclusive: float = 0.0  # outermost spans of the name only
    self_time: float = 0.0


def summarize(spans) -> dict:
    """Per-name call count, inclusive and self time of a span list.

    ``spans`` holds (name, start, end, parent) tuples, parent being the
    index of the enclosing span or -1.  A span nested in a span of the same
    name adds to the self time but not again to the inclusive time.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats = {}
    for i, (name, start, end, parent) in enumerate(spans):
        st = stats.setdefault(name, SpanStats())
        st.calls += 1
        st.self_time += (end - start) - child_time[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            st.inclusive += end - start
    return stats


class Tracer:
    """Records spans and counters while installed (``with tracer:``)."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counts = Counter()
        self.perron = []  # every PerronData returned, for the solver probes
        self.reports = 0
        self.vacuous = 0
        self._open = []  # indices of spans not yet closed
        self._patches = []

    # -- wrappers ------------------------------------------------------

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._open, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append((name, None, None, parent))  # open until the call returns
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._on_error(name, exc)
                raise
            finally:
                spans[index] = (name, start, clock(), parent)
                stack.pop()
            self._on_result(name, result)
            return result

        return traced

    def count(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _on_error(self, name, exc):
        kind = type(exc).__name__
        if name == "shift.enumerate_words" and kind == "EnumerationLimitError":
            self.counts["shift.enumeration_refusals"] += 1
        if name == "transfer.perron_data" and kind == "EigensolverError":
            self.counts["transfer.solver_errors"] += 1

    def _on_result(self, name, result):
        if name == "shift.enumerate_words":
            self.counts["shift.words_listed"] += len(result)
        elif name == "shift.enumerate_periodic":
            self.counts["shift.periodic_words_listed"] += len(result)
        elif name == "transfer.perron_data":
            self.perron.append(result)
        elif name in REPORTERS and not any(self.spans[i][0] in REPORTERS for i in self._open):
            reports = result if isinstance(result, list) else [result]
            self.reports += len(reports)
            self.vacuous += sum(1 for r in reports if r.vacuous)

    # -- installation --------------------------------------------------

    def install(self):
        """Replace every traced function in every module that binds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        replacements = {}
        for layer, names in SPANS.items():
            home = sys.modules[f"{PACKAGE}.{layer}"]
            for attr in names:
                original = getattr(home, attr)
                replacements[id(original)] = (original, self.wrap(f"{layer}.{attr}", original))
        for (layer, cls, attr), name in COUNTED.items():
            if cls is None:
                original = getattr(sys.modules[f"{PACKAGE}.{layer}"], attr)
                replacements[id(original)] = (original, self.count(name, original))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, hit[1])
        for (layer, cls, attr), name in {**_METHOD_SPANS, **COUNTED}.items():
            if cls is None:
                continue
            owner = getattr(sys.modules[f"{PACKAGE}.{layer}"], cls)
            original = owner.__dict__[attr]
            make = self.wrap if name in _METHOD_SPANS.values() else self.count
            self._patches.append((owner, attr, original))
            setattr(owner, attr, make(name, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def span_names() -> list:
    names = [f"{layer}.{attr}" for layer, attrs in SPANS.items() for attr in attrs]
    return names + list(_METHOD_SPANS.values())


def solver_probes(perron) -> tuple:
    """(worst relative eigen-residual, smallest 1 - kappa) over PerronData.

    The residual of a pair is max(|hB - lam h|_inf / (lam |h|_inf),
    |B nu - lam nu|_inf / (lam |nu|_inf)), recomputed from the returned
    matrix and vectors, independently of the solver's own stopping test.
    """
    worst, gap = 0.0, 1.0
    for d in perron:
        b, lam, h, nu = d.matrix, d.lam, d.h, d.nu
        left = np.max(np.abs(h @ b - lam * h)) / (lam * np.max(np.abs(h)))
        right = np.max(np.abs(b @ nu - lam * nu)) / (lam * np.max(np.abs(nu)))
        worst = max(worst, float(left), float(right))
        gap = min(gap, 1.0 - float(d.kappa))
    return worst, gap


def layer_metrics(tracer: Tracer) -> dict:
    """Named per-layer numbers of one traced batch (times in seconds)."""
    stats = {name: SpanStats() for name in span_names()}
    stats.update(summarize(tracer.spans))
    out = {}
    for name, st in stats.items():
        out[f"{name}_s"] = st.inclusive
        out[f"{name}_self_s"] = st.self_time
        out[f"{name}_calls"] = st.calls
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(st.self_time for n, st in stats.items()
                                     if n.startswith(layer + "."))
        out[f"{layer}.calls"] = sum(st.calls for n, st in stats.items()
                                    if n.startswith(layer + "."))
    for name in COUNTED.values():
        out[f"{name}_calls"] = tracer.counts[name]
    for name in ("shift.words_listed", "shift.periodic_words_listed",
                 "shift.enumeration_refusals", "transfer.solver_errors"):
        out[name] = tracer.counts[name]
    out["potential.lcf_constructions"] = out["potential.lcf_construct_calls"]
    out["transfer.perron_states_max"] = max((d.shift.n for d in tracer.perron), default=0)
    residual, gap = solver_probes(tracer.perron)
    out["transfer.eig_residual_max"] = residual
    out["transfer.gap_min"] = gap
    out["bounds.reports"] = tracer.reports
    out["bounds.vacuous_frac"] = tracer.vacuous / tracer.reports if tracer.reports else 0.0
    out["trace.spans"] = len(tracer.spans)
    return out
