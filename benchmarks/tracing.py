"""In-memory span tracing of spinsq's layers, from outside the package.

spinsq modules import each other's functions with ``from .x import y``, so a
function is reachable through several module bindings.  :class:`Tracer`
replaces every binding of each function in :data:`LAYERS` with one wrapper
that records a span (name, parent span, start, end) and restores the
originals on exit.  Spans stay in memory; :func:`self_times` turns them into
per-function self time afterwards.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "spinsq"

#: layer (spinsq module) -> wrapped functions; metric names are
#: "<module>.<function>.calls" and "<module>.<function>.self_s"
LAYERS = {
    "dicke": ("css_log_weights", "collective_moments"),
    "probe": ("mode_amplitudes", "intensity_moments_approx"),
    "backaction": ("posterior_weights", "expansion_coeffs"),
    "squeezing": ("xi_closed_form", "closed_form_moments", "xi_noisy"),
    "oracle": (
        "compare_report",
        "oracle_xi",
        "fock_posterior",
        "sample_outcome",
        "conditional_xi_distribution",
    ),
    "planner": ("plan", "table1"),
    "cli": ("main", "cmd_fig3", "cmd_fig4", "cmd_table1", "cmd_plan"),
}


def _count_exact_kernel(counters, args, result, seconds):
    if args.get("method", "exact") == "exact":
        counters["backaction.kernel_elements"] += 2 * args["ens"].n_atoms + 1
        counters["backaction.kernel_s"] += seconds


def _jx_zero(key):
    def hook(counters, args, result, seconds):
        counters[key] += bool(getattr(result, "jx_zero", False))

    return hook


#: counters read at a wrapped function's return: name -> hook
HOOKS = {
    "backaction.posterior_weights": _count_exact_kernel,
    "dicke.collective_moments": _jx_zero("dicke.jx_zero"),
    "squeezing.xi_closed_form": _jx_zero("squeezing.jx_zero"),
}


class Tracer:
    """Context manager that wraps every binding of the LAYERS functions."""

    def __init__(self):
        self.spans: list = []  # [name, parent index or -1, start, end]
        self.counters: Counter = Counter()
        self.absent: list = []  # LAYERS names the package no longer has
        self._stack: list = []
        self._patches: list = []  # (module, attribute, original)

    def __enter__(self):
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for layer, functions in LAYERS.items():
            home = sys.modules.get(f"{PACKAGE}.{layer}")
            for fn_name in functions:
                name = f"{layer}.{fn_name}"
                original = getattr(home, fn_name, None)
                if not callable(original):
                    self.absent.append(name)
                    continue
                wrapper = self._wrap(name, original, HOOKS.get(name))
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, attr, original))
                            setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()
        return False

    def _wrap(self, name, fn, hook):
        spans, stack, counters = self.spans, self._stack, self.counters
        signature = inspect.signature(fn) if hook else None

        def wrapper(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if hook:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    hook(counters, bound.arguments, result, span[3] - span[2])
                except (TypeError, KeyError, AttributeError):
                    pass  # a changed signature drops the counter, not the call
            return result

        return wrapper


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, start, end = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if end is None or a > end:
            if end is not None:
                total += end - start
            start, end = a, b
        else:
            end = max(end, b)
    if end is not None:
        total += end - start
    return total


def self_times(spans) -> list:
    """Per span: its duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for _, parent, start, end in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [
        end - start - covered_length(children.get(i, ()), start, end)
        for i, (_, _, start, end) in enumerate(spans)
    ]


def per_name(spans) -> dict:
    """name -> [calls, total self time]."""
    totals = defaultdict(lambda: [0, 0.0])
    for (name, *_), own in zip(spans, self_times(spans)):
        totals[name][0] += 1
        totals[name][1] += own
    return dict(totals)


def uncovered_fraction(spans, lo: float, hi: float) -> float:
    """Share of [lo, hi] that no top-level span covers."""
    top = [(start, end) for _, parent, start, end in spans if parent < 0]
    return 1.0 - covered_length(top, lo, hi) / (hi - lo)
