"""Outside-in tracer: spans and counters at the package's module boundaries.

Nothing under ``src/`` knows about this file.  ``Tracer.installed()`` swaps
every binding of each traced function -- the defining module's global, every
``from .x import name`` copy in sibling modules and the package namespace --
for a thin wrapper, and puts the originals back on exit.  Patching only the
defining module would miss callers that imported the name: ``harness`` binds
its own ``jump_count`` and ``_log_kernel_values``, while
``functionals._exceedance_count`` calls the module-global ``jump_count``.

A span is opened only where a call enters a group from outside it: a call
made while a span of the same group is open (``mehler_kernel`` calling
``ktilde``, ``rt_at`` calling ``rt_j``) runs unwrapped, so ``busy_s`` never
counts a nested interval twice and ``calls`` counts boundary crossings.
Self time of a span is its duration minus the durations of its direct child
spans; the per-layer ``self_s`` sums that over the layer's spans.  Time in
functions that are not wrapped (``quadratic_R``, ``GaussianMeasure.logpdf``,
``_bump_profile``) counts as self time of the nearest wrapped caller.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from time import perf_counter
from typing import Callable, NamedTuple

PACKAGE = "ou_jump_lab"
LAYERS = ("functionals", "semigroup", "kernels", "model", "harness")
ROOT_GROUP = "harness.run"


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _samples(args, kwargs) -> dict:
    return {"samples": _arg(args, kwargs, 0, "curve").n_samples}


def _seminorm_pairs(pos_lambdas: int) -> Callable:
    def count(args, kwargs) -> dict:
        curves = _arg(args, kwargs, 0, "curves")
        lambdas = _arg(args, kwargs, pos_lambdas, "lambdas")
        return {"pairs": len(curves) * len(lambdas)}
    return count


def _kernel_pairs(args, kwargs) -> dict:
    return {"pairs": _arg(args, kwargs, 4, "xs").shape[0]}


def _field_points(pos_xs: int) -> Callable:
    def count(args, kwargs) -> dict:
        xs = _arg(args, kwargs, pos_xs, "xs")
        ts = _arg(args, kwargs, pos_xs + 1, "ts")
        return {"points": xs.shape[0] * ts.size}
    return count


class Target(NamedTuple):
    """One traced callable: ``owner`` is a module name, or ``module:Class``."""

    owner: str
    attr: str
    group: str
    count: "Callable | None" = None


TARGETS = (
    Target("functionals", "jump_count", "functionals.jump_count", _samples),
    Target("functionals", "jump_count_dp", "functionals.jump_count_dp"),
    Target("functionals", "rho_variation", "functionals.rho_variation"),
    Target("functionals", "weak_jump_quasi_seminorm", "functionals.seminorm",
           _seminorm_pairs(3)),
    Target("functionals", "jump_quasi_seminorm", "functionals.seminorm",
           _seminorm_pairs(4)),
    Target("semigroup", "_node_system", "semigroup.node_system"),
    Target("semigroup:LocalizationScheme", "rt_at", "semigroup.localization"),
    Target("semigroup:LocalizationScheme", "rt_j", "semigroup.localization"),
    Target("semigroup:LocalizationScheme", "r_j", "semigroup.localization"),
    Target("semigroup:LocalizationScheme", "r_weights", "semigroup.localization"),
    Target("semigroup", "eta", "semigroup.localization"),
    Target("semigroup", "_eta_unchecked", "semigroup.localization"),
    Target("semigroup", "apply_semigroup_kernel", "semigroup.route_kernel"),
    Target("semigroup", "apply_semigroup_kolmogorov", "semigroup.route_kolmogorov"),
    Target("semigroup", "apply_global", "semigroup.global"),
    Target("semigroup", "_adaptive_integral", "semigroup.adaptive"),
    Target("semigroup", "delta_op", "semigroup.operators"),
    Target("semigroup", "main_op", "semigroup.operators"),
    Target("semigroup", "main_op_convolution", "semigroup.operators"),
    Target("semigroup", "apply_local", "semigroup.operators"),
    Target("semigroup", "expect_invariant", "semigroup.operators"),
    Target("semigroup", "build_localization", "semigroup.operators"),
    Target("kernels", "_log_kernel_values", "kernels.log_kernel", _kernel_pairs),
    Target("kernels", "ktilde", "kernels.scalar"),
    Target("kernels", "mehler_kernel", "kernels.scalar"),
    Target("kernels", "n_factor", "kernels.scalar"),
    Target("kernels", "kernel_difference", "kernels.scalar"),
    Target("kernels", "dt_kernel_difference", "kernels.scalar"),
    Target("model:CovarianceFamily", "qt_bundle", "model.qt_bundle"),
    Target("model", "cov_qt", "model.cov_qt"),
    Target("model", "matrix_exp", "model.matrix_exp"),
    Target("model", "cov_qinf", "model.cov_qinf"),
    Target("harness", "_exact_field", "harness.fields", _field_points(5)),
    Target("harness", "_cell_field", "harness.fields", _field_points(5)),
    Target("harness", "_global_field", "harness.fields", _field_points(4)),
)

# (metric, unit, better); every one of these is printed by a traced run
LAYER_METRICS = (
    ("functionals.jump_count.calls", "count", "lower"),
    ("functionals.jump_count.samples", "count", "lower"),
    ("functionals.jump_count.busy_s", "s", "lower"),
    ("functionals.seminorm.calls", "count", "lower"),
    ("functionals.seminorm.pairs", "count", "lower"),
    ("functionals.seminorm.eval_ratio", "ratio", "lower"),
    ("functionals.seminorm.busy_s", "s", "lower"),
    ("functionals.rho_variation.calls", "count", "lower"),
    ("functionals.rho_variation.busy_s", "s", "lower"),
    ("functionals.jump_count_dp.calls", "count", "lower"),
    ("functionals.jump_count_dp.busy_s", "s", "lower"),
    ("functionals.self_s", "s", "lower"),
    ("semigroup.node_system.calls", "count", "lower"),
    ("semigroup.node_system.busy_s", "s", "lower"),
    ("semigroup.localization.calls", "count", "lower"),
    ("semigroup.localization.busy_s", "s", "lower"),
    ("semigroup.route_kernel.calls", "count", "lower"),
    ("semigroup.route_kernel.busy_s", "s", "lower"),
    ("semigroup.route_kolmogorov.calls", "count", "lower"),
    ("semigroup.route_kolmogorov.busy_s", "s", "lower"),
    ("semigroup.global.calls", "count", "lower"),
    ("semigroup.global.busy_s", "s", "lower"),
    ("semigroup.adaptive.calls", "count", "lower"),
    ("semigroup.adaptive.busy_s", "s", "lower"),
    ("semigroup.adaptive.failed", "count", "lower"),
    ("semigroup.operators.calls", "count", "lower"),
    ("semigroup.operators.busy_s", "s", "lower"),
    ("semigroup.self_s", "s", "lower"),
    ("kernels.log_kernel.calls", "count", "lower"),
    ("kernels.log_kernel.pairs", "count", "lower"),
    ("kernels.log_kernel.busy_s", "s", "lower"),
    ("kernels.scalar.calls", "count", "lower"),
    ("kernels.scalar.busy_s", "s", "lower"),
    ("kernels.self_s", "s", "lower"),
    ("model.qt_bundle.calls", "count", "lower"),
    ("model.qt_bundle.hit_ratio", "ratio", "higher"),
    ("model.cov_qt.calls", "count", "lower"),
    ("model.cov_qt.busy_s", "s", "lower"),
    ("model.matrix_exp.calls", "count", "lower"),
    ("model.cov_qinf.calls", "count", "lower"),
    ("model.self_s", "s", "lower"),
    ("harness.field_points", "count", "lower"),
    ("harness.self_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

TIME_METRICS = frozenset(n for n, unit, _ in LAYER_METRICS if unit == "s")


class Tracer:
    """In-memory span recorder plus per-group counters for one round.

    Single-threaded by design: the benchmark pins every pool to one thread,
    so spans nest strictly and a plain stack gives each span its parent.
    """

    def __init__(self) -> None:
        self.missing: list = []
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self._child: list = []
        self._groups: list = []
        self._stack: list = []
        self._open: dict = {}
        self.counts: dict = {}
        self.busy: dict = {}
        self.self_s = {layer: 0.0 for layer in LAYERS}

    def _bump(self, key: str, by=1) -> None:
        self.counts[key] = self.counts.get(key, 0) + by

    def open(self, name: str, group: str, extra: "dict | None") -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(None)
        self._child.append(0.0)
        self._groups.append(group)
        self._stack.append(idx)
        self._open[group] = self._open.get(group, 0) + 1
        self._bump(group + ".calls")
        if extra:
            for key, val in extra.items():
                self._bump(group + "." + key, val)
        # counters that are ratios of work done inside another group
        if group == "functionals.jump_count" and self._open.get("functionals.seminorm"):
            self._bump("functionals.seminorm.jump_calls")
        if group == "model.cov_qt" and self._open.get("model.qt_bundle"):
            self._bump("model.qt_bundle.misses")
        self.starts.append(perf_counter())
        return idx

    def close(self, idx: int, failed: bool) -> None:
        end = perf_counter()
        self.ends[idx] = end
        self._stack.pop()
        group = self._groups[idx]
        self._open[group] -= 1
        dur = end - self.starts[idx]
        self.busy[group] = self.busy.get(group, 0.0) + dur
        self.self_s[group.split(".", 1)[0]] += dur - self._child[idx]
        parent = self.parents[idx]
        if parent >= 0:
            self._child[parent] += dur
        if failed:
            self._bump(group + ".failed")

    def span(self, name: str, group: str, fn: Callable):
        """Run ``fn()`` inside one span (the benchmark's own root spans)."""
        idx = self.open(name, group, None)
        failed = True
        try:
            out = fn()
            failed = False
            return out
        finally:
            self.close(idx, failed)

    def _wrap(self, target: Target, orig: Callable) -> Callable:
        group = target.group
        name = f"{target.owner.split(':')[-1]}.{target.attr}"
        count = target.count
        opened = self._open

        def extra(args, kwargs):
            try:
                return count(args, kwargs)
            except (AttributeError, IndexError, KeyError, TypeError):
                # a changed signature costs the counter, never the call
                self._bump("trace.count_errors")
                return None

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if opened.get(group):
                return orig(*args, **kwargs)
            idx = self.open(name, group, extra(args, kwargs) if count else None)
            failed = True
            try:
                out = orig(*args, **kwargs)
                failed = False
                return out
            finally:
                self.close(idx, failed)

        return wrapper

    def installed(self) -> "_Patch":
        return _Patch(self)

    def summary(self) -> dict:
        """Per-layer metrics of everything this tracer recorded."""
        c = self.counts
        busy = self.busy
        out = {}
        for metric, _, _ in LAYER_METRICS:
            if metric.endswith(".self_s"):
                out[metric] = self.self_s[metric.split(".", 1)[0]]
            elif metric.endswith(".busy_s"):
                out[metric] = busy.get(metric[: -len(".busy_s")], 0.0)
            else:
                out[metric] = c.get(metric, 0)
        pairs = c.get("functionals.seminorm.pairs", 0)
        out["functionals.seminorm.eval_ratio"] = (
            c.get("functionals.seminorm.jump_calls", 0) / pairs if pairs else 0.0
        )
        lookups = c.get("model.qt_bundle.calls", 0)
        out["model.qt_bundle.hit_ratio"] = (
            1.0 - c.get("model.qt_bundle.misses", 0) / lookups if lookups else 0.0
        )
        out["harness.field_points"] = c.get("harness.fields.points", 0)
        out["trace.spans"] = len(self.names)
        del out["trace.overhead_s"]   # filled in by the caller, who has both runs
        return out

    def write_spans(self, path) -> None:
        """Write the recorded spans as gzipped JSON lines, one span a line."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({
                    "id": i, "name": name, "start": self.starts[i],
                    "end": self.ends[i], "parent": self.parents[i],
                }) + "\n")


class _Patch:
    """Context manager that swaps every binding of every target."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.undo: list = []

    def __enter__(self) -> Tracer:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        missing = []
        for target in TARGETS:
            mod_name, _, cls_name = target.owner.partition(":")
            home = sys.modules.get(f"{PACKAGE}.{mod_name}")
            owner = getattr(home, cls_name, None) if cls_name else home
            orig = owner.__dict__.get(target.attr) if owner is not None else None
            if not callable(orig):
                missing.append(f"{target.owner}.{target.attr}")
                continue
            wrapper = self.tracer._wrap(target, orig)
            if cls_name:
                self._set(owner, target.attr, wrapper)
                continue
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        self._set(mod, attr, wrapper)
        self.tracer.missing = missing
        return self.tracer

    def _set(self, obj, attr: str, val) -> None:
        self.undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, val)

    def __exit__(self, *exc) -> None:
        for obj, attr, val in reversed(self.undo):
            setattr(obj, attr, val)
        self.undo.clear()
