"""Span tracing for the benchmark's traced run.

The tracer replaces functions of the tmpnn modules at the module attribute
their callers look them up through (``tmpnn.model.eval_monomials_batch``,
not ``tmpnn.basis.eval_monomials_batch``), so the library itself is not
edited.  Every call becomes a span (name, start, end, parent, attributes)
kept in memory and written out when the run ends.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from collections import Counter, defaultdict

# (module, attribute, span name): the layer boundaries the traced run records.
TARGETS = (
    ("tmpnn.model", "eval_monomials_batch", "basis.eval"),
    ("tmpnn.odeview", "eval_monomials_batch", "basis.eval"),
    ("tmpnn.model", "fit", "model.fit"),
    ("tmpnn.model", "predict", "model.predict"),
    ("tmpnn.model", "forward", "model.forward"),
    ("tmpnn.model", "adamax_step", "optim.adamax"),
    ("tmpnn.data", "load_table", "data.load_table"),
    ("tmpnn.io", "save_model", "io.save_model"),
    ("tmpnn.io", "load_model", "io.load_model"),
    ("tmpnn.odeview", "extract_ode", "odeview.extract_ode"),
    ("tmpnn.odeview", "raise_order", "odeview.raise_order"),
    ("tmpnn.odeview", "integrate_reference", "odeview.integrate_reference"),
    ("tmpnn.cli", "main", "cli.main"),
)

# Targets each workload must call; a rename in tmpnn then fails the run
# instead of reading as zeros.  Each workload's set-up trains, saves and
# loads a model, so the core targets run everywhere.
_CORE = ("tmpnn.model.eval_monomials_batch", "tmpnn.model.fit",
         "tmpnn.model.predict", "tmpnn.model.adamax_step",
         "tmpnn.data.load_table", "tmpnn.io.save_model", "tmpnn.io.load_model")
EXPECTED = {
    "train": _CORE,
    "predict": _CORE,
    "cli": _CORE + ("tmpnn.cli.main",),
    "verify": _CORE + ("tmpnn.model.forward", "tmpnn.odeview.eval_monomials_batch",
                       "tmpnn.odeview.extract_ode", "tmpnn.odeview.raise_order",
                       "tmpnn.odeview.integrate_reference"),
}


class TraceError(RuntimeError):
    """A wrap target is missing, or a layer the mapping expects never ran."""


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.attrs = None


def _basis_attrs(args, kwargs, result):
    basis = args[0] if args else kwargs["basis"]
    # jac: entries of the sparse layer Jacobian the backward chain multiplies
    return {"rows": result.shape[0], "size": basis.size, "dim": basis.dim,
            "jac": sum(len(rows) for rows in basis.jac_rows)}


def _predict_attrs(args, kwargs, result):
    return {"rows": result.shape[0]}


def _fit_attrs(args, kwargs, result):
    model = args[0] if args else kwargs["model"]
    return {"diverged_steps": result.diverged_steps, "epochs": result.epochs_run,
            "steps": model.steps}


def _load_table_attrs(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return {"rows": result[1].shape[0], "bytes": os.path.getsize(path)}


def _save_attrs(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


def _load_attrs(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


_ATTRS = {
    "basis.eval": _basis_attrs,
    "model.predict": _predict_attrs,
    "model.fit": _fit_attrs,
    "data.load_table": _load_table_attrs,
    "io.save_model": _save_attrs,
    "io.load_model": _load_attrs,
}


class Tracer:
    """Installs span-recording wrappers and restores the originals."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[Span] = []
        self.calls: Counter = Counter()  # per "module.attr" target
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def _wrap(self, fn, target, name):
        spans, stack, attrs_of = self.spans, self._stack, _ATTRS.get(name)
        calls, clock = self.calls, time.perf_counter

        def traced(*args, **kwargs):
            calls[target] += 1
            span = Span(name, clock(), stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if attrs_of is not None:
                span.attrs = attrs_of(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for module_name, attr, name in self.targets:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.remove()
                raise TraceError(f"wrap target {module_name}.{attr} is missing")
            self._installed.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, f"{module_name}.{attr}", name))

    def remove(self) -> None:
        while self._installed:
            module, attr, fn = self._installed.pop()
            setattr(module, attr, fn)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    def dump(self, path) -> None:
        """Write the spans as [name, start, end, parent, attrs] rows."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([[s.name, s.start, s.end, s.parent, s.attrs]
                       for s in self.spans], fh)
            fh.write("\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it covered by its direct children."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_start = cur_end = None
        for c in sorted(children.get(i, ()), key=lambda k: spans[k].start):
            lo, hi = max(spans[c].start, s.start), min(spans[c].end, s.end)
            if hi <= lo:
                continue
            if cur_end is None or lo > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = lo, hi
            else:
                cur_end = max(cur_end, hi)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append((s.end - s.start) - covered)
    return out


def _nearest(spans, i, names):
    """Index of the closest ancestor of span i whose name is in names, or -1."""
    p = spans[i].parent
    while p >= 0 and spans[p].name not in names:
        p = spans[p].parent
    return p


def check_expected(calls: Counter, workload: str) -> None:
    missing = [target for target in EXPECTED[workload] if not calls[target]]
    if missing:
        raise TraceError(f"{workload}: expected calls never happened: "
                         f"{', '.join(missing)}")


# (name, unit) of every per-layer metric, in report order.
LAYER_METRICS = (
    ("basis.eval.calls", "count"),
    ("basis.eval.rows", "rows"),
    ("basis.eval.s", "s"),
    ("basis.eval.monomials", "count"),
    ("basis.eval.bytes_computed", "B"),
    ("model.fit.s", "s"),
    ("model.fit.self_s", "s"),
    ("model.predict.calls", "count"),
    ("model.predict.rows", "rows"),
    ("model.predict.self_s", "s"),
    ("model.gemm_flops", "flop"),
    ("model.optimizer_steps", "count"),
    ("model.diverged_steps", "count"),
    ("optim.adamax.calls", "count"),
    ("optim.adamax.s", "s"),
    ("data.load_table.s", "s"),
    ("data.load_table.rows", "rows"),
    ("data.load_table.bytes", "B"),
    ("io.load_model.s", "s"),
    ("io.save_model.s", "s"),
    ("io.model_bytes", "B"),
    ("odeview.integrate_reference.calls", "count"),
    ("odeview.integrate_reference.s", "s"),
    ("odeview.integrate_reference.self_s", "s"),
    ("odeview.field_evals", "count"),
    ("odeview.raise_order.s", "s"),
    ("cli.import_s", "s"),
    ("cli.main.self_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
)

# Counts derived from array shapes and file sizes; they repeat exactly
# from run to run.
COMPUTED = frozenset((
    "basis.eval.monomials",
    "basis.eval.bytes_computed",
    "model.gemm_flops",
    "model.optimizer_steps",
    "data.load_table.bytes",
    "io.model_bytes",
    "odeview.field_evals",
))


def layer_metrics(spans, import_s: float, overhead_s: float) -> dict:
    """Per-layer figures of one traced pass, keyed by LAYER_METRICS names."""
    selfs = self_times(spans)
    m = {name: 0.0 if unit == "s" else 0 for name, unit in LAYER_METRICS}
    # backward flops of each training forward step since the last Adamax
    # step; spans are in start order, so a batch that reaches Adamax is the
    # p basis spans just before it, and a diverged batch never reaches it
    backward = []
    for i, s in enumerate(spans):
        dur = s.end - s.start
        a = s.attrs or {}
        if s.name == "basis.eval":
            n, size, dim = a["rows"], a["size"], a["dim"]
            m["basis.eval.calls"] += 1
            m["basis.eval.rows"] += n
            m["basis.eval.s"] += dur
            m["basis.eval.monomials"] += n * size
            m["basis.eval.bytes_computed"] += 8 * n * size
            owner = _nearest(spans, i, ("model.predict", "model.forward",
                                        "model.fit",
                                        "odeview.integrate_reference"))
            kind = spans[owner].name if owner >= 0 else None
            if kind == "odeview.integrate_reference":
                m["odeview.field_evals"] += 1
            elif kind is not None:
                # forward: phi @ delta
                m["model.gemm_flops"] += 2 * n * size * dim
            if kind == "model.fit":
                # backward: phi.T @ G and G @ delta.T, then the Jacobian
                # chain, one product per nonzero Jacobian entry and row
                backward.append(4 * n * size * dim + 2 * n * a["jac"])
        elif s.name == "model.fit":
            backward.clear()
            m["model.fit.s"] += dur
            m["model.fit.self_s"] += selfs[i]
            m["model.diverged_steps"] += a["diverged_steps"]
        elif s.name == "model.predict":
            m["model.predict.calls"] += 1
            m["model.predict.rows"] += a["rows"]
            m["model.predict.self_s"] += selfs[i]
        elif s.name == "optim.adamax":
            m["optim.adamax.calls"] += 1
            m["optim.adamax.s"] += dur
            fit = _nearest(spans, i, ("model.fit",))
            if fit >= 0:
                m["model.optimizer_steps"] += 1
                m["model.gemm_flops"] += sum(backward[-spans[fit].attrs["steps"]:])
                backward.clear()
        elif s.name == "data.load_table":
            m["data.load_table.s"] += dur
            m["data.load_table.rows"] += a["rows"]
            m["data.load_table.bytes"] += a["bytes"]
        elif s.name == "io.load_model":
            m["io.load_model.s"] += dur
            m["io.model_bytes"] += a["bytes"]
        elif s.name == "io.save_model":
            m["io.save_model.s"] += dur
            m["io.model_bytes"] += a["bytes"]
        elif s.name == "odeview.integrate_reference":
            m["odeview.integrate_reference.calls"] += 1
            m["odeview.integrate_reference.s"] += dur
            m["odeview.integrate_reference.self_s"] += selfs[i]
        elif s.name == "odeview.raise_order":
            m["odeview.raise_order.s"] += dur
        elif s.name == "cli.main":
            m["cli.main.self_s"] += selfs[i]
    m["cli.import_s"] = import_s
    m["trace.spans"] = len(spans)
    m["trace.overhead_s"] = overhead_s
    return m
