"""In-memory span tracing around the public functions of each combidetect layer.

The tracer replaces module and class attributes with timing wrappers while it
is installed and puts the originals back when it is removed; the package
itself is not edited.  Every call becomes one span (name, parent span,
operation id, start, end).  Spans stay in memory until the run ends, are then
written out, and each layer's self time is derived from them: a span's
duration minus the durations of its direct children.

Tracing is single-threaded by design: spans nest through one stack, so traced
rounds run with ``workers=1``.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import time
from pathlib import Path

import numpy as np

class Tracer:
    """Span recorder plus per-round counters for the work a layer reports."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []
        self.stack = [-1]
        self.op_id = -1
        self.counters: collections.Counter = collections.Counter()
        self._restore: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    @contextlib.contextmanager
    def span(self, name: str, op_id: int | None = None):
        """A span opened by the benchmark itself (a round or an operation)."""
        nid = self.name_id(name)
        saved_op = self.op_id
        if op_id is not None:
            self.op_id = op_id
        sid = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1]
        self.stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self.stack.pop()
            self.spans[sid] = (nid, parent, self.op_id, t0, t1)
            self.op_id = saved_op

    def wrap(self, name: str, fn, tally=None):
        nid = self.name_id(name)
        spans, stack, clock, tracer = self.spans, self.stack, time.perf_counter, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (nid, parent, tracer.op_id, t0, t1)
            if tally is not None:
                tally(tracer.counters, args, kwargs, out)
            return out

        return traced

    def patch_attr(self, owner, attr: str, name: str, tally=None):
        original = vars(owner)[attr]
        self._restore.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, tally))

    def patch_function(self, modules, fn, name: str, tally=None):
        """Wrap ``fn`` once and rebind it in every module that imported it."""
        wrapped = self.wrap(name, fn, tally)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def take_counters(self) -> dict[str, int]:
        out = dict(self.counters)
        self.counters.clear()
        return out

    # -- derived metrics ------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        rows = np.array(self.spans, dtype=np.float64).reshape(-1, 5)
        name = rows[:, 0].astype(np.int64)
        parent = rows[:, 1].astype(np.int64)
        dur = rows[:, 4] - rows[:, 3]
        child = np.zeros(len(rows))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return {
            "name": name,
            "parent": parent,
            "op": rows[:, 2].astype(np.int64),
            "start": rows[:, 3],
            "end": rows[:, 4],
            "dur": dur,
            "self": dur - child,
        }

    def layer_times(self, arr: dict, lo: int, hi: int) -> dict[str, dict[str, float]]:
        """calls, busy (inclusive) and self seconds per span name in [lo, hi)."""
        k = len(self.names)
        name = arr["name"][lo:hi]
        calls = np.bincount(name, minlength=k)
        busy = np.bincount(name, weights=arr["dur"][lo:hi], minlength=k)
        own = np.bincount(name, weights=arr["self"][lo:hi], minlength=k)
        return {
            n: {"calls": int(calls[i]), "busy": float(busy[i]), "self": float(own[i])}
            for i, n in enumerate(self.names)
        }

    def write(self, path: Path, arr: dict):
        np.savez_compressed(
            path,
            names=np.array(self.names),
            **{k: arr[k] for k in ("name", "parent", "op", "start", "end")},
        )


def _rows_tally(key: str, x_pos: int):
    def tally(counters, args, kwargs, out):
        counters[key] += int(args[x_pos].shape[0])

    return tally


def instrument(tracer: Tracer):
    """Wrap the public functions of every layer named by the benchmark."""
    import combidetect
    from combidetect import _assignment, bounds, classes, cli, core, risk, rules

    modules = (combidetect, core, classes, _assignment, rules, risk, bounds, cli)
    base = classes.SetClass
    base_sums = base.member_sums_iter

    def enum_tally(key: str, x_pos: int, skip_mu_zero: bool):
        # members_touched and bytes_gathered are computed, not measured: the
        # generic path gathers X[:, M] for every row and member, K floats each
        rows = _rows_tally(key, x_pos)

        def tally(counters, args, kwargs, out):
            rows(counters, args, kwargs, out)
            sc = args[0]
            if type(sc).member_sums_iter is not base_sums:
                return
            if skip_mu_zero and args[1] == 0.0:
                return
            touched = int(args[x_pos].shape[0]) * sc.cardinality()
            counters["classes.members_touched"] += touched
            counters["classes.bytes_gathered"] += touched * sc.K * 8

        return tally

    tracer.patch_attr(core.SeededRng, "generator", "core.generator")
    families = [base, *classes.FAMILIES.values(), classes.ExplicitClass]
    for cls in families:
        own = vars(cls)
        if "sample" in own:
            tracer.patch_attr(cls, "sample", "classes.sample")
        if "member_matrix" in own:
            tracer.patch_attr(cls, "member_matrix", "classes.member_matrix")
        if "max_values_batch" in own:
            tally = (
                enum_tally("classes.max_values_batch.rows", 1, False)
                if cls is base
                else _rows_tally("classes.max_values_batch.rows", 1)
            )
            tracer.patch_attr(cls, "max_values_batch", "classes.max_values_batch", tally)
        if "log_mean_exp_batch" in own:
            tally = (
                enum_tally("classes.log_mean_exp_batch.rows", 2, True)
                if cls is base
                else _rows_tally("classes.log_mean_exp_batch.rows", 2)
            )
            tracer.patch_attr(cls, "log_mean_exp_batch", "classes.log_mean_exp_batch", tally)

    tracer.patch_function(modules, _assignment.assignment_value, "assignment.assignment_value")
    tracer.patch_function(modules, rules.batch_rejections, "rules.batch_rejections")

    def draw_rows(counters, args, kwargs, out):
        counters["risk._draw_block.rows"] += args[3] - args[2]

    tracer.patch_function(modules, risk._draw_block, "risk._draw_block", draw_rows)
    for fn in (risk.estimate_risk, risk.estimate_bayes_risk, risk.estimate_emax0, risk.scan_critical_mu):
        tracer.patch_function(modules, fn, f"risk.{fn.__name__}")

    def scanned(counters, args, kwargs, out):
        # one overlap pass over all N members per kept cover member
        counters["bounds.greedy_cover.members_scanned"] += len(out) * args[0].cardinality()

    tracer.patch_function(modules, bounds.greedy_cover, "bounds.greedy_cover", scanned)
    tracer.patch_function(modules, bounds.dudley_bound, "bounds.dudley_bound")
    tracer.patch_function(modules, bounds.type1_bound_threshold, "bounds.type1_bound_threshold")
    tracer.patch_function(modules, cli.main, "cli.main")
