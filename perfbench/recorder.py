"""Span recorder for the traced run, and the per-layer metrics built from it.

The recorder wraps functions from the outside: it replaces the bindings
that call sites look up (``entmeas.variational.sdp_solve``,
``entmeas.cli.load_state``, ...) with wrappers that record a span, and puts
the originals back on ``uninstall``.  Nothing inside ``entmeas`` changes.

A span is ``[id, name, start, end, parent id, attrs]``.  Spans are kept in
memory and written once, at the end of the run.  The ``batch`` command runs
its entries on a thread pool; a span opened on a pool thread with nothing
open on that thread takes the innermost span of the main thread, the
``cli.run`` call that owns the pool, as its parent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import threading
import time

MODULES = ("cli", "states", "closed_form", "locc", "gaussian", "sdp",
           "variational", "bounds")
# every public function of these modules is a span of that layer
WHOLE_LAYERS = ("closed_form", "locc", "gaussian", "variational", "bounds")
# span names of the functions that per-layer metrics name directly; the
# cli, states and sdp entries are traced only through this table
RENAMED = {
    "cli.run": "cli.run",
    "states.load_state": "states.load_state",
    "sdp.sdp_solve": "sdp.solve",
    "variational.minimize_over_ppt_states": "variational.lmo",
    "variational.relative_entropy_of_entanglement": "variational.ree",
    "variational.best_separable_approximation": "variational.bsa",
    "variational.rains_bound": "variational.rains",
    "bounds.bounds_report": "bounds.report",
}


def _sdp_attrs(result, args, kwargs):
    problem = args[0] if args else kwargs["problem"]
    return [int(result.iterations), result.status, int(problem.num_constraints)]


def _ree_attrs(result, args, kwargs):
    return [int(result.iterations), result.status]


ATTRS = {"sdp.solve": _sdp_attrs, "variational.ree": _ree_attrs}


class Recorder:
    """Records spans from wrapped entmeas functions while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = self._stack()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        attrs_of = ATTRS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (self._main[-1] if self._main else None)
            span = [next(self._ids), name, clock(), None, parent, None]
            stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
                self.spans.append(span)
            if attrs_of is not None:
                span[5] = attrs_of(result, args, kwargs)
            return result
        return wrapper

    def install(self) -> None:
        """Replace every call-site binding of the traced functions."""
        mods = {m: importlib.import_module(f"entmeas.{m}") for m in MODULES}
        names = {}
        for layer, mod in mods.items():
            for attr, obj in vars(mod).items():
                if not (inspect.isfunction(obj) and obj.__module__ == mod.__name__):
                    continue
                key = f"{layer}.{attr}"
                if key in RENAMED:
                    names[obj] = RENAMED[key]
                elif layer in WHOLE_LAYERS and not attr.startswith("_"):
                    names[obj] = key
        wrappers = {fn: self._wrap(name, fn) for fn, name in names.items()}
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, attr, wrappers[obj])
        states = mods["states"]
        for cls in (states.DensityOperator, states.PureState):
            self._patch(cls, "__init__", self._wrap("states.validate", cls.__init__))

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans, key=lambda s: s[0]):
                fh.write(json.dumps(span) + "\n")


def _union_length(intervals) -> float:
    total, end = 0.0, None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def layer_metrics(spans: list[list], rounds: int, batch_entries: int,
                  overhead: float) -> dict[str, float]:
    """Per-layer metrics per traced round, from the recorded spans.

    Counts and seconds are per round, so two traced runs of one seed give
    the same counts whatever their length.  A ratio whose base is empty on
    a workload reads 0.
    """
    by_id = {s[0]: s for s in spans}
    children: dict[int, list] = {}
    for s in spans:
        if s[4] in by_id:
            children.setdefault(s[4], []).append(s)

    def layer(s):
        return s[1].split(".", 1)[0]

    def dur(s):
        return s[3] - s[2]

    def self_time(s):
        kids = [(max(k[2], s[2]), min(k[3], s[3])) for k in children.get(s[0], ())]
        return dur(s) - _union_length([(a, b) for a, b in kids if b > a])

    def ancestors(s):
        while s[4] in by_id:
            s = by_id[s[4]]
            yield s

    def outermost(pred):
        return [s for s in spans if pred(s)
                and not any(pred(a) for a in ancestors(s))]

    def named(name):
        return [s for s in spans if s[1] == name]

    def ratio(num, den):
        return num / den if den else 0.0

    rounds = max(1, rounds)
    m: dict[str, float] = {}

    cli_runs = named("cli.run")
    m["cli.run.calls"] = len(cli_runs) / rounds
    m["cli.run.self_s"] = sum(self_time(s) for s in cli_runs) / rounds
    m["cli.batch.entries"] = batch_entries / rounds

    loads = named("states.load_state")
    m["states.load_state.calls"] = len(loads) / rounds
    m["states.load_state.s"] = sum(dur(s) for s in loads) / rounds
    m["states.validate.calls"] = len(named("states.validate")) / rounds
    m["states.validate.s"] = sum(
        dur(s) for s in outermost(lambda s: s[1] == "states.validate")) / rounds

    for name in ("closed_form", "locc", "gaussian"):
        top = outermost(lambda s, name=name: layer(s) == name)
        m[f"{name}.calls"] = len(top) / rounds
        m[f"{name}.s"] = sum(dur(s) for s in top) / rounds

    solves = named("sdp.solve")
    solve_s = sum(dur(s) for s in solves)
    ipm = sum(s[5][0] for s in solves)
    m["sdp.solve.calls"] = len(solves) / rounds
    m["sdp.solve.s"] = solve_s / rounds
    m["sdp.ipm_iterations"] = ipm / rounds
    m["sdp.s_per_ipm_iteration"] = ratio(solve_s, ipm)
    m["sdp.constraints"] = sum(s[5][2] for s in solves) / rounds
    m["sdp.optimal.ratio"] = ratio(sum(s[5][1] == "optimal" for s in solves), len(solves))

    lmos = named("variational.lmo")
    sdp_free = [s for s in lmos
                if not any(k[1] == "sdp.solve" for k in children.get(s[0], ()))]
    m["variational.lmo.calls"] = len(lmos) / rounds
    m["variational.lmo.s"] = sum(dur(s) for s in lmos) / rounds
    m["variational.lmo.sdp_free.ratio"] = ratio(len(sdp_free), len(lmos))

    rees = named("variational.ree")
    m["variational.ree.calls"] = len(rees) / rounds
    m["variational.ree.s"] = sum(dur(s) for s in rees) / rounds
    m["variational.ree.self_s"] = sum(self_time(s) for s in rees) / rounds
    m["variational.ree.fw_iterations"] = sum(s[5][0] for s in rees) / rounds
    m["variational.ree.converged.ratio"] = ratio(
        sum(s[5][1] == "converged" for s in rees), len(rees))

    for short, name in (("robustness", "variational.robustness"),
                        ("bsa", "variational.bsa"), ("rains", "variational.rains")):
        m[f"variational.{short}.s"] = sum(dur(s) for s in named(name)) / rounds
    m["variational.rains.self_s"] = sum(
        self_time(s) for s in named("variational.rains")) / rounds

    reports = named("bounds.report")
    in_reports = [s for s in rees if any(a[1] == "bounds.report" for a in ancestors(s))]
    m["bounds.report.calls"] = len(reports) / rounds
    m["bounds.report.s"] = sum(dur(s) for s in reports) / rounds
    m["bounds.ree_per_report"] = ratio(len(in_reports), len(reports))

    m["trace.overhead.ratio"] = overhead
    return m
