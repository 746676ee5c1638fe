"""Span tracer for the traced run of the benchmark.

The tracer wraps, from outside the package, the public functions of every
dvrlu module and the element, matrix, engine and CRT methods the per-layer
metrics name.  While installed, each call records a span: name, start, end,
parent span and op id.  Spans are kept in flat arrays in memory and written
out when the run ends.  A span's self time is its duration minus the time its
child spans cover.

Wrappers replace every binding of a wrapped function inside the package
(``from .x import f`` copies the reference), and ``uninstall`` restores them,
so untraced passes run the original code.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import Counter

import numpy as np

# short layer name -> module
MODULES = {
    "config": "dvrlu.config",
    "element": "dvrlu.element",
    "series": "dvrlu.series",
    "matrix": "dvrlu.matrix",
    "lu_stable": "dvrlu.lu_stable",
    "lu_fast": "dvrlu.lu_fast",
    "montecarlo": "dvrlu.stats.montecarlo",
    "formulas": "dvrlu.stats.formulas",
    "simul": "dvrlu.simul",
    "sheaf": "dvrlu.sheaf",
}

# (layer, class, method, span name) for methods the metrics need
METHODS = [
    ("config", "DvrConfig", "__post_init__", "dvrconfig"),
    ("element", "PrecElem", "__add__", "add"),
    ("element", "PrecElem", "__sub__", "sub"),
    ("element", "PrecElem", "__neg__", "neg"),
    ("element", "PrecElem", "__mul__", "mul"),
    ("element", "PrecElem", "__truediv__", "div"),
    ("element", "PrecElem", "lift_to_precision", "lift"),
    ("element", "PrecElem", "cap_abs", "cap_abs"),
    ("series", "SeriesElem", "__add__", "add"),
    ("series", "SeriesElem", "__sub__", "sub"),
    ("series", "SeriesElem", "__neg__", "neg"),
    ("series", "SeriesElem", "__mul__", "mul"),
    ("series", "SeriesElem", "__truediv__", "div"),
    ("series", "SeriesElem", "lift_to_precision", "lift"),
    ("series", "SeriesElem", "cap_abs", "cap_abs"),
    ("matrix", "PrecMatrix", "swap_cols", "swap_cols"),
    ("matrix", "PrecMatrix", "sub_scaled_col", "sub_scaled_col"),
    ("matrix", "PrecMatrix", "copy", "copy"),
    ("matrix", "PrecMatrix", "block", "block"),
    ("matrix", "PrecMatrix", "cap_abs", "cap_abs"),
    ("montecarlo", "Engine", "eliminate", "eliminate"),
    ("montecarlo", "Engine", "vals", "vals"),
    ("montecarlo", "Engine", "inv_units", "inv_units"),
    ("montecarlo", "Engine", "random", "random"),
    ("sheaf", "CrtBasis", "__init__", "crt_build"),
    ("sheaf", "CrtBasis", "combine", "crt_combine"),
]

class Spans:
    """Flat columns of recorded spans; parent indices point into the same
    columns (-1 for a root)."""

    def __init__(self):
        self.name = array("l")
        self.parent = array("l")
        self.op = array("l")
        self.start = array("d")
        self.end = array("d")

    def take(self) -> dict:
        """Copy the columns out as numpy arrays and clear them in place (the
        wrappers keep references to these very arrays)."""
        cols = {k: np.array(getattr(self, k)) for k in ("name", "parent", "op", "start", "end")}
        for k in cols:
            del getattr(self, k)[:]
        return cols


class Tracer:
    """Installs the span-recording wrappers and holds what they record."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans = Spans()
        self.cur = -1  # index of the innermost open span
        self.op = -1  # op id stamped on new spans
        self.tally: Counter = Counter()  # stage and engine counts from return values
        self._patches: list = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- recording -------------------------------------------------------------

    def _wrap(self, fn, name: str, on_return=None):
        nid = self.name_id(name)
        sp = self.spans
        names, parents, ops, starts, ends = sp.name, sp.parent, sp.op, sp.start, sp.end
        perf = time.perf_counter
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(tr.cur)
            ops.append(tr.op)
            starts.append(0.0)
            ends.append(0.0)
            prev = tr.cur
            tr.cur = idx
            t0 = perf()
            try:
                res = fn(*args, **kwargs)
            finally:
                ends[idx] = perf()
                starts[idx] = t0
                tr.cur = prev
            if on_return is not None:
                on_return(res)
            return res

        return wrapper

    def root(self, name: str, op: int, fn):
        """Call fn() as a root span stamped with the given op id."""
        self.op = op
        try:
            return self._wrap(fn, name)()
        finally:
            self.op = -1

    # -- hooks on return values ------------------------------------------------

    def _stage_hook(self, layer: str):
        from dvrlu.simul import SimulFailure

        def hook(res):
            if isinstance(res, SimulFailure):
                self.tally[f"{layer}.fail.{res.stage}"] += 1

        return hook

    def _simulate_hook(self, res) -> None:
        self.tally["montecarlo.retried"] += int(res["retried"])
        self.tally["montecarlo.dropped"] += int(res["dropped"])
        self.tally["montecarlo.used"] += int(len(res["vl"]))

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        mods = {layer: sys.modules[path] for layer, path in MODULES.items()}
        hooks = {
            ("simul", "attempt_simultaneous"): self._stage_hook("simul"),
            ("sheaf", "solve_with_omega"): self._stage_hook("sheaf"),
            ("montecarlo", "simulate"): self._simulate_hook,
        }
        replace: dict[int, object] = {}
        for layer, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and obj.__module__ == mod.__name__
                ):
                    replace[id(obj)] = self._wrap(obj, f"{layer}.{attr}", hooks.get((layer, attr)))
        for layer, cls_name, meth, span in METHODS:
            cls = getattr(mods[layer], cls_name)
            orig = cls.__dict__[meth]
            self._patches.append((cls, meth, orig))
            setattr(cls, meth, self._wrap(orig, f"{layer}.{span}"))
        # rebind every reference to a wrapped function inside the package
        for path, mod in list(sys.modules.items()):
            if path != "dvrlu" and not path.startswith("dvrlu."):
                continue
            for attr, obj in list(vars(mod).items()):
                w = replace.get(id(obj))
                if w is not None and w.__wrapped__ is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, w)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()


# ---------------------------------------------------------------------------
# from spans to per-layer figures
# ---------------------------------------------------------------------------


def summarize(names: list[str], span_sets: list[dict], outer_names=()) -> dict:
    """Per span name, summed over the span sets: calls and self seconds, and
    for the names in outer_names total seconds over the spans not nested
    inside a span of the same name (so a recursion is counted once)."""
    k = len(names)
    calls = np.zeros(k, dtype=np.int64)
    self_s = np.zeros(k)
    total_s = dict.fromkeys(outer_names, 0.0)
    for cols in span_sets:
        name, parent = cols["name"], cols["parent"]
        dur = cols["end"] - cols["start"]
        covered = np.zeros(len(dur))
        child = parent >= 0
        np.add.at(covered, parent[child], dur[child])
        calls += np.bincount(name, minlength=k)
        self_s += np.bincount(name, weights=dur - covered, minlength=k)
        for n in outer_names:
            if n not in names:
                continue
            nid = names.index(n)
            for idx in np.nonzero(name == nid)[0]:
                p = parent[idx]
                while p >= 0 and name[p] != nid:
                    p = parent[p]
                if p < 0:
                    total_s[n] += float(dur[idx])
    out = {n: {"calls": int(calls[i]), "self_s": float(self_s[i])} for i, n in enumerate(names)}
    for n, v in total_s.items():
        if n in out:
            out[n]["total_s"] = v
    return out
