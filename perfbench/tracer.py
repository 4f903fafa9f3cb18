"""Runtime span tracer for the graphcurves layers.

The tracer wraps every public module-level function of the layer modules
and rebinds the wrapper wherever a ``graphcurves.*`` module namespace,
class or module-level dispatch dict binds the original object, so call
sites that did ``from .x import f`` are caught as well.  Nothing under ``src/`` changes:
the wrappers are installed at runtime and removed by ``uninstall``.

A span is (function id, start, end, parent span index), kept in memory
while an operation runs and written out at the end.  Spans are recorded
only between ``begin_op`` and ``end_op``, so the harness's own checks do
not show up as program work.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

# Package modules that get spans.  matrices and scalars are leaf
# arithmetic used everywhere and get none of their own.
LAYERS = ("graphs", "sections", "framings", "higgs", "hitchin", "spectral",
          "linalg", "cli")

ROOT = -1


def layer_functions(layer: str):
    """Public functions defined in graphcurves.<layer>, by name."""
    mod = importlib.import_module(f"graphcurves.{layer}")
    return {name: obj for name, obj in vars(mod).items()
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__
            and not name.startswith("_")}


def _nullspace_stats(tracer, args, result):
    """Input nonzeros and the largest basis denominator of an exact kernel."""
    rows = args[0] if args else []
    tracer.counters["linalg.exact_nullspace.nnz"] += sum(
        1 for row in rows for x in row if x)
    bits = max((getattr(x, "denominator", 1).bit_length()
                for vec in result for x in vec), default=0)
    key = "linalg.exact_nullspace.den_bits_max"
    tracer.maxima[key] = max(tracer.maxima.get(key, 0), bits)


# Extra per-call statistics, keyed by traced function name.
HOOKS = {"linalg.exact_nullspace": _nullspace_stats}


class Tracer:
    """Span recorder with runtime rebinding of the layer functions."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.enabled = False
        self.op_kind = None
        self.calls_by_kind: Counter = Counter()
        self.counters: Counter = Counter()
        self.maxima: dict = {}
        self.missing: list[str] = []
        self.ops: list[tuple] = []  # (op key, index of its first span)
        self._rebound: list[tuple] = []

    # -- installation -------------------------------------------------

    def install(self, expected=()):
        """Wrap every public layer function; report expected names not found."""
        wrappers = {}
        for layer in LAYERS:
            for name, fn in layer_functions(layer).items():
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "graphcurves"
                                   or mod_name.startswith("graphcurves.")):
                continue
            self._rebind(mod, dict(vars(mod)), wrappers, setattr)
            for obj in list(vars(mod).values()):
                if inspect.isclass(obj) and obj.__module__.startswith("graphcurves"):
                    self._rebind(obj, dict(vars(obj)), wrappers, setattr)
                elif isinstance(obj, dict):  # dispatch tables such as cli._COMMANDS
                    self._rebind(obj, dict(obj), wrappers, dict.__setitem__)
        self.missing = sorted(set(expected) - set(self.names))
        return self

    def _rebind(self, owner, namespace, wrappers, store):
        for attr, value in namespace.items():
            entry = wrappers.get(id(value))
            if entry is not None and entry[0] is value:
                store(owner, attr, entry[1])
                self._rebound.append((store, owner, attr, value))

    def uninstall(self):
        for store, owner, attr, value in reversed(self._rebound):
            store(owner, attr, value)
        self._rebound.clear()

    def _wrap(self, name: str, fn):
        fid = len(self.names)
        self.names.append(name)
        hook = HOOKS.get(name)
        spans = self.spans
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = len(spans)
            parent = stack[-1] if stack else ROOT
            spans.append(None)
            stack.append(index)
            self.calls_by_kind[(fid, self.op_kind)] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (fid, start, end, parent)
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    # -- operations ---------------------------------------------------

    def begin_op(self, kind: str, key: str = ""):
        self.ops.append((key or kind, len(self.spans)))
        self.op_kind = kind
        self.enabled = True

    def end_op(self):
        self.enabled = False
        self.op_kind = None

    # -- results ------------------------------------------------------

    def summary(self) -> dict:
        """Self time, inclusive time and call counts per function name.

        Inclusive time counts only a function's outermost spans, so a
        function reached again below itself is not counted twice.
        """
        child_time = defaultdict(float)
        for fid, start, end, parent in self.spans:
            if parent != ROOT:
                child_time[parent] += end - start
        self_s = defaultdict(float)
        total_s = defaultdict(float)
        top_s = 0.0
        draws = 0
        is_regular = self._fid("hitchin.is_regular")
        sampler = self._fid("spectral.random_regular_higgs")
        for index, (fid, start, end, parent) in enumerate(self.spans):
            dur = end - start
            self_s[self.names[fid]] += dur - child_time[index]
            if parent == ROOT:
                top_s += dur
            if not self._has_ancestor(index, fid):
                total_s[self.names[fid]] += dur
            if fid == is_regular and parent != ROOT and self.spans[parent][0] == sampler:
                draws += 1
        calls = Counter()
        calls_by_kind = {}
        for (fid, kind), n in self.calls_by_kind.items():
            calls[self.names[fid]] += n
            calls_by_kind[f"{self.names[fid]}|{kind}"] = n
        counters = dict(self.counters)
        counters["spectral.random_regular_higgs.draws"] = draws
        return {"self_s": dict(self_s), "total_s": dict(total_s),
                "calls": dict(calls), "calls_by_kind": calls_by_kind,
                "counters": counters, "maxima": dict(self.maxima),
                "top_s": top_s, "spans": len(self.spans),
                "missing": list(self.missing)}

    def _fid(self, name):
        return self.names.index(name) if name in self.names else None

    def _has_ancestor(self, index, fid):
        parent = self.spans[index][3]
        while parent != ROOT:
            if self.spans[parent][0] == fid:
                return True
            parent = self.spans[parent][3]
        return False

    def span_records(self):
        """Operations and their spans, as plain lists for writing out.

        Each operation lists its spans as [name, start, end, parent],
        parent being an index into the same process's span list.
        """
        bounds = [first for _, first in self.ops[1:]] + [len(self.spans)]
        return [{"op": key, "first": first,
                 "spans": [[self.names[fid], start, end, parent]
                           for fid, start, end, parent in self.spans[first:stop]]}
                for (key, first), stop in zip(self.ops, bounds)]


class JsonTimer:
    """Stand-in for the json module in cli's namespace that times dumps."""

    def __init__(self, real):
        self.real = real
        self.seconds = 0.0

    def __getattr__(self, name):
        return getattr(self.real, name)

    def dumps(self, *args, **kwargs):
        start = time.perf_counter()
        try:
            return self.real.dumps(*args, **kwargs)
        finally:
            self.seconds += time.perf_counter() - start


def merge_summaries(parts):
    """Sum several summaries (one per traced process) into one."""
    out = {"self_s": Counter(), "total_s": Counter(), "calls": Counter(),
           "calls_by_kind": Counter(), "counters": Counter(), "maxima": {},
           "top_s": 0.0, "spans": 0, "missing": set()}
    for part in parts:
        for key in ("self_s", "total_s", "calls", "calls_by_kind", "counters"):
            out[key].update(part[key])
        for key, value in part["maxima"].items():
            out["maxima"][key] = max(out["maxima"].get(key, 0), value)
        out["top_s"] += part["top_s"]
        out["spans"] += part["spans"]
        out["missing"].update(part["missing"])
    out["missing"] = sorted(out["missing"])
    return out
