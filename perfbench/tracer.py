"""Outside-in span tracer for isotropykit.

The tracer never edits the package.  It wraps the public functions of each
module from the outside: for every wrapped function object it rebinds *every*
module-global name in ``isotropykit.*`` that points at that object, because
modules import each other's functions by name (``from isotropykit.lin3 import
eig_sym``) and a rebinding in the home module alone would miss those calls.
The ``evaluate`` methods of the classical bases are wrapped on their classes.

Spans (name, start, end, parent span, op id) are kept in memory in flat
arrays and written out once, at the end of the run.  A span's self time is
its duration minus the durations of its direct children; the run is single
threaded, so children nest inside their parent and never overlap.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
import types
from array import array

import numpy as np

# modules whose public functions are traced as spans: the names in
# ``__all__`` (public names, for ``cli``) that are functions defined there
LAYERS = ("lin3", "spectral_frame", "classical_bases", "representation",
          "potentials", "analysis", "cli")

# classical-basis classes whose evaluate method is traced, by span name
BASIS_CLASSES = {
    "boehler": "ClassicalScalarBasis",
    "smith_vectors": "ClassicalVectorBasis",
    "smith_sym_tensors": "ClassicalTensorBasis",
}

GRADIENTS = ("grad_vector", "grad_sym_tensor", "grad_nonsym_tensor")

# counters kept at layer boundaries (not spans)
ENERGY_EVALS = "potentials.energy_evals"
CHART_EVALS = "analysis.chart_evals"


def _public_functions(mod):
    names = getattr(mod, "__all__", [n for n in vars(mod) if not n.startswith("_")])
    return [n for n in names if inspect.isfunction(getattr(mod, n))
            and getattr(mod, n).__module__ == mod.__name__]


class Tracer:
    """Records nested spans of isotropykit calls made while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.counters: dict[str, int] = {}
        self.current_op = -1
        self._stack: list[int] = []
        self._undo: list = []

    # -- recording -------------------------------------------------------

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, name):
        self.counters[name] = self.counters.get(name, 0) + 1

    def span(self, name, fn):
        nid = self._id(name)
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.current_op)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()

        return traced

    # -- installation ----------------------------------------------------

    def _rebind_everywhere(self, original, replacement):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "isotropykit"
                                   or mod_name.startswith("isotropykit.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, replacement)
                    self._undo.append((mod, key, original))

    def _counting_energy(self, fn):
        @functools.wraps(fn)
        def gradient(W, *args, **kwargs):
            def counted(s):
                self.count(ENERGY_EVALS)
                return W(s)
            return fn(counted, *args, **kwargs)
        return gradient

    def _counting_chart(self, fn):
        @functools.wraps(fn)
        def chart(*args, **kwargs):
            dim, to_system = fn(*args, **kwargs)

            def counted(theta):
                self.count(CHART_EVALS)
                return to_system(theta)
            return dim, counted
        return chart

    def install(self):
        """Wrap every traced function and basis ``evaluate`` method."""
        import isotropykit.cli  # noqa: F401  (loads every module)

        for layer in LAYERS:
            mod = sys.modules[f"isotropykit.{layer}"]
            for name in _public_functions(mod):
                original = getattr(mod, name)
                inner = original
                if layer == "potentials" and name in GRADIENTS:
                    inner = self._counting_energy(original)
                elif layer == "analysis" and name == "ambient_chart":
                    inner = self._counting_chart(original)
                self._rebind_everywhere(original, self.span(f"{layer}.{name}", inner))
        bases = sys.modules["isotropykit.classical_bases"]
        for short, cls_name in BASIS_CLASSES.items():
            cls = getattr(bases, cls_name)
            original = cls.evaluate
            self._undo.append((cls, "evaluate", vars(cls).get("evaluate")))
            cls.evaluate = self.span(f"classical_bases.{short}.evaluate", original)
        cli = sys.modules["isotropykit.cli"]
        self._undo.append((cli, "json", cli.json))
        cli.json = types.SimpleNamespace(
            dump=self.span("cli.json_write", json.dump),
            load=json.load, JSONDecodeError=json.JSONDecodeError)

    def uninstall(self):
        for target, key, original in reversed(self._undo):
            if original is None:
                delattr(target, key)
            else:
                setattr(target, key, original)
        self._undo.clear()

    # -- analysis --------------------------------------------------------

    def arrays(self):
        n = len(self.start)
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32, count=n).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64, count=n).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64, count=n).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32, count=n).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32, count=n).copy(),
        }

    def summarize(self, first: int, last: int) -> dict:
        """Per-name call count, total (inclusive) and self seconds over spans
        ``first <= index < last``."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        par = a["parent"]
        has_parent = par >= 0
        child = np.bincount(par[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_t = dur - child
        sl = slice(first, last)
        ids = a["name_id"][sl]
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        total = np.bincount(ids, weights=dur[sl], minlength=k)
        self_s = np.bincount(ids, weights=self_t[sl], minlength=k)
        return {name: (int(calls[i]), float(total[i]), float(self_s[i]))
                for i, name in enumerate(self.names)}

    def count_under(self, name: str, ancestor: str, first: int, last: int) -> int:
        """Spans named ``name`` in ``[first, last)`` with an ``ancestor`` span
        somewhere above them."""
        a = self.arrays()
        nid, aid = self._ids[name], self._ids[ancestor]
        found = 0
        for idx in np.flatnonzero(a["name_id"][first:last] == nid) + first:
            p = a["parent"][idx]
            while p >= 0:
                if a["name_id"][p] == aid:
                    found += 1
                    break
                p = a["parent"][p]
        return found

    def write(self, path):
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())
