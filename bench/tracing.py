"""Outside-in tracer: spans around every public function of the mlsurf layers.

The program is not edited.  ``Tracer.installed`` wraps each public function of
the traced modules and rebinds the wrapper in every ``mlsurf`` module that
holds the original, because ``report``, ``diffgeo``, ``surface_families`` and
``cli`` import names with ``from ... import`` and closures look those globals
up at call time.  A generator function (``report.sample_rows``) is timed on
each ``next()``, not on its creation.

Spans (function, start, end, parent span, op id, raised) are kept in flat
arrays in memory and written out once, after the run.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("cli", "report", "diffgeo", "surface_families", "baker_akhiezer",
          "spectral_curve", "theta")
JETS = ("surface_families.spectral_family_jet", "surface_families.cone_family_jet")


def _theta_terms(args, kwargs, result):
    return float((2 * result + 1) ** args[1].genus)  # default_radius(z, B) -> R


def _jet_point(args, kwargs, result):
    return (float(args[-2]), float(args[-1]))


# per-function probes: value recorded next to the span, for the count metrics
PROBES = {
    "theta.default_radius": _theta_terms,
    "surface_families.in_degeneracy_tube": lambda a, k, r: float(bool(r)),
    **{name: _jet_point for name in JETS},
}


class Tracer:
    def __init__(self):
        self.names = []
        self.fid = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.raised = array("b")
        self.probe_span = array("i")
        self.probe_value = []
        self.active = False
        self.current_op = -1
        self._stack = [-1]
        self._bindings = []

    # ---------------------------------------------------------- recording
    def _open(self, fid: int) -> int:
        idx = len(self.fid)
        self.fid.append(fid)
        self.start.append(0.0)
        self.end.append(0.0)
        self.parent.append(self._stack[-1])
        self.op.append(self.current_op)
        self.raised.append(0)
        self._stack.append(idx)
        return idx

    def _wrap(self, qualname: str, func):
        fid = len(self.names)
        self.names.append(qualname)
        probe = PROBES.get(qualname)

        if inspect.isgeneratorfunction(func):
            @functools.wraps(func)
            def gen_wrapper(*args, **kwargs):
                gen = func(*args, **kwargs)
                while True:
                    if not self.active:
                        try:
                            item = next(gen)
                        except StopIteration:
                            return
                        yield item
                        continue
                    idx = self._open(fid)
                    self.start[idx] = perf_counter()
                    try:
                        item = next(gen)
                    except StopIteration:
                        self.end[idx] = perf_counter()
                        self._stack.pop()
                        return
                    except BaseException:
                        self.end[idx] = perf_counter()
                        self.raised[idx] = 1
                        self._stack.pop()
                        raise
                    self.end[idx] = perf_counter()
                    self._stack.pop()
                    yield item
            return gen_wrapper

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not self.active:
                return func(*args, **kwargs)
            idx = self._open(fid)
            self.start[idx] = perf_counter()
            try:
                result = func(*args, **kwargs)
            except BaseException:
                self.end[idx] = perf_counter()
                self.raised[idx] = 1
                self._stack.pop()
                raise
            self.end[idx] = perf_counter()
            self._stack.pop()
            if probe is not None:
                self.probe_span.append(idx)
                self.probe_value.append(probe(args, kwargs, result))
            return result
        return wrapper

    # ---------------------------------------------------------- install
    def _bind(self) -> list:
        """(module, name, original, wrapper) for every public function of LAYERS,
        in every mlsurf module that holds it."""
        originals = {}
        for layer in LAYERS:
            mod = sys.modules[f"mlsurf.{layer}"]
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    originals[id(obj)] = (obj, self._wrap(f"{layer}.{name}", obj))
        bindings = []
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "mlsurf" or modname.startswith("mlsurf.")):
                continue
            for name, obj in vars(mod).items():
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    bindings.append((mod, name, obj, hit[1]))
        return bindings

    @contextlib.contextmanager
    def installed(self):
        """Rebind the wrappers for the duration of the block."""
        if not self._bindings:
            self._bindings = self._bind()
        for mod, name, _, wrapper in self._bindings:
            setattr(mod, name, wrapper)
        try:
            yield self
        finally:
            for mod, name, original, _ in self._bindings:
                setattr(mod, name, original)

    # ---------------------------------------------------------- output
    def arrays(self) -> dict:
        return {
            "names": np.array(self.names),
            "fid": np.frombuffer(self.fid, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "raised": np.frombuffer(self.raised, dtype=np.int8),
        }

    def write(self, path) -> None:
        np.savez(path, **self.arrays())


def function_stats(tracer: Tracer) -> dict:
    """qualname -> {calls, raised, self_s, incl_s} summed over all spans."""
    a = tracer.arrays()
    dur = a["end"] - a["start"]
    has_parent = a["parent"] >= 0
    child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=len(dur))
    self_time = dur - child
    n = len(tracer.names)
    calls = np.bincount(a["fid"], minlength=n)
    raised = np.bincount(a["fid"], weights=a["raised"], minlength=n)
    self_s = np.bincount(a["fid"], weights=self_time, minlength=n)
    incl_s = np.bincount(a["fid"], weights=dur, minlength=n)
    return {name: {"calls": int(calls[i]), "raised": int(raised[i]),
                   "self_s": float(self_s[i]), "incl_s": float(incl_s[i])}
            for i, name in enumerate(tracer.names)}


def probe_values(tracer: Tracer, qualname: str) -> list:
    """[(span index, value)] recorded for one probed function."""
    fid = tracer.names.index(qualname)
    return [(s, v) for s, v in zip(tracer.probe_span, tracer.probe_value)
            if tracer.fid[s] == fid]
