"""Layer spans for the traced run, recorded from outside the program.

:func:`install` wraps the public functions that mark each layer's
boundary (the table in ``LAYERS``) by replacing them, in every loaded
``repro`` module that holds a reference, with a timing wrapper.  The
program's source is untouched.

Spans nest per thread.  A span's *self time* is its duration minus the
durations of the spans it encloses on the same thread, so a layer is
charged only for the work its own code does.  Spans are reduced as
they close, into per-layer totals of self time, inclusive time and
calls: the cold path loads hundreds of thousands of clauses per second
through ``CdclSolver.add_clause``, and a record per call would cost
more memory than the run itself.  :meth:`Tracer.snapshot` reads the
totals; the difference of two snapshots is the work of the interval
between them.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time

__all__ = ["LAYERS", "Tracer", "install", "diff"]

# (layer, module, attribute path, scope).  ``scope`` "module" patches
# only that module's binding (``minimize`` as TargetSpec.from_truthtable
# calls it); "everywhere" also patches every ``repro`` module that
# imported the function by name; "class" patches the class attribute.
LAYERS = (
    ("api.parse", "repro.api.schema", "SynthesisRequest.from_json", "class"),
    ("api.to_spec", "repro.api.schema", "SynthesisRequest.to_spec", "class"),
    ("api.session", "repro.api.session", "Session.synthesize", "class"),
    ("api.serialize", "repro.api.schema", "SynthesisResponse.to_json", "class"),
    ("boolf.minimize", "repro.core.target", "minimize", "module"),
    ("engine.fingerprint", "repro.engine.suite", "suite_cache_key", "everywhere"),
    ("engine.fingerprint", "repro.engine.signature", "lm_cache_key", "everywhere"),
    ("engine.suite_decode", "repro.engine.suite", "synthesis_from_payload",
     "everywhere"),
    ("engine.disk_get", "repro.engine.cache", "ResultCache.get", "class"),
    ("engine.disk_put", "repro.engine.cache", "ResultCache.put", "class"),
    ("core.bounds", "repro.core.bounds", "best_upper_bound", "everywhere"),
    ("core.ds", "repro.core.decompose", "ub_ds", "everywhere"),
    ("core.encode", "repro.core.encoder", "encode_lm", "everywhere"),
    ("sat.load", "repro.sat.solver", "CdclSolver.add_clause", "class"),
    ("sat.solve", "repro.sat.solver", "CdclSolver.solve", "class"),
    ("lattice.verify", "repro.lattice.assignment",
     "LatticeAssignment.realized_truthtable", "class"),
    ("server.handle", "repro.server.core", "ServiceCore.handle", "class"),
)

LAYER_NAMES = tuple(dict.fromkeys(layer for layer, *_ in LAYERS))


class Tracer:
    """Per-thread span stacks reduced to per-layer totals."""

    def __init__(self, names=LAYER_NAMES) -> None:
        self.names = tuple(names)
        self._index = {name: i for i, name in enumerate(self.names)}
        self._local = threading.local()
        self._threads: list[tuple] = []
        self._lock = threading.Lock()

    def _state(self) -> tuple:
        state = getattr(self._local, "state", None)
        if state is None:
            width = len(self.names)
            # (open-span stack, self seconds, inclusive seconds, calls)
            state = ([], [0.0] * width, [0.0] * width, [0] * width)
            with self._lock:
                self._threads.append(state)
            self._local.state = state
        return state

    def wrap(self, layer: str, fn):
        i = self._index[layer]
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, self_s, incl_s, calls = tracer._state()
            frame = [0.0]  # time covered by child spans
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                took = clock() - start
                stack.pop()
                self_s[i] += took - frame[0]
                incl_s[i] += took
                calls[i] += 1
                if stack:
                    stack[-1][0] += took

        return traced

    def snapshot(self) -> dict:
        """``{layer: [self_s, inclusive_s, calls]}`` summed over threads.

        Takes no lock, so it is safe from a signal handler; a span that
        closes while the snapshot is read lands in this one or the next.
        """
        totals = {name: [0.0, 0.0, 0] for name in self.names}
        for _stack, self_s, incl_s, calls in list(self._threads):
            for name, i in self._index.items():
                row = totals[name]
                row[0] += self_s[i]
                row[1] += incl_s[i]
                row[2] += calls[i]
        return totals


def diff(end: dict, start: dict) -> dict:
    return {
        name: [e - s for e, s in zip(end[name], start[name])] for name in end
    }


def install(tracer: Tracer) -> None:
    """Wrap every boundary in ``LAYERS``; call once per process."""
    for module_name in ("repro.api", "repro.server.core", "repro.engine.parallel",
                        "repro.core.decompose", "repro.core.target"):
        importlib.import_module(module_name)
    for layer, module_name, path, scope in LAYERS:
        module = sys.modules[module_name]
        if scope == "class":
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(tracer.wrap(layer, raw.__func__)))
            else:
                setattr(cls, attr, tracer.wrap(layer, raw))
            continue
        original = getattr(module, path)
        traced = tracer.wrap(layer, original)
        holders = [module] if scope == "module" else [
            m for name, m in list(sys.modules.items())
            if name.startswith("repro") and m is not None
        ]
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, attr, traced)
