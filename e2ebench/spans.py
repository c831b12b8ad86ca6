"""In-memory span recording for the traced benchmark run.

The benchmark attributes time to layers without touching the program:
:func:`instrument` wraps the public functions of each layer (from this
file, by replacing module and class attributes) so that every call
records a span ``{name, start, end, parent}``.  Spans are kept in flat
arrays while the run lasts and written out once, at exit.

A span's *self time* is its duration minus the time its child spans
cover; summed over every span under the root it adds up to the root's
duration exactly, which is what lets the benchmark print a per-layer
table whose rows, plus an explicit remainder, add up to the wall time.
"""

import functools
import json
import os
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np


class NullRecorder:
    """The untraced run's recorder: spans cost nothing."""

    enabled = False

    def calls(self, name):
        return 0

    @contextmanager
    def span(self, name):
        yield


class SpanRecorder:
    """Records nested spans of one thread (the campaign runs serially
    and the server's traced functions are synchronous, so one stack
    suffices)."""

    enabled = True

    def __init__(self):
        self.names = []
        self._ids = {}
        self._name = array("H")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = []

    def _name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def calls(self, name):
        """Spans of ``name`` recorded so far."""
        nid = self._ids.get(name)
        if nid is None:
            return 0
        return int(np.count_nonzero(np.frombuffer(self._name, dtype=np.uint16) == nid))

    @contextmanager
    def span(self, name):
        idx = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, nid):
        idx = len(self._name)
        self._name.append(nid)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._start.append(time.perf_counter())
        self._end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self._stack.pop()
        self._end[idx] = time.perf_counter()

    def wrap(self, fn, name):
        """``fn``, recording one span per call."""
        nid = self._name_id(name)
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        return wrapper

    def arrays(self):
        return (
            np.frombuffer(self._name, dtype=np.uint16),
            np.frombuffer(self._parent, dtype=np.int32),
            np.frombuffer(self._start, dtype=np.float64),
            np.frombuffer(self._end, dtype=np.float64),
        )

    def summary(self):
        """Per span name: calls, inclusive seconds and self seconds."""
        name, parent, start, end = self.arrays()
        if not len(name):
            return {}
        dur = end - start
        has_parent = parent >= 0
        covered = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        self_s = dur - covered
        n = len(self.names)
        calls = np.bincount(name, minlength=n)
        total = np.bincount(name, weights=dur, minlength=n)
        own = np.bincount(name, weights=self_s, minlength=n)
        return {
            self.names[i]: {
                "calls": int(calls[i]),
                "total_s": float(total[i]),
                "self_s": float(own[i]),
            }
            for i in range(n)
        }

    def write(self, path):
        """Write every span (name, parent index, start, end) to
        ``path`` (``.npz``) with the span-name table beside it."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        name, parent, start, end = self.arrays()
        np.savez_compressed(
            path,
            name=name,
            parent=parent,
            start=start,
            end=end,
            names=np.array(json.dumps(self.names)),
        )


def _patch(owner, attr, recorder, name):
    original = getattr(owner, attr)
    setattr(owner, attr, recorder.wrap(original, name))
    return owner, attr, original


def instrument(recorder, serve_only=False):
    """Wrap each layer's public entry points; returns an undo list.

    ``serve_only`` limits the patching to the serving layers (what the
    server process runs).
    """
    import repro.serve.http as http
    import repro.serve.lookup as lookup

    patches = [
        _patch(lookup.LookupEngine, "predict", recorder, "serve.lookup.predict"),
        _patch(lookup.LookupEngine, "predict_arrays", recorder, "serve.lookup.arrays"),
        _patch(http, "load_snapshot", recorder, "serve.snapshot.load"),
    ]
    if serve_only:
        return patches

    import repro.audit as audit
    import repro.bgp.dataplane as dataplane
    import repro.bgp.engine as engine
    import repro.core.anyopt as anyopt
    import repro.core.experiments as experiments
    import repro.core.optimizer as optimizer
    import repro.core.prediction as prediction
    import repro.measurement.orchestrator as orchestrator
    import repro.splpo as splpo
    import repro.util.rng as rng

    # derive_rng is imported by name into many modules: replace every
    # binding of the original so all call sites record.
    original_derive = rng.derive_rng
    derive = recorder.wrap(original_derive, "util.rng.derive")
    for module in list(sys.modules.values()):
        if (
            getattr(module, "__name__", "").startswith("repro")
            and getattr(module, "derive_rng", None) is original_derive
        ):
            patches.append((module, "derive_rng", original_derive))
            module.derive_rng = derive

    patches += [
        _patch(engine.BGPEngine, "run", recorder, "bgp.converge"),
        _patch(orchestrator.Orchestrator, "deploy", recorder, "measurement.deploy"),
        _patch(dataplane.DataPlane, "forward", recorder, "measurement.forward"),
        _patch(orchestrator, "measure_catchments", recorder, "measurement.catchment"),
        _patch(orchestrator.Deployment, "measure_rtt", recorder, "measurement.rtt"),
        _patch(experiments, "execute_experiment_task", recorder, "runtime.task"),
        _patch(anyopt, "discover_two_level", recorder, "core.preferences"),
        _patch(prediction.CatchmentPredictor, "predict", recorder, "core.predict"),
        _patch(anyopt, "search_configurations", recorder, "core.optimizer.search"),
        _patch(optimizer, "choose_announcement_order", recorder, "core.optimizer.order"),
        _patch(optimizer, "build_splpo_instance", recorder, "core.optimizer.instance"),
        _patch(splpo, "solve_exhaustive", recorder, "splpo.solve"),
        _patch(audit, "audit_model", recorder, "audit"),
    ]
    return patches


def uninstrument(patches):
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)
