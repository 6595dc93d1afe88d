"""In-memory span tracing around the layers of ``nlpdhg``.

A span records a name, start and end (``time.perf_counter`` seconds since
the tracer was made), the index of its parent span (-1 at the top), the
round it belongs to (spans of one round share that identifier) and, for
operator applications, the bytes the call streams as computed from array
sizes. Spans sit in typed arrays while the benchmark runs and are written
out once, at the end, by ``save``.

The benchmark's own calls into a layer (data generators, problem
constructors, solver entry points) go through ``call``. Calls the library
makes internally are reached by ``patch``, which swaps a class method or a
module attribute for a wrapper until ``restore``. A function is patched in
the module where its caller looks it up, so that, for example, the
``norm_2_2`` that ``fista_lasso`` calls is the one in ``nlpdhg.baselines``.

A span's self time is its duration minus the durations of its direct
children; spans of one thread nest, so children never overlap.
"""

from __future__ import annotations

import time
from array import array

import numpy as np


class Tracer:
    def __init__(self):
        self.t0 = time.perf_counter()
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.round = array("i")
        self.start = array("d")
        self.end = array("d")
        self.nbytes = array("q")
        self.round_id = -1
        self._stack = [-1]
        self._patched = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid, nbytes):
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.round.append(self.round_id)
        self.nbytes.append(nbytes)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter() - self.t0)
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter() - self.t0
        self._stack.pop()

    def wrap(self, fn, name, nbytes_of=None):
        """``fn`` with every call recorded as a span called ``name``.

        ``nbytes_of(first_argument)`` gives the bytes a call streams.
        """
        nid = self._id(name)
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            idx = open_(nid, nbytes_of(args[0]) if nbytes_of is not None else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        return traced

    def call(self, name, fn, *args, **kwargs):
        idx = self._open(self._id(name), 0)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def patch(self, owner, attr, name, nbytes_of=None):
        """Replace ``owner.attr`` (a class or a module) by a traced wrapper."""
        original = owner.__dict__[attr]
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, nbytes_of))

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def arrays(self):
        """The spans as numpy arrays, with each span's self time."""
        start = np.array(self.start, dtype=np.float64)
        end = np.array(self.end, dtype=np.float64)
        parent = np.array(self.parent, dtype=np.int32)
        dur = end - start
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        return {
            "name": np.array(self.name, dtype=np.int32),
            "parent": parent,
            "round": np.array(self.round, dtype=np.int32),
            "start": start,
            "end": end,
            "dur": dur,
            "self": dur - children,
            "nbytes": np.array(self.nbytes, dtype=np.int64),
        }

    def name_mask(self, spans, name):
        if name not in self._ids:
            return np.zeros(len(spans["name"]), dtype=bool)
        return spans["name"] == self._ids[name]

    def save(self, path):
        """Write every span: name, start, end, parent, round and bytes."""
        spans = self.arrays()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=spans["name"].astype(np.uint8),
            start=spans["start"],
            end=spans["end"],
            parent=spans["parent"],
            round=spans["round"],
            nbytes=spans["nbytes"],
        )


class NullTracer:
    """Stands in for ``Tracer`` in untraced phases: calls go straight through."""

    round_id = -1

    @staticmethod
    def call(name, fn, *args, **kwargs):
        return fn(*args, **kwargs)
