"""Spans and counters recorded around calls into the rtbpa layers.

The spans come from the benchmark's own files: the pipeline opens one around
each call it makes into a layer, and `Tracer.installed` wraps the inner
functions the benchmark does not call itself (table construction, table
eval, leg weights, the SBR tracer, the coherent-sum entry points). Nothing
under ``src/`` is changed. Spans in forked workers cannot be collected, so
tracing runs at one worker only.

A span is (id, parent id, run id, name, start, end); its layer is the part of
the name before the first dot. A layer's self time is its spans' duration
minus the time their child spans cover. The wrappers count in 'trace.count'
spans of their own, next to the layer span, so layer times hold only the
call into the program.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, List

import numpy as np

from rtbpa import fields, imaging, propagation

_ID, _PARENT, _RUN, _NAME, _START, _END = range(6)


class Tracer:
    """In-memory span and counter store; records only while `recording`."""

    def __init__(self):
        self.spans: List[list] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self.run_id = ""
        self.recording = False
        self.unwrapped: List[str] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.recording:
            yield
            return
        rec = [len(self.spans), self._stack[-1] if self._stack else None,
               self.run_id, name, time.perf_counter(), None]
        self.spans.append(rec)
        self._stack.append(rec[_ID])
        try:
            yield
        finally:
            rec[_END] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def recording_run(self, run_id: str):
        """Record spans and fresh counters for one pipeline pass."""
        self.run_id = run_id
        self.counts = defaultdict(int)
        self.recording = True
        try:
            yield
        finally:
            self.recording = False

    @contextmanager
    def paused(self):
        """Suspend recording, e.g. while checks call into the layers."""
        was, self.recording = self.recording, False
        try:
            yield
        finally:
            self.recording = was

    @contextmanager
    def part(self, name: str):
        """Tag the spans of one workload part: run id '<run id>/<part>'."""
        base = self.run_id
        self.run_id = f"{base}/{name}"
        try:
            yield
        finally:
            self.run_id = base

    def run_spans(self, run_id: str) -> List[list]:
        """Spans of one run, parts included."""
        return [s for s in self.spans
                if s[_RUN] == run_id or s[_RUN].startswith(run_id + "/")]

    def write(self, path) -> None:
        keys = ("id", "parent", "run", "name", "start", "end")
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(keys, s))) + "\n")

    @contextmanager
    def installed(self):
        """Wrap the layer functions the pipeline reaches only indirectly."""
        patches = []

        def patch(owner, attr, make):
            orig = getattr(owner, attr, None)
            if orig is None:
                self.unwrapped.append(f"{owner.__name__}.{attr}")
                return
            patches.append((owner, attr, orig))
            setattr(owner, attr, make(orig))

        table_cls = propagation.ImagePathTable
        patch(table_cls, "__init__", self._wrap_table_init)
        patch(table_cls, "eval", self._wrap_eval)
        patch(fields, "_leg_coefficients", self._wrap_leg_coefficients)
        # sbr_trace is bound by name in both modules that call it.
        patch(imaging, "sbr_trace", self._wrap_sbr_trace)
        patch(fields, "sbr_trace", self._wrap_sbr_trace)
        patch(imaging, "_sum_radiation", self._wrap_sum_radiation)
        patch(imaging, "_sum_scattering", self._wrap_sum_scattering)
        patch(imaging, "_compute_chunk", self._wrap_compute_chunk)
        try:
            yield
        finally:
            for owner, attr, orig in reversed(patches):
                setattr(owner, attr, orig)

    # -- wrappers ----------------------------------------------------------

    def _wrap_table_init(self, orig):
        tracer = self

        def __init__(table, *args, **kwargs):
            if not tracer.recording:
                return orig(table, *args, **kwargs)
            with tracer.span("propagation.table_init"):
                orig(table, *args, **kwargs)
            with tracer.span("trace.count"):
                tracer.counts["propagation.sequences"] += len(table.sequences)
        return __init__

    def _wrap_eval(self, orig):
        tracer = self

        def eval(table, *args, **kwargs):
            gen = orig(table, *args, **kwargs)
            if not tracer.recording:
                return gen
            tracer.counts["propagation.eval_calls"] += 1
            return steps(gen)

        def steps(gen):
            while True:
                # eval is a generator: time each step separately.
                with tracer.span("propagation.eval"):
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                with tracer.span("trace.count"):
                    valid = item[4]
                    tracer.counts["propagation.legs_evaluated"] += valid.size
                    tracer.counts["propagation.legs_valid"] += int(
                        np.count_nonzero(valid))
                yield item
        return eval

    def _wrap_leg_coefficients(self, orig):
        tracer = self

        def _leg_coefficients(*args, **kwargs):
            if not tracer.recording:
                return orig(*args, **kwargs)
            with tracer.span("fields.leg_weights"):
                coeff = orig(*args, **kwargs)
            with tracer.span("trace.count"):
                tracer.counts["fields.legs_weighed"] += int(np.size(coeff))
                tracer.counts["fields.legs_nonzero"] += int(
                    np.count_nonzero(coeff))
            return coeff
        return _leg_coefficients

    def _wrap_sbr_trace(self, orig):
        tracer = self

        def sbr_trace(*args, **kwargs):
            if not tracer.recording:
                return orig(*args, **kwargs)
            with tracer.span("propagation.sbr_trace"):
                out = orig(*args, **kwargs)
            with tracer.span("trace.count"):
                tracer.counts["propagation.sbr_calls"] += 1
                tracer.counts["propagation.sbr_paths"] += sum(
                    len(paths) for paths in out)
            return out
        return sbr_trace

    def _count_sum(self, entries: int, nonzero: int) -> None:
        self.counts["imaging.sum_entries"] += entries
        self.counts["imaging.sum_entries_nonzero"] += nonzero

    def _wrap_sum_radiation(self, orig):
        tracer = self

        def _sum_radiation(t0, kvals, legs):
            if not tracer.recording:
                return orig(t0, kvals, legs)
            # The kernel skips all-zero classes and runs dense on the rest.
            with tracer.span("trace.count"):
                n_k = kvals.size
                for _, w in legs:
                    nz = int(np.count_nonzero(w))
                    if nz:
                        tracer._count_sum(w.size * n_k, nz * n_k)
            return orig(t0, kvals, legs)
        return _sum_radiation

    def _wrap_sum_scattering(self, orig):
        tracer = self

        def _sum_scattering(t, kvals, tx_legs, rx_legs, n_v):
            if not tracer.recording:
                return orig(t, kvals, tx_legs, rx_legs, n_v)
            # Per (tx class, rx class, tx antenna) the kernel runs dense over
            # (voxel, rx antenna, k) unless the pair's weights are all zero.
            with tracer.span("trace.count"):
                n_k = kvals.size
                for _, wt in tx_legs:
                    tx_live = (wt != 0).astype(np.int64)  # (V, n_tx)
                    for _, wr in rx_legs:
                        rx_nz = np.count_nonzero(wr, axis=1)  # (V,)
                        pair_nz = rx_nz @ tx_live  # per tx antenna
                        live = np.count_nonzero(pair_nz)
                        tracer._count_sum(int(live) * wr.size * n_k,
                                          int(pair_nz.sum()) * n_k)
            return orig(t, kvals, tx_legs, rx_legs, n_v)
        return _sum_scattering

    def _wrap_compute_chunk(self, orig):
        tracer = self

        def _compute_chunk(bounds):
            if tracer.recording:
                tracer.counts["imaging.chunks"] += 1
            return orig(bounds)
        return _compute_chunk


def self_times(spans: List[list]) -> Dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    child = defaultdict(float)
    for s in spans:
        if s[_PARENT] is not None:
            child[s[_PARENT]] += s[_END] - s[_START]
    return {s[_ID]: s[_END] - s[_START] - child[s[_ID]] for s in spans}


def layer_times(spans: List[list]) -> Dict[str, float]:
    """Per span name: '<name>' total duration and '<name>/self' self time.

    Also per layer: '<layer>/self', the self time of all its spans.
    """
    selfs = self_times(spans)
    out: Dict[str, float] = defaultdict(float)
    for s in spans:
        name = s[_NAME]
        out[name] += s[_END] - s[_START]
        out[name + "/self"] += selfs[s[_ID]]
        out[name.split(".")[0] + "/self"] += selfs[s[_ID]]
    return out
