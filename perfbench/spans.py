"""Span recorder for the traced benchmark run.

The recorder wraps the library's functions at the names their callers
resolve: `from .irrep import irrep_matrix` binds `gapforge.avgop.irrep_matrix`
at import, so that attribute is the one replaced.  Spans stay in memory with
their thread and parent; the per-layer metrics are computed from them once
the run ends.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

import gapforge.avgop
import gapforge.bounds
import gapforge.gates
import gapforge.irrep


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    name: str
    thread: int
    start: float
    end: float
    attrs: dict | None


class Recorder:
    """Thread-safe span store.  Create it on the thread that issues the ops."""

    def __init__(self):
        self.spans: list = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root_stack = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, annotate=None):
        """fn, recording one span per call; annotate(args, result) -> attrs."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                # A pool thread starts with an empty stack.  Its caller is the
                # span the issuing thread holds open while it blocks on the
                # pool, so that thread's stack cannot shrink meanwhile.
                root = self._root_stack
                parent = root[-1] if root else None
            with self._lock:
                span_id = next(self._ids)
            stack.append(span_id)
            returned = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                attrs = annotate(args, result) if returned and annotate is not None else None
                span = Span(span_id, parent, name, threading.get_ident(), start, end, attrs)
                with self._lock:
                    self.spans.append(span)

        return traced


def _image_attrs(args, result):
    basis, U = args[0], args[1]
    gate = hashlib.blake2b(U.tobytes(), digest_size=8).hexdigest()
    return {"key": f"{basis.weight.entries}/{gate}", "dim": basis.dim}


def _norm_attrs(args, result):
    _norm, info = result  # gap_at_scale asks for (norm, info)
    return {"method": info["method"], "matvecs": info["matvecs"]}


def _net_attrs(args, result):
    gs, length, samples = args[0], args[1], args[3]
    # the word count empirical_net itself uses, over the symmetric set
    n_words = gapforge.gates._word_count(gs.symmetrized().size, length)
    return {"distances": n_words * samples}


@contextmanager
def installed(recorder: Recorder):
    """Route the layer boundaries through `recorder` for the duration."""
    avgop, bounds, gates, irrep = (
        gapforge.avgop, gapforge.bounds, gapforge.gates, gapforge.irrep
    )
    saved = []

    def patch(module, attr, name, annotate=None):
        original = getattr(module, attr)
        saved.append((module, attr, original))
        setattr(module, attr, recorder.wrap(name, original, annotate))

    try:
        patch(irrep, "build_basis", "irrep.basis.build")
        patch(avgop, "cached_basis", "irrep.basis.lookup")
        patch(avgop, "irrep_matrix", "irrep.image", _image_attrs)
        patch(avgop, "averaging_block", "avgop.assemble")
        patch(avgop, "block_operator_norm", "avgop.norm", _norm_attrs)
        patch(avgop, "enumerate_nontrivial_weights", "weightlat.enumerate")
        patch(avgop, "gap_at_scale", "avgop.gap")
        # bounds bound gap_at_scale at import; wrapping the traced avgop one
        # keeps each subset gap an avgop.gap span too
        saved.append((bounds, "gap_at_scale", bounds.gap_at_scale))
        bounds.gap_at_scale = recorder.wrap("bounds.subset_gap", avgop.gap_at_scale)
        patch(bounds, "universality_heuristic", "bounds.universality")
        patch(bounds, "g_t0", "bounds.g_t0")
        patch(gates, "empirical_net", "gates.net", _net_attrs)
        yield recorder
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def as_json(span: Span, phase: str) -> dict:
    return {"phase": phase, **dataclasses.asdict(span)}


def _union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """{span id: duration minus the union of its children's intervals}.

    Children on pool threads overlap, so their durations are not summed.
    """
    children: dict = {}
    for s in spans:
        children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - _union_length(children.get(s.id, ()), s.start, s.end)
        for s in spans
    }


def layer_metrics(setup_spans, op_spans, n_ops: int) -> dict:
    """Per-layer metrics from the spans of the traced ops, per op.  Basis
    builds happen in the set-up warm-up op, so `irrep.basis.builds` and
    `irrep.basis.s` are totals over its spans; lookups and the hit ratio
    come from the traced ops."""
    by_name: dict = {}
    for s in op_spans:
        by_name.setdefault(s.name, []).append(s)
    selfs = self_times(op_spans)

    def of(name):
        return by_name.get(name, [])

    def seconds(name):
        return sum(s.end - s.start for s in of(name))

    def per_op(x):
        return x / n_ops

    def ratio(num, den):
        return num / den if den else 0.0

    images = of("irrep.image")
    image_s = seconds("irrep.image")
    n3 = sum(s.attrs["dim"] ** 3 for s in images)
    norms = of("avgop.norm")
    net_distances = sum(s.attrs["distances"] for s in of("gates.net"))

    setup_builds = [s for s in setup_spans if s.name == "irrep.basis.build"]
    lookups = len(of("irrep.basis.lookup"))
    op_builds = len(of("irrep.basis.build"))

    return {
        "irrep.image.calls": per_op(len(images)),
        "irrep.image.s": per_op(image_s),
        "irrep.image.unique_ratio": ratio(len({s.attrs["key"] for s in images}), len(images)),
        "irrep.image.n3_sum": per_op(n3),
        "irrep.image.n3_per_s": ratio(n3, image_s),
        "irrep.basis.lookups": per_op(lookups),
        "irrep.basis.builds": len(setup_builds),
        "irrep.basis.hit_ratio": ratio(lookups - op_builds, lookups),
        "irrep.basis.s": sum(s.end - s.start for s in setup_builds),
        "avgop.assemble.calls": per_op(len(of("avgop.assemble"))),
        "avgop.assemble.self_s": per_op(sum(selfs[s.id] for s in of("avgop.assemble"))),
        "avgop.norm.calls": per_op(len(norms)),
        "avgop.norm.s": per_op(seconds("avgop.norm")),
        "avgop.norm.lanczos_calls": per_op(sum(s.attrs["method"] == "lanczos" for s in norms)),
        "avgop.norm.matvecs": per_op(sum(s.attrs["matvecs"] for s in norms)),
        "avgop.norm.fallbacks": per_op(sum(s.attrs["method"] == "dense-fallback" for s in norms)),
        "avgop.gap.calls": per_op(len(of("avgop.gap"))),
        "avgop.gap.s": per_op(seconds("avgop.gap")),
        "bounds.g_t0.s": per_op(seconds("bounds.g_t0")),
        "bounds.subset_gaps": per_op(len(of("bounds.subset_gap"))),
        "bounds.universality.s": per_op(seconds("bounds.universality")),
        "bounds.reduce.self_s": per_op(sum(selfs[s.id] for s in of("bounds.g_t0"))),
        "weightlat.enumerate.calls": per_op(len(of("weightlat.enumerate"))),
        "weightlat.enumerate.s": per_op(seconds("weightlat.enumerate")),
        "gates.net.s": per_op(seconds("gates.net")),
        "gates.net.distances": per_op(net_distances),
        "gates.net.distances_per_s": ratio(net_distances, seconds("gates.net")),
    }
