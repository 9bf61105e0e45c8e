"""Span and counter recording for qsticker, installed from outside the package.

`Tracer.install` replaces each traced function with a wrapper in every
`qsticker` module namespace that holds it (``from .gf2 import solve_left``
creates one binding per importing module), and each traced method on its
class.  `Tracer.remove` puts every original object back.

A span is ``[name, start, end, parent, item]``: the parent is the index of
the enclosing span and the item is the id of the benchmark item being
timed.  Outside items (set-up, input generation, output checks) only the
set-up layers are traced, and their spans are whole: nothing nested in
them is recorded.  Spans stay in memory until the run ends.
Counter probes run inside a span of their own (`PROBE`), so their cost is
charged neither to the traced function nor to its caller.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter

PACKAGE = "qsticker"
ITEM = "item"
PROBE = "trace.probe"


def _elimination_probe(shape, operand):
    """Counters for an elimination entry point.

    `shape(args)` gives the rows x cols entering elimination; the
    `operand(args)` matrix is the one whose repeats count as redundant work.
    qsticker passes these matrices positionally.
    Repeats are found by hash: Gf2Matrix hashes its width and packed rows.
    """
    def probe(tracer, name, args, result):
        rows, cols = shape(args)
        tracer.counts[name + ".cells"] += rows * cols
        key = hash(operand(args))
        seen = tracer.seen[name]
        if key in seen:
            tracer.counts[name + ".repeats"] += 1
        else:
            seen.add(key)
    return probe


def _paste_probe(tracer, name, args, result):
    tracer.counts["stickers.paste.qubits"] += result.n


def _verify_probe(tracer, name, args, result):
    tracer.counts["stickers.verify_surgery.statements"] += len(result.statements)
    tracer.counts["stickers.verify_surgery.skipped"] += sum(
        s.status == "skipped" for s in result.statements)


# (module, attribute path, span name, counter probe).  A dotted attribute
# path names a method on a class defined in that module.
TARGETS = [
    ("gf2", "rref", "gf2.rref",
     _elimination_probe(lambda a: a[0].shape, lambda a: a[0])),
    ("gf2", "rank", "gf2.rank", None),
    ("gf2", "kernel_basis", "gf2.kernel_basis",
     _elimination_probe(lambda a: a[0].shape, lambda a: a[0])),
    ("gf2", "solve_left", "gf2.solve_left",
     _elimination_probe(lambda a: (a[0].rows, a[0].cols + a[0].rows),
                        lambda a: a[0])),
    ("gf2", "subspace_intersect", "gf2.subspace_intersect", None),
    ("gf2", "standard_form", "gf2.standard_form", None),
    ("gf2", "Gf2Matrix.take_cols", "gf2.take_cols", None),
    ("gf2", "Gf2Matrix.mul_transpose", "gf2.mul_transpose", None),
    ("gf2", "Gf2Matrix.transpose", "gf2.transpose", None),
    ("codes", "exact_distance", "codes.exact_distance", None),
    ("codes", "redundancy_number", "codes.redundancy_number", None),
    ("codes", "contained_logical_count", "codes.contained_logical_count", None),
    ("codes", "crowd_numbers", "codes.crowd_numbers", None),
    ("tanner", "bit_duplication", "tanner.bit_duplication", None),
    ("tanner", "check_duplication", "tanner.check_duplication", None),
    ("glue", "split_logicals", "glue.split_logicals", None),
    ("glue", "naked_glue", "glue.naked_glue", None),
    ("glue", "dressing_matrix", "glue.dressing_matrix", None),
    ("glue", "finely_devised_glue", "glue.finely_devised_glue", None),
    ("glue", "classify_devisedness", "glue.classify_devisedness", None),
    ("stickers", "paste_measurement", "stickers.paste_measurement", _paste_probe),
    ("stickers", "paste_branch", "stickers.paste_branch", _paste_probe),
    ("stickers", "verify_surgery", "stickers.verify_surgery", _verify_probe),
    ("branching", "estimate_qubit_cost", "branching.estimate_qubit_cost", None),
    ("sampling", "SigmaSampler.sample", "sampling.SigmaSampler.sample", None),
    ("bench", "bench_cost", "bench.bench_cost", None),
    ("bench", "bench_overlap", "bench.bench_overlap", None),
    ("pauli", "is_regular", "pauli.is_regular", None),
    ("pauli", "regularise", "pauli.regularise", None),
    ("pauli", "build_measurement_plan", "pauli.build_measurement_plan", None),
    ("tableau", "plan_initial_state", "tableau.plan_initial_state", None),
    ("tableau", "simulate_plan", "tableau.simulate_plan", None),
    ("tableau", "memory_factor", "tableau.memory_factor", None),
    ("tableau", "StabilizerState.measure", "tableau.StabilizerState.measure", None),
    ("io", "desk_code", "io.desk_code", None),
]

LAYERS = list(dict.fromkeys(module for module, _, _, _ in TARGETS))
ELIMINATION = ["gf2.rref", "gf2.kernel_basis", "gf2.solve_left"]
# Layers traced during set-up; every other layer is reported per timed item.
SETUP_LAYERS = {"io"}


class Tracer:
    """Records spans and counters around wrapped qsticker functions."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.seen: defaultdict[str, set] = defaultdict(set)
        self.item = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), None, parent, self.item])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, probe=None):
        tracer = self
        setup_layer = name.split(".")[0] in SETUP_LAYERS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.item is None and not setup_layer:
                return fn(*args, **kwargs)
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if probe is not None:
                pidx = tracer.open(PROBE)
                try:
                    probe(tracer, name, args, result)
                finally:
                    tracer.close(pidx)
            return result

        return wrapper

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        """Wrap every target at every binding inside the package."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE
                                         or n.startswith(PACKAGE + "."))]
        for modname, path, span, probe in TARGETS:
            home = importlib.import_module(f"{PACKAGE}.{modname}")
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[attr]
                self._set(cls, attr, original, self.wrap(span, original, probe))
                continue
            original = getattr(home, path)
            wrapper = self.wrap(span, original, probe)
            for mod in modules:
                if mod.__dict__.get(path) is original:
                    self._set(mod, path, original, wrapper)

    def _set(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def remove(self) -> None:
        """Restore every binding `install` replaced."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


# -- aggregation ---------------------------------------------------------


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Children of one span never overlap (one thread), so summing their
    durations gives the covered part; re-entrant calls of the same function
    nest as ordinary children.
    """
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            out[s[3]] -= s[2] - s[1]
    return out


def coverage(spans: list[list]) -> float:
    """Share of summed item time covered by named layer spans.

    Probe spans are harness time: they are removed from the item time and
    are not counted as covered.
    """
    item_time = 0.0
    covered = 0.0
    probe = 0.0
    items = {i for i, s in enumerate(spans) if s[0] == ITEM}
    for i, s in enumerate(spans):
        dur = s[2] - s[1]
        if i in items:
            item_time += dur
        elif s[0] == PROBE:
            if s[4] is not None:
                probe += dur
                if s[3] not in items:  # inside a layer span counted below
                    covered -= dur
        elif s[3] in items:
            covered += dur
    effective = item_time - probe
    return covered / effective if effective > 0 else 0.0


def layer_metrics(tracer: Tracer, items: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: name -> (value, unit).

    Quantities of layers in SETUP_LAYERS are totals over set-up; all others
    are means per timed item.
    """
    selfs = self_times(tracer.spans)
    self_by_name: defaultdict[str, float] = defaultdict(float)
    calls_by_name: defaultdict[str, float] = defaultdict(float)
    for s, st in zip(tracer.spans, selfs):
        name = s[0]
        if name in (ITEM, PROBE):
            continue
        self_by_name[name] += st
        calls_by_name[name] += 1

    per = max(items, 1)
    out: dict[str, tuple[float, str]] = {}
    layer_self: defaultdict[str, float] = defaultdict(float)
    for _, _, name, _ in TARGETS:
        layer = name.split(".")[0]
        setup = layer in SETUP_LAYERS
        scale = 1.0 if setup else 1.0 / per
        out[name + ".calls"] = (calls_by_name[name] * scale,
                                "count" if setup else "1/item")
        out[name + ".self_s"] = (self_by_name[name] * scale,
                                 "s" if setup else "s/item")
        layer_self[layer] += self_by_name[name] * scale
    for layer in LAYERS:
        out[layer + ".self_s"] = (layer_self[layer],
                                  "s" if layer in SETUP_LAYERS else "s/item")
    c = tracer.counts
    for name in ELIMINATION:
        calls = calls_by_name[name]
        out[name + ".cells"] = (c[name + ".cells"] / per, "cells/item")
        out[name + ".repeat_share"] = (
            c[name + ".repeats"] / calls if calls else 0.0, "share")
    out["stickers.paste.qubits"] = (c["stickers.paste.qubits"] / per,
                                    "qubits/item")
    statements = c["stickers.verify_surgery.statements"]
    out["stickers.verify_surgery.skipped_share"] = (
        c["stickers.verify_surgery.skipped"] / statements if statements else 0.0,
        "share")
    out["trace.coverage"] = (coverage(tracer.spans), "share")
    return out
