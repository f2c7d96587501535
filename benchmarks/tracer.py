"""Span tracer that wraps spinbars functions from outside the package.

Each wrapped call records one span (job id, span id, name, start, end,
parent span id).  Spans stay in memory until the job ends; ``summary``
turns them into per-function self time and call counts, and ``write``
dumps the raw spans as JSON lines.

Wrapping replaces the function object wherever the package holds it: in
the defining module and in every module that bound the name with
``from ... import``.  Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import itertools
import json
import time
from collections import Counter

# Coarse public functions timed as spans.  Leaf helpers (sigma, block_of,
# p_integrality, ...) cost about as much as a wrapper, so their time stays
# in their caller's self time.
SPANS = {
    "cli": ("run",),
    "barcomb": ("bar_partitions",),
    "spinchar": ("labels", "split_classes", "char_value"),
    "blocks": ("block_partition", "block_members", "basic_set", "brauer_count"),
    "zverify": (
        "restricted_matrix",
        "integer_expansion",
        "hnf",
        "integral_coordinates",
        "z_span_equal",
        "verify_basic_set",
    ),
    "isometry": (
        "iso_I",
        "basic_set_transport",
        "swap_J",
        "block_kernel",
        "split_value_matrix",
        "kernel_of",
        "broue_check",
        "perfect_check",
    ),
}

def _int_columns(tracer, args, kwargs, result):
    rows, columns, _ = result
    tracer.counts["zverify.int_columns"] += len(columns)
    tracer.counts["zverify.int_columns_nonzero"] += sum(
        1 for j in range(len(columns)) if any(row[j] for row in rows)
    )


def _hnf_bits(tracer, args, kwargs, result):
    rows = result[0] if isinstance(result, tuple) else result
    bits = max((abs(a).bit_length() for row in rows for a in row), default=0)
    tracer.maxima["zverify.hnf.max_entry_bits"] = max(tracer.maxima["zverify.hnf.max_entry_bits"], bits)


def _matrix_cells(tracer, args, kwargs, result):
    tracer.counts["zverify.matrix_cells"] += len(result.row_keys) * len(result.classes)


def _kernel_terms(tracer, args, kwargs, result):
    iso, source, target = args[:3]
    tracer.counts["isometry.kernel_terms"] += len(source.classes) * len(target.classes) * len(iso.mapping)


def _split_inputs(tracer, args, kwargs, result):
    tracer.distinct["spinchar.split_classes"].add((args, tuple(sorted(kwargs.items()))))


# Shape and waste counters, computed from return values.
SHAPES = {
    "zverify.integer_expansion": _int_columns,
    "zverify.hnf": _hnf_bits,
    "zverify.restricted_matrix": _matrix_cells,
    "isometry.kernel_of": _kernel_terms,
    "spinchar.split_classes": _split_inputs,
}


class Tracer:
    """In-memory span recorder for one job.

    It keeps one span stack and unlocked counters, so the traced job must
    run on one thread: the benchmark sets SPINBARS_WORKERS=1 for it.
    """

    def __init__(self, job_id: str):
        self.job_id = job_id
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self.distinct = {"spinchar.split_classes": set()}
        self._ids = itertools.count()
        self._stack: list[int] = []

    def span(self, name: str, fn):
        shape = SHAPES.get(name)
        clock = time.perf_counter
        stack = self._stack

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            sid = next(self._ids)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self.spans.append((self.job_id, sid, name, start, end, parent))
            if shape is not None:
                # Timed as a sibling span so the caller's self time excludes it.
                begin = clock()
                shape(self, args, kwargs, result)
                self.spans.append((self.job_id, next(self._ids), "trace.shapes", begin, clock(), parent))
            return result

        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts
        key = name + ".calls"

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install_spans(self, package) -> None:
        """Time the SPANS functions wherever the package binds them."""
        for short, names in SPANS.items():
            _replace(package, getattr(package, short), names, self.span)

    def install_counters(self, package) -> None:
        """Count bar_core_quotient calls and AlgNum constructions.

        A counting wrapper adds about a tenth to AlgNum arithmetic, so the
        counters run in their own pass, never together with the spans.
        """
        _replace(package, package.barcomb, ("bar_core_quotient",), self.counter)
        cls = package.algnum.AlgNum
        init = cls.__init__
        counts = self.counts

        def counted_init(obj, *args, **kwargs):
            counts["algnum.AlgNum.constructions"] += 1
            init(obj, *args, **kwargs)

        cls.__init__ = counted_init

    def summary(self) -> dict:
        """Self seconds and calls per span name, plus the shape counters."""
        child_time: Counter = Counter()
        for _, _, _, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        self_s: Counter = Counter()
        calls: Counter = Counter()
        for _, sid, name, start, end, _ in self.spans:
            self_s[name] += (end - start) - child_time[sid]
            calls[name] += 1
        return {
            "self_s": dict(self_s),
            "calls": dict(calls),
            "counts": dict(self.counts),
            "maxima": dict(self.maxima),
            "distinct": {k: len(v) for k, v in self.distinct.items()},
        }

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for job_id, sid, name, start, end, parent in self.spans:
                fh.write(json.dumps([job_id, sid, name, start, end, parent]) + "\n")


def _replace(package, module, names, make) -> None:
    """Swap each named function for its wrapper wherever the package binds it."""
    loaded = [m for m in vars(package).values() if isinstance(m, type(package))]
    for name in names:
        original = getattr(module, name)
        wrapped = make(f"{module.__name__.rsplit('.', 1)[-1]}.{name}", original)
        for holder in [package, *loaded]:
            for attr, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, attr, wrapped)
