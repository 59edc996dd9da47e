"""Outside-in tracing: spans around each layer's public entry points.

The benchmark never edits the program to trace it.  :class:`Tracer` swaps a
timing wrapper in for each public entry point listed in :data:`LAYER_POINTS`
(module functions are replaced in every ``repro`` module that imported them,
methods on their class), keeps every span in memory as ``(name, start, end,
parent, units)`` and can write them out at exit.  A layer's self time is its
spans' durations minus the part covered by their child spans; what no span
covers inside the timed window is ``trace.unattributed_ms``.

All timestamps are ``time.monotonic()`` (CLOCK_MONOTONIC on Linux), so spans
written by the server process line up with the load generator's window.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "LAYER_POINTS",
    "PER_LAYER_METRICS",
    "Tracer",
    "algorithm_counters",
    "layer_metrics",
    "load_spans",
    "offset_parents",
    "self_times",
    "span_seconds",
    "summarize",
]

Span = Tuple[str, float, float, int, float]


def _request_count(args, kwargs, result) -> float:
    return float(len(args[1]))


def _edge_count(args, kwargs, result) -> float:
    return float(result.num_edges)


#: (module, owner class or None, attribute, span name, units hook).  The units
#: hook turns a call into the count it did: arrivals for the batch kernels,
#: interned edges for a compilation.
LAYER_POINTS: Tuple[Tuple[str, Optional[str], str, str, Optional[Callable]], ...] = (
    ("repro.instances.serialize", None, "load_admission_trace", "serialize.load", None),
    ("repro.instances.compiled", None, "compile_sequence", "compiled.sequence", _edge_count),
    ("repro.instances.compiled", None, "compile_instance", "compiled.instance", None),
    ("repro.core.fractional", "FractionalAdmissionControl", "process_compiled_sequence",
     "vectorized.sequence", None),
    ("repro.core.fractional", "FractionalAdmissionControl", "fractional_cost",
     "fractional.cost", None),
    ("repro.engine.backends", "NumpyWeightBackend", "register_batch_indexed",
     "backends.bulk", _request_count),
    ("repro.engine.backends", "NumpyWeightBackend", "process_arrival_block_indexed",
     "backends.block", _request_count),
    ("repro.engine.backends", "NumpyWeightBackend", "process_arrival_indexed",
     "backends.indexed", None),
    ("repro.core.randomized", "RandomizedAdmissionControl", "process_indexed",
     "randomized.process", None),
    ("repro.core.doubling", "DoublingAdmissionControl", "process_indexed",
     "doubling.process", None),
    ("repro.engine.streaming", "StreamingSession", "submit_batch", "streaming.submit_batch", None),
    ("repro.engine.streaming", "StreamingSession", "save", "streaming.save", None),
    ("repro.engine.streaming", "StreamingSession", "load", "streaming.load", None),
    ("repro.service.wire", None, "decode_frame", "service.decode", None),
    ("repro.service.wire", None, "encode_frame", "service.encode", None),
)

#: Modules imported before patching, so the sweep over ``sys.modules`` also
#: reaches every ``from X import f`` copy of a patched function.
_PRELOAD = (
    "repro.cli",
    "repro.service.server",
    "repro.service.runtime",
    "repro.engine.streaming",
    "repro.engine.vectorized",
    "repro.core.doubling",
    "repro.scenarios.trace",
)

#: The per-layer metrics every traced run reports, with their units, in order
#: (the ``per_layer`` list of ``BENCHMARK.json``).
PER_LAYER_METRICS: Tuple[Tuple[str, str], ...] = (
    ("serialize.trace_load_s", "s"),
    ("serialize.checkpoint_bytes", "bytes"),
    ("compiled.calls", "count"),
    ("compiled.self_ms", "ms"),
    ("compiled.edges_per_call", "count"),
    ("vectorized.self_ms", "ms"),
    ("backends.block_ms", "ms"),
    ("backends.bulk_ms", "ms"),
    ("backends.bulk_frac", "ratio"),
    ("backends.indexed_calls", "count"),
    ("backends.indexed_ms", "ms"),
    ("backends.augmentations_per_arrival", "ratio"),
    ("fractional.cost_calls", "count"),
    ("fractional.cost_ms", "ms"),
    ("doubling.self_ms", "ms"),
    ("doubling.phases", "count"),
    ("randomized.self_ms", "ms"),
    ("randomized.coin_rejections", "count"),
    ("randomized.threshold_rejections", "count"),
    ("randomized.capacity_rejections", "count"),
    ("randomized.preemptions", "count"),
    ("streaming.batches", "count"),
    ("streaming.submit_batch_self_ms", "ms"),
    ("streaming.checkpoint_ms", "ms"),
    ("streaming.restore_ms", "ms"),
    ("service.cpu_us_per_arrival", "us"),
    ("service.arrivals_per_flush", "ratio"),
    ("service.codec_ms", "ms"),
    ("loadgen.sent", "count"),
    ("loadgen.failed", "count"),
    ("trace.window_ms", "ms"),
    ("trace.unattributed_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
)


class Tracer:
    """Records one span per call of every wrapped entry point (single thread)."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.units: List[float] = []
        self._stack: List[int] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        #: The last streaming session seen by ``submit_batch`` (its algorithm's
        #: public counters are read at exit by the server launcher).
        self.session: Any = None

    # -- recording ------------------------------------------------------------------
    def wrap(self, name: str, fn: Callable, units: Optional[Callable] = None) -> Callable:
        names, starts, ends = self.names, self.starts, self.ends
        parents, unit_list, stack = self.parents, self.units, self._stack
        clock = time.monotonic

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            unit_list.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if units is not None:
                unit_list[idx] = units(args, kwargs, result)
            return result

        return traced

    def spans(self) -> List[Span]:
        return list(zip(self.names, self.starts, self.ends, self.parents, self.units))

    # -- installation ---------------------------------------------------------------
    def install(self) -> "Tracer":
        """Swap the wrappers in; :meth:`uninstall` puts the originals back."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module in _PRELOAD:
            importlib.import_module(module)
        for module_name, owner, attr, span, units in LAYER_POINTS:
            module = importlib.import_module(module_name)
            if owner is None:
                original = getattr(module, attr)
                wrapped = self.wrap(span, original, units)
                for loaded in list(sys.modules.values()):
                    namespace = getattr(loaded, "__dict__", None)
                    if (
                        namespace is not None
                        and getattr(loaded, "__name__", "").startswith("repro")
                        and namespace.get(attr) is original
                    ):
                        self._patch(loaded, attr, wrapped)
                continue
            cls = getattr(module, owner)
            raw = cls.__dict__.get(attr)
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.wrap(span, raw.__func__, units))
            else:
                wrapped = self.wrap(span, getattr(cls, attr), units)
                if attr == "submit_batch":
                    wrapped = self._remember_session(wrapped)
            self._patch(cls, attr, wrapped)
        return self

    def _remember_session(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def remember(session, *args, **kwargs):
            self.session = session
            return fn(session, *args, **kwargs)

        return remember

    def _patch(self, target: Any, attr: str, value: Any) -> None:
        # The class-level original may be inherited: remember whether the
        # attribute lived on the target itself so uninstall restores exactly.
        own = attr in vars(target)
        self._patches.append((target, attr, vars(target)[attr] if own else None))
        setattr(target, attr, value)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            if original is None:
                delattr(target, attr)
            else:
                setattr(target, attr, original)
        self._patches = []

    # -- persistence ----------------------------------------------------------------
    def dump(self, path: str, counters: Optional[Dict[str, float]] = None) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans(), "counters": counters or {}}, fh)


def load_spans(path: str) -> Tuple[List[Span], Dict[str, float]]:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    return [tuple(span) for span in data["spans"]], data["counters"]


def offset_parents(spans: Sequence[Span], offset: int) -> List[Span]:
    """``spans`` with parent indices shifted by ``offset``, to append them to a list that long."""
    return [
        (name, start, end, parent + offset if parent >= 0 else parent, units)
        for name, start, end, parent, units in spans
    ]


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread, so a child lies inside its parent and the
    children of one span never overlap: their summed durations are exactly
    the part of the parent's interval they cover.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, start, end, _, _) in enumerate(spans)]


def summarize(
    spans: Sequence[Span], windows: Iterable[Tuple[float, float]]
) -> Tuple[Dict[str, Dict[str, float]], float, float]:
    """Calls, self seconds and units per span name, over spans inside the windows.

    A span counts when it starts and ends inside one window.  Returns the
    per-name table, the summed window length and the seconds inside the
    windows that no counted span covers.
    """
    windows = list(windows)
    own = self_times(spans)
    table: Dict[str, Dict[str, float]] = {}
    attributed = 0.0
    for i, (name, start, end, _, units) in enumerate(spans):
        if not any(lo <= start and end <= hi for lo, hi in windows):
            continue
        row = table.setdefault(name, {"calls": 0.0, "self_s": 0.0, "units": 0.0})
        row["calls"] += 1
        row["self_s"] += own[i]
        row["units"] += units
        attributed += own[i]
    total = sum(hi - lo for lo, hi in windows)
    return table, total, total - attributed


def layer_metrics(
    spans: Sequence[Span],
    windows: Sequence[Tuple[float, float]],
    *,
    per: float = 1.0,
) -> Dict[str, float]:
    """The span-derived per-layer metrics, divided by ``per`` (repetitions)."""
    table, window_s, unattributed_s = summarize(spans, windows)

    def get(name: str, key: str) -> float:
        return table.get(name, {}).get(key, 0.0)

    def ms(*names: str) -> float:
        return sum(get(name, "self_s") for name in names) * 1000.0 / per

    compile_calls = get("compiled.sequence", "calls")
    bulk = get("backends.bulk", "units")
    routed = bulk + get("backends.block", "units") + get("backends.indexed", "calls")
    return {
        "compiled.calls": compile_calls / per,
        "compiled.self_ms": ms("compiled.sequence", "compiled.instance"),
        "compiled.edges_per_call": (
            get("compiled.sequence", "units") / compile_calls if compile_calls else 0.0
        ),
        "vectorized.self_ms": ms("vectorized.sequence"),
        "backends.block_ms": ms("backends.block"),
        "backends.bulk_ms": ms("backends.bulk"),
        "backends.bulk_frac": bulk / routed if routed else 0.0,
        "backends.indexed_calls": get("backends.indexed", "calls") / per,
        "backends.indexed_ms": ms("backends.indexed"),
        "fractional.cost_calls": get("fractional.cost", "calls") / per,
        "fractional.cost_ms": ms("fractional.cost"),
        "doubling.self_ms": ms("doubling.process"),
        "randomized.self_ms": ms("randomized.process"),
        "streaming.batches": get("streaming.submit_batch", "calls") / per,
        "streaming.submit_batch_self_ms": ms("streaming.submit_batch"),
        "streaming.checkpoint_ms": ms("streaming.save"),
        "streaming.restore_ms": ms("streaming.load"),
        "service.codec_ms": ms("service.decode", "service.encode"),
        "trace.window_ms": window_s * 1000.0 / per,
        "trace.unattributed_ms": unattributed_s * 1000.0 / per,
    }


def span_seconds(spans: Sequence[Span], name: str) -> float:
    """Summed duration of every span called ``name``, inside a window or not.

    Used for the trace load, which happens in set-up, before any window.
    """
    return sum(end - start for span_name, start, end, _, _ in spans if span_name == name)


def algorithm_counters(algorithm: Any) -> Dict[str, float]:
    """Public counters of a finished run, for any of the three algorithm shapes.

    A doubling wrapper exposes its phases and wraps a randomized algorithm; a
    randomized algorithm exposes its rounding counters and wraps a fractional
    shadow; the fractional algorithm counts augmentations.
    """
    counters: Dict[str, float] = {
        "doubling.phases": 0.0,
        "randomized.coin_rejections": 0.0,
        "randomized.threshold_rejections": 0.0,
        "randomized.capacity_rejections": 0.0,
        "randomized.preemptions": 0.0,
    }
    if hasattr(algorithm, "schedule"):
        counters["doubling.phases"] = float(algorithm.schedule.num_phases)
        algorithm = algorithm.inner
    if hasattr(algorithm, "shadow"):
        counters["randomized.coin_rejections"] = float(algorithm.num_coin_rejections)
        counters["randomized.threshold_rejections"] = float(algorithm.num_threshold_rejections)
        counters["randomized.capacity_rejections"] = float(algorithm.num_capacity_rejections)
        counters["randomized.preemptions"] = float(algorithm.num_feasibility_preemptions)
        algorithm = algorithm.shadow
    counters["augmentations"] = float(algorithm.num_augmentations)
    return counters
