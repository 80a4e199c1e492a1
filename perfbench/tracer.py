"""Spans and counters around calls into the ``ial`` modules, from outside the package.

The tracer replaces selected functions and methods with timing wrappers while
it is installed and puts the originals back on ``uninstall``.  A module that
imported a function by name (``from .signal import make_window``) holds its own
reference, so every ``ial`` module that binds the original object gets the
wrapper, not only the module that defines it.  Methods are patched once on
their class.

Spans nest through a stack, so the tracer assumes one calling thread (the
benchmark runs the program with ``--threads 1``).  A layer's self time is its
span minus the part of it that its child spans cover.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from dataclasses import dataclass
from typing import Callable

PACKAGE = "ial"

LAYER_CLASSES = ("Conv2D", "BatchNorm", "ReLU", "MaxPool2", "Dense")

# Spans inside which windows cut and featurized count as detection work, as
# opposed to dataset building.
DETECTION_SCOPES = ("detector.detect", "evaluation.evaluate_run")


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in Tracer.spans


@dataclass(frozen=True)
class Target:
    """One function or method to wrap.

    ``attr`` is ``"func"`` or ``"Class.method"`` inside ``module``.  ``name``
    is the span name, or a callable of the bound arguments that returns it.
    ``hook`` runs after the call with the tracer, the bound arguments and the
    result, to add counters.  A hook that no longer fits the function is
    reported in ``Tracer.absent`` and the call goes on.
    """

    module: str
    attr: str
    name: str | Callable[[dict], str]
    hook: Callable[["Tracer", dict, object], None] | None = None

    @property
    def qualname(self) -> str:
        return f"{self.module}.{self.attr}"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def add(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def within(self, names) -> bool:
        """True when a span with one of ``names`` is open."""
        return any(self.spans[i].name in names for i in self._stack)

    def _call(self, name: str, fn, args, kwargs):
        span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, target: Target, original):
        tracer = self
        needs_args = callable(target.name) or target.hook is not None
        signature = inspect.signature(original) if needs_args else None

        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs).arguments if needs_args else {}
            name = target.name(bound) if callable(target.name) else target.name
            result = tracer._call(name, original, args, kwargs)
            if target.hook is not None:
                try:
                    target.hook(tracer, bound, result)
                except (KeyError, TypeError, AttributeError):
                    # the function's arguments or result changed shape
                    broken = f"{target.qualname} counters"
                    if broken not in tracer.absent:
                        tracer.absent.append(broken)
            return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", target.attr)
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self, targets) -> None:
        """Wrap every target; a target missing from the code is listed in ``absent``."""
        importlib.import_module(f"{PACKAGE}.cli")  # loads every module the CLI uses
        for target in targets:
            try:
                module = importlib.import_module(target.module)
            except ImportError:
                self.absent.append(target.qualname)
                continue
            owner_name, _, attr = target.attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                self.absent.append(target.qualname)
                continue
            wrapper = self._wrap(target, original)
            if owner_name:
                self._patch(owner, attr, original, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def self_ms_by_name(self) -> dict[str, float]:
        totals: dict[str, float] = {}
        for span, own in zip(self.spans, self_times(self.spans)):
            totals[span.name] = totals.get(span.name, 0.0) + 1000.0 * own
        return totals

    def calls_by_name(self, scopes=()) -> dict[str, int]:
        """Calls per span name; with ``scopes``, only calls made inside a span of those names."""
        inside: list[bool] = []
        calls: dict[str, int] = {}
        for span in self.spans:
            # a parent is always recorded before its children
            flag = not scopes or span.name in scopes or (span.parent is not None and inside[span.parent])
            inside.append(flag)
            if flag:
                calls[span.name] = calls.get(span.name, 0) + 1
        return calls

    def dump(self) -> dict:
        names = sorted({s.name for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {
            "names": names,
            "spans": [[index[s.name], s.parent, s.start, s.end] for s in self.spans],
            "counts": self.counts,
            "absent": self.absent,
        }


def self_times(spans) -> list[float]:
    """Each span's duration minus the union of its children's intervals, clipped to it.

    Children can overlap one another (work run on several threads), so the
    covered time is the length of the union, not the sum.
    """
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(i)
    out = []
    for i, span in enumerate(spans):
        pieces = sorted(
            (max(spans[c].start, span.start), min(spans[c].end, span.end)) for c in children[i]
        )
        covered, reach = 0.0, span.start
        for lo, hi in pieces:
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((span.end - span.start) - covered)
    return out


# ---------------------------------------------------------------------------
# what the benchmark wraps
# ---------------------------------------------------------------------------


def _layer_forward_name(cls: str) -> Callable[[dict], str]:
    return lambda a: f"net.{cls}.forward_{'train' if a.get('train') else 'infer'}"


def _rows(key: str, arg: str | None = None):
    def hook(tracer: Tracer, a: dict, result) -> None:
        tracer.add(key, len(a[arg] if arg else result))

    return hook


def _train_samples(tracer: Tracer, a: dict, result) -> None:
    if tracer.within(("net.train",)):
        tracer.add("net.train.samples", len(a["logits"]))


def _scored(tracer: Tracer, a: dict, result) -> None:
    threshold = a["cfg"].interest_threshold
    tracer.add("detector.windows_scored", len(result))
    tracer.add("detector.positive_windows", sum(s.interest_prob >= threshold for s in result))


def targets() -> list[Target]:
    out = []
    for cls in LAYER_CLASSES:
        out.append(Target("ial.net", f"{cls}.forward", _layer_forward_name(cls)))
        out.append(Target("ial.net", f"{cls}.backward", f"net.{cls}.backward"))
    out += [
        Target("ial.net", "Network.predict_proba", "net.predict_proba", _rows("net.predict_proba.rows", "x")),
        Target("ial.net", "SGD.step", "net.SGD.step"),
        Target("ial.net", "softmax_cross_entropy", "net.softmax_cross_entropy", _train_samples),
        Target("ial.net", "train", "net.train"),
        Target("ial.net", "load_checkpoint", "net.load_checkpoint"),
        Target("ial.signal", "slide_windows", "signal.slide_windows"),
        Target("ial.signal", "make_window", "signal.make_window"),
        Target("ial.features", "image_feature", "features.image_feature"),
        Target("ial.features", "vector_feature", "features.vector_feature"),
        Target("ial.detector", "featurize_windows", "detector.featurize_windows",
               _rows("detector.featurize_windows.rows")),
        Target("ial.detector", "detect", "detector.detect"),
        Target("ial.detector", "score_windows", "detector.score_windows", _scored),
        Target("ial.detector", "segment_events", "detector.segment_events", _rows("detector.intervals")),
        Target("ial.detector", "classify_event", "detector.classify_event"),
        Target("ial.detector", "build_phase1_dataset", "detector.build_phase1_dataset"),
        Target("ial.detector", "build_phase2_dataset", "detector.build_phase2_dataset"),
        Target("ial.detector", "write_events_tsv", "detector.write_events"),
        Target("ial.detector", "write_events_json", "detector.write_events"),
        Target("ial.data", "ingest_stream", "data.ingest_stream"),
        Target("ial.data", "write_stream", "data.write_stream"),
        Target("ial.data", "generate_synthetic_stream", "data.generate_synthetic_stream"),
        Target("ial.evaluation", "evaluate_run", "evaluation.evaluate_run"),
        Target("ial.evaluation", "match_events", "evaluation.match_events"),
        Target("ial.cli", "main", "cli.main"),
    ]
    return out


# Per-layer metrics, in the order BENCHMARK.json lists them.  Each self-time
# metric is summed over the traced part of a run.
SELF_MS = (
    [f"net.{c}.forward_infer" for c in LAYER_CLASSES]
    + ["net.predict_proba"]
    + [f"net.{c}.forward_train" for c in LAYER_CLASSES]
    + [f"net.{c}.backward" for c in LAYER_CLASSES]
    + ["net.SGD.step", "net.softmax_cross_entropy", "net.load_checkpoint"]
    + ["signal.slide_windows", "signal.make_window"]
    + ["features.image_feature", "features.vector_feature", "detector.featurize_windows"]
    + [
        "detector.score_windows", "detector.segment_events", "detector.classify_event",
        "detector.build_phase1_dataset", "detector.build_phase2_dataset", "detector.write_events",
    ]
    + ["data.ingest_stream", "data.write_stream", "data.generate_synthetic_stream"]
    + ["evaluation.evaluate_run", "evaluation.match_events", "cli.main"]
)
CALLS = (
    "signal.slide_windows", "signal.make_window", "features.image_feature",
    "detector.classify_event", "data.ingest_stream",
)
COUNTS = (
    "net.predict_proba.rows", "net.train.samples", "detector.featurize_windows.rows",
    "detector.windows_scored", "detector.intervals",
)
RATIOS = (
    "signal.windows_cut_per_scored", "features.featurized_per_scored",
    "detector.positive_window_share",
)


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Every per-layer metric by name, as (value, unit)."""
    self_ms = tracer.self_ms_by_name()
    calls = tracer.calls_by_name()
    counts = tracer.counts
    out: dict[str, tuple[float, str]] = {}
    for name in SELF_MS:
        out[f"{name}.self_ms"] = (self_ms.get(name, 0.0), "ms")
    for name in CALLS:
        out[f"{name}.calls"] = (calls.get(name, 0), "count")
    for name in COUNTS:
        out[name] = (counts.get(name, 0), "count")
    scored = counts.get("detector.windows_scored", 0)
    in_detection = tracer.calls_by_name(DETECTION_SCOPES)

    def per_scored(n: float) -> float:
        return n / scored if scored else 0.0

    out["signal.windows_cut_per_scored"] = (per_scored(in_detection.get("signal.make_window", 0)), "ratio")
    out["features.featurized_per_scored"] = (per_scored(in_detection.get("features.image_feature", 0)), "ratio")
    out["detector.positive_window_share"] = (per_scored(counts.get("detector.positive_windows", 0)), "ratio")
    return out
