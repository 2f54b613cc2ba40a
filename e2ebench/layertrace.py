"""Outside-in layer tracing: wrap each layer's public entry points in spans.

The program is never edited.  For a traced operation, :class:`LayerTracer`
swaps each entry point listed in :data:`LAYER_TARGETS` for a wrapper that
records one span (layer, name, start, end, parent) and swaps the originals
back afterwards.  Stage functions resolve their callees as module globals at
call time, so a wrapper is installed on the name *where it is called* (for
example ``repro.pipeline.stages.estimate_drift``); methods are wrapped on
their class, which covers subclasses that inherit them.

A layer's *self time* is its span's duration minus the durations of its
direct child spans.  Parentage follows a :class:`contextvars.ContextVar`, so
spans opened inside asyncio tasks nest under the span that started the
event loop.  Spans are only recorded in the process that installed the
wrappers: pool workers forked while wrappers are installed call straight
through, so worker-side work is invisible to the trace (the fan-out
workload reports it through CPU counters instead).

This module deliberately does not use ``repro.obs``: the program's own
telemetry may change, and the measurement must not change with it.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import os
import resource
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

#: Layer -> entry points, as ``"module:attribute"`` or ``"module:Class.method"``.
#: The layers are the ``src/repro/`` packages.
LAYER_TARGETS: dict[str, tuple[str, ...]] = {
    "surface": ("repro.pipeline.stages:generate_scene",),
    "atl03": ("repro.pipeline.stages:simulate_granule",),
    "sentinel2": (
        "repro.pipeline.stages:render_scene",
        "repro.pipeline.stages:segment_image",
    ),
    "resampling": ("repro.pipeline.stages:resample_fixed_window",),
    "labeling": (
        "repro.pipeline.stages:estimate_drift",
        "repro.pipeline.stages:apply_shift",
        "repro.pipeline.stages:auto_label_segments",
        "repro.pipeline.stages:correct_labels",
    ),
    "classification": (
        "repro.pipeline.stages:train_classifier",
        "repro.campaign.runner:train_classifier",
        "repro.classification.pipeline:InferencePipeline.classify_segments_batched",
    ),
    "freeboard": (
        "repro.pipeline.stages:estimate_track_sea_surface",
        "repro.pipeline.stages:freeboard_from_sea_surface",
    ),
    "products": (
        "repro.pipeline.stages:generate_atl07",
        "repro.pipeline.stages:generate_atl10",
    ),
    "l3": (
        "repro.l3.processor:Level3Processor.grid_granule",
        "repro.l3.processor:Level3Processor.mosaic",
        # CampaignRunner.serve imports the writer at call time.
        "repro.l3.writer:write_level3",
    ),
    "pipeline": (
        "repro.pipeline.runner:GraphRunner.run",
        "repro.pipeline.runner:GraphRunner.fingerprints",
        "repro.pipeline.cache:ArtifactStore.load",
        "repro.pipeline.cache:ArtifactStore.store",
    ),
    "campaign": (
        "repro.campaign.runner:CampaignRunner.run",
        "repro.campaign.runner:CampaignRunner.to_l3",
        "repro.campaign.runner:CampaignRunner.serve",
        "repro.campaign.runner:CampaignRunner.grid_new_granule",
    ),
    "distributed": ("repro.distributed.mapreduce:MapReduceEngine.run",),
    "serve": (
        "repro.serve.router:RequestRouter.serve",
        "repro.serve.router:RequestRouter.query",
        "repro.serve.query:QueryEngine.query_batch",
        "repro.serve.query:ProductLoader.fetch",
        "repro.serve.query:build_pyramid",
        "repro.ingest.service:build_pyramid",
    ),
    "ingest": (
        "repro.ingest.service:IngestService.ingest",
        "repro.l3.merge:MosaicAccumulator.add",
        "repro.l3.merge:MosaicAccumulator.snapshot",
        "repro.serve.live:IncrementalPyramidBuilder.update",
        "repro.ingest.service:write_level3",
        "repro.serve.catalog:ProductCatalog.append",
        "repro.serve.shard:ShardedCatalog.append",
    ),
}

LAYERS: tuple[str, ...] = tuple(LAYER_TARGETS)


@dataclass
class Span:
    """One wrapped call: ``parent`` is the index of the enclosing span."""

    layer: str
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


_CURRENT: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "e2ebench_span", default=None
)


@dataclass
class OpTiming:
    """Start, wall time and CPU time of one timed operation."""

    start_s: float = 0.0
    wall_s: float = 0.0
    driver_cpu_s: float = 0.0
    worker_cpu_s: float = 0.0


@dataclass
class LayerTotals:
    """Per-layer sums over the traced operations of one run."""

    wall_s: float = 0.0
    calls: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    self_s: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    inclusive_s: dict[str, float] = field(default_factory=lambda: defaultdict(float))


def _cpu_seconds(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def _resolve(target: str) -> tuple[Any, str]:
    """``"module:Class.attr"`` -> (owner object, attribute name)."""
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class LayerTracer:
    """Install span wrappers around one operation at a time."""

    def __init__(self, targets: dict[str, tuple[str, ...]] = LAYER_TARGETS) -> None:
        self._pid = os.getpid()
        self._spans: list[Span] = []
        self._patches: list[tuple[Any, str, Any, Any, bool]] = []
        for layer, names in targets.items():
            for target in names:
                owner, attr = _resolve(target)
                original = inspect.getattr_static(owner, attr)
                own = isinstance(owner, type) and attr in owner.__dict__
                wrapped = self._wrap(layer, target, original)
                self._patches.append((owner, attr, original, wrapped, own))
        self.totals = LayerTotals()

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, layer: str, name: str, original: Any) -> Any:
        if isinstance(original, (staticmethod, classmethod)):
            return type(original)(self._wrap(layer, name, original.__func__))
        fn: Callable = original
        spans = self._spans
        pid = self._pid

        def enter() -> tuple[int, Any]:
            parent = _CURRENT.get()
            spans.append(Span(layer, name, time.perf_counter(), parent=parent))
            index = len(spans) - 1
            return index, _CURRENT.set(index)

        def leave(index: int, token: Any) -> None:
            span = spans[index]
            span.end = time.perf_counter()
            _CURRENT.reset(token)
            if span.parent is not None:
                spans[span.parent].child_s += span.duration

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced_async(*args: Any, **kwargs: Any) -> Any:
                if os.getpid() != pid:
                    return await fn(*args, **kwargs)
                index, token = enter()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    leave(index, token)

            return traced_async

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if os.getpid() != pid:
                return fn(*args, **kwargs)
            index, token = enter()
            try:
                return fn(*args, **kwargs)
            finally:
                leave(index, token)

        return traced

    def _install(self) -> None:
        for owner, attr, _, wrapped, _ in self._patches:
            setattr(owner, attr, wrapped)

    def _uninstall(self) -> None:
        for owner, attr, original, _, own in reversed(self._patches):
            if isinstance(owner, type) and not own:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- operations ---------------------------------------------------------

    @contextmanager
    def op(self, traced: bool) -> Iterator[OpTiming]:
        """Time one operation; with ``traced`` also record its layer spans.

        Wrappers go in before the clock starts and come out after it stops,
        so installing them is not part of the measured time.
        """
        timing = OpTiming()
        if traced:
            self._spans.clear()
            self._install()
        try:
            cpu_self = _cpu_seconds(resource.RUSAGE_SELF)
            cpu_children = _cpu_seconds(resource.RUSAGE_CHILDREN)
            timing.start_s = time.perf_counter()
            yield timing
            timing.wall_s = time.perf_counter() - timing.start_s
            timing.driver_cpu_s = _cpu_seconds(resource.RUSAGE_SELF) - cpu_self
            timing.worker_cpu_s = _cpu_seconds(resource.RUSAGE_CHILDREN) - cpu_children
        finally:
            if traced:
                self._uninstall()
        if traced:
            self._fold(timing.wall_s)

    def _fold(self, wall_s: float) -> None:
        totals = self.totals
        totals.wall_s += wall_s
        for span in self._spans:
            totals.calls[span.layer] += 1
            totals.self_s[span.layer] += span.self_s
            if not self._inside(span.parent, span.layer):
                totals.inclusive_s[span.layer] += span.duration
        self._spans.clear()

    def _inside(self, index: int | None, layer: str) -> bool:
        """Whether span ``index`` or one of its ancestors belongs to ``layer``."""
        while index is not None:
            span = self._spans[index]
            if span.layer == layer:
                return True
            index = span.parent
        return False

    def layer_metrics(self, n_ops: int) -> dict[str, float]:
        """``<layer>.calls`` and ``<layer>.self_s`` summed over every traced
        operation and divided by ``n_ops``, plus the share of traced wall
        time no layer accounts for."""
        totals = self.totals
        ops = max(n_ops, 1)
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = totals.calls.get(layer, 0) / ops
            out[f"{layer}.self_s"] = totals.self_s.get(layer, 0.0) / ops
        attributed = sum(totals.self_s.values())
        out["trace.unattributed_share"] = (
            1.0 - attributed / totals.wall_s if totals.wall_s > 0 else 0.0
        )
        return out

    def inclusive_s(self, layer: str, n_ops: int) -> float:
        """Outermost-span time of one layer, summed and divided by ``n_ops``."""
        return self.totals.inclusive_s.get(layer, 0.0) / max(n_ops, 1)
