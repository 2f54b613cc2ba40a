"""Graph execution: fingerprint, probe the stage cache, compute, repeat.

:class:`GraphRunner` materialises a set of target artifacts by walking the
required stages in topological order.  For every stage it derives the
content fingerprint (config slice + upstream fingerprints), probes the
stage cache, and only computes on a miss — so after a config change, the
first divergent stage and its downstream cone re-run while everything
upstream is a cache hit.  This is what makes partial recomputation (the
dominant cost of parameter sweeps) free.

:meth:`GraphRunner.fingerprints` derives the full artifact-fingerprint map
from a config *without executing anything*.  For a fleet of granules,
:meth:`GraphRunner.fleet_fingerprints` does the same for every granule in
one walk, fingerprinting the pooled stages once over the members'
fingerprints, and :meth:`GraphRunner.run_pooled` executes one pooled stage
through the same probe/compute/store path as :meth:`GraphRunner.run`.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.obs.core import Obs, default_obs
from repro.pipeline.artifact import Artifact
from repro.pipeline.cache import MISS, StageCache
from repro.pipeline.graph import StageGraph
from repro.pipeline.stage import Stage, StageContext, StageExecution


class GraphRunResult:
    """Artifacts and per-stage bookkeeping of one graph execution."""

    def __init__(
        self,
        artifacts: dict[str, Artifact],
        executions: list[StageExecution],
        cache_enabled: bool,
    ) -> None:
        self.artifacts = artifacts
        self.executions = executions
        self.cache_enabled = cache_enabled

    def value(self, name: str) -> Any:
        """The computed value of one artifact."""
        return self.artifacts[name].value

    def values(self, *names: str) -> tuple[Any, ...]:
        return tuple(self.artifacts[name].value for name in names)

    @property
    def fingerprints(self) -> dict[str, str]:
        return {name: artifact.fingerprint for name, artifact in self.artifacts.items()}

    @property
    def cache_hits(self) -> tuple[str, ...]:
        """Stage-cache keys served from disk this run (empty without a cache)."""
        return tuple(e.cache_key for e in self.executions if e.cached)

    @property
    def cache_misses(self) -> tuple[str, ...]:
        """Stage-cache keys computed (and stored) this run.

        Non-cacheable assembly stages execute every run by design, so they
        are not counted as misses.
        """
        if not self.cache_enabled:
            return ()
        return tuple(
            e.cache_key for e in self.executions if not e.cached and e.cacheable
        )

    @property
    def executed_stages(self) -> tuple[str, ...]:
        """Names of stages whose functions actually ran (cache misses)."""
        return tuple(e.stage for e in self.executions if not e.cached)

    def seconds(self, stage: str) -> float:
        for execution in self.executions:
            if execution.stage == stage:
                return execution.seconds
        raise KeyError(f"stage {stage!r} did not execute in this run")


class GraphRunner:
    """Execute a :class:`~repro.pipeline.graph.StageGraph` over one config.

    Parameters
    ----------
    graph:
        The stage graph (default: the Fig. 1 workflow graph).
    cache:
        Optional content-addressed stage cache shared across runs and
        configs; ``None`` disables stage-granular caching.
    obs:
        Telemetry handle; ``None`` resolves the process default.  Every
        executed stage emits a ``pipeline.stage`` span (fingerprint, cache
        outcome) and feeds the ``pipeline_stage_*`` counters.
    """

    def __init__(
        self,
        graph: StageGraph | None = None,
        cache: StageCache | None = None,
        obs: Obs | None = None,
    ) -> None:
        if graph is None:
            from repro.pipeline.stages import default_graph

            graph = default_graph()
        self.graph = graph
        self.cache = cache
        self.obs = obs if obs is not None else default_obs()

    # -- fingerprints without execution ---------------------------------------

    def fingerprints(
        self,
        config: Any,
        granule_id: str = "granule",
        scenario: tuple = (),
        precomputed: Mapping[str, str] | None = None,
    ) -> dict[str, str]:
        """Artifact name -> content fingerprint, derived purely from config.

        ``precomputed`` maps injected artifact names to their fingerprints
        (e.g. a pooled campaign classifier).  Stages whose inputs cannot all
        be fingerprinted are skipped, so the result may be partial.
        """
        context = StageContext(
            config=config, granule_id=granule_id, scenario=tuple(scenario)
        )
        payload = context.payload()
        fps: dict[str, str] = dict(precomputed or {})
        for stage in self.graph.topological_order():
            if all(name in fps for name in stage.inputs):
                fp = stage.fingerprint(
                    config,
                    payload,
                    stage.single_granule({name: fps[name] for name in stage.inputs}),
                )
                for output in stage.outputs:
                    fps.setdefault(output, fp)
        return fps

    def fleet_fingerprints(
        self, members: Sequence[Any], pooled_config: Any
    ) -> list[dict[str, str]]:
        """Artifact fingerprints of every granule of a fleet, in one walk.

        ``members`` are the fleet's granules in canonical order, each with
        ``config``, ``granule_id`` and ``scenario`` (e.g. a campaign
        ``GranuleSpec``).  Per-granule stages are fingerprinted per member;
        pooled stages (over the list of the members' input fingerprints) and
        stages fed only by pooled outputs are fingerprinted once, under
        ``pooled_config``.  Member ``i``'s map therefore equals
        ``fingerprints(members[i].config, ..., precomputed=<the pooled
        outputs' fingerprints>)``.
        """
        payloads = [
            StageContext(m.config, m.granule_id, tuple(m.scenario)).payload() for m in members
        ]
        pooled_payload = StageContext(pooled_config).payload()
        maps: list[dict[str, str]] = [{} for _ in members]
        shared: set[str] = set()
        for stage in self.graph.topological_order():
            if stage.pooled or (stage.inputs and shared.issuperset(stage.inputs)):
                inputs = {
                    name: [fps[name] for fps in maps] if stage.pooled else maps[0][name]
                    for name in stage.inputs
                }
                fp = stage.fingerprint(pooled_config, pooled_payload, inputs)
                for fps in maps:
                    fps.update(dict.fromkeys(stage.outputs, fp))
                shared.update(stage.outputs)
                continue
            for member, payload, fps in zip(members, payloads, maps):
                fp = stage.fingerprint(
                    member.config, payload, {name: fps[name] for name in stage.inputs}
                )
                fps.update(dict.fromkeys(stage.outputs, fp))
        return maps

    # -- execution -------------------------------------------------------------

    def run(
        self,
        config: Any,
        targets: Iterable[str] | None = None,
        precomputed: Mapping[str, Artifact] | None = None,
        granule_id: str = "granule",
        scenario: tuple = (),
    ) -> GraphRunResult:
        """Materialise ``targets`` (default: every declared artifact).

        ``precomputed`` artifacts are treated as graph sources: their
        producers never run, and their fingerprints seed the downstream
        fingerprint chain.

        Execution is demand-driven: fingerprints are derived for the whole
        required subgraph up front (a pure computation), then stages
        materialise lazily — a stage whose outputs are served by the cache
        never demands its inputs, so a warm run touches only the bundles of
        the targets themselves.  A corrupt cached bundle reads as a miss,
        at which point the stage's inputs are demanded and it recomputes.
        """
        context = StageContext(config=config, granule_id=granule_id, scenario=tuple(scenario))
        payload = context.payload()
        artifacts: dict[str, Artifact] = dict(precomputed or {})
        if targets is None:
            targets = tuple(self.graph.producer)
        plan = self.graph.required_stages(targets, artifacts)

        # Pure fingerprint pass over the plan: inputs of every planned stage
        # are either precomputed or produced by an earlier planned stage.
        artifact_fps = {name: artifact.fingerprint for name, artifact in artifacts.items()}
        stage_fps: dict[str, str] = {}
        for stage in plan:
            fp = stage.fingerprint(
                config,
                payload,
                stage.single_granule({name: artifact_fps[name] for name in stage.inputs}),
            )
            stage_fps[stage.name] = fp
            for name in stage.outputs:
                artifact_fps.setdefault(name, fp)

        executions: list[StageExecution] = []
        for name in targets:
            self._materialize(name, artifacts, executions, stage_fps, context)
        return GraphRunResult(artifacts, executions, self.cache is not None)

    def _materialize(
        self,
        name: str,
        artifacts: dict[str, Artifact],
        executions: list[StageExecution],
        stage_fps: Mapping[str, str],
        context: StageContext,
    ) -> None:
        """Produce artifact ``name`` into ``artifacts``, demanding inputs only on a miss.

        A method rather than a nested recursive closure: such a closure is a
        reference cycle that would keep every artifact of the run alive until
        the next garbage collection.
        """
        if name in artifacts:
            return
        stage = self.graph.producer[name]

        def inputs() -> dict[str, Any]:
            for input_name in stage.inputs:
                self._materialize(input_name, artifacts, executions, stage_fps, context)
            return stage.single_granule({n: artifacts[n].value for n in stage.inputs})

        outputs, record = self._execute(stage, stage_fps[stage.name], context, inputs)
        artifacts.update(outputs)
        executions.append(record)

    def run_pooled(
        self,
        stage_name: str,
        config: Any,
        member_fingerprints: Sequence[Mapping[str, str]],
        supplier: Callable[[], Sequence[Mapping[str, Any]]],
    ) -> GraphRunResult:
        """Execute one pooled stage over a fleet of granule subgraphs.

        ``member_fingerprints`` holds each member's artifact fingerprints
        (a :meth:`fleet_fingerprints` map, or a granule run's
        :attr:`GraphRunResult.fingerprints`) in canonical order; ``supplier``
        returns the members' artifact values in the same order and shape.
        The stage cache is probed first and ``supplier`` is called only on a
        miss, so a hit loads no member bundle.
        """
        stage = self.graph.stages[stage_name]
        if not stage.pooled:
            raise ValueError(f"stage {stage_name!r} is not a pooled stage")
        context = StageContext(config=config)
        fp = stage.fingerprint(
            config,
            context.payload(),
            {name: [fps[name] for fps in member_fingerprints] for name in stage.inputs},
        )

        def inputs() -> dict[str, Any]:
            members = supplier()
            return {name: [values[name] for values in members] for name in stage.inputs}

        artifacts, record = self._execute(stage, fp, context, inputs)
        return GraphRunResult(artifacts, [record], self.cache is not None)

    def _execute(
        self,
        stage: Stage,
        fp: str,
        context: StageContext,
        inputs: Callable[[], Mapping[str, Any]],
    ) -> tuple[dict[str, Artifact], StageExecution]:
        """Serve ``stage`` at ``fp`` from the cache, or compute and store it.

        ``inputs`` is called only on a miss (or a corrupt cached bundle).
        Emits the ``pipeline.stage`` span on a miss and feeds the
        ``pipeline_stage_*`` counters either way.  Returns the stage's output
        artifacts and its execution record.
        """
        outputs: Mapping[str, Any] | None = None
        cached = False
        seconds = 0.0
        if stage.cacheable and self.cache is not None:
            bundle = self.cache.load_stage(stage.name, fp)
            if bundle is not MISS:
                outputs = bundle["outputs"]
                seconds = bundle["seconds"]
                cached = True
        if outputs is None:
            values = inputs()
            with self.obs.span("pipeline.stage", stage=stage.name, fingerprint=fp, cached=False):
                start = time.perf_counter()
                outputs = stage.fn(context, **values)
                seconds = time.perf_counter() - start
            self._validate_outputs(stage.name, stage.outputs, outputs)
            if stage.cacheable and self.cache is not None:
                self.cache.store_stage(stage.name, fp, outputs, seconds)
        outcome = "hit" if cached else "miss"
        self.obs.counter("pipeline_stage_runs_total", stage=stage.name, cache=outcome).inc()
        if not cached:
            self.obs.histogram("pipeline_stage_seconds", stage=stage.name).observe(seconds)

        artifacts = {
            name: Artifact(
                name=name,
                value=outputs[name],
                fingerprint=fp,
                stage=stage.name,
                seconds=seconds,
                from_cache=cached,
            )
            for name in stage.outputs
        }
        record = StageExecution(
            stage=stage.name,
            fingerprint=fp,
            seconds=seconds,
            cached=cached,
            outputs=stage.outputs,
            cacheable=stage.cacheable,
        )
        return artifacts, record

    def _validate_outputs(
        self, stage_name: str, declared: tuple[str, ...], outputs: Mapping[str, Any]
    ) -> None:
        if set(outputs) != set(declared):
            raise ValueError(
                f"stage {stage_name!r} returned {sorted(outputs)}, "
                f"declared outputs are {sorted(declared)}"
            )
        for name, value in outputs.items():
            self.graph.artifacts[name].validate(value)
