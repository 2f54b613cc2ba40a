"""The stage graph: a validated DAG of stages over typed artifacts.

The graph owns the static structure — which stage produces which artifact,
which stages a set of target artifacts requires, what is downstream of a
given stage — while execution (fingerprints, caching, pooled barriers)
lives in :class:`repro.pipeline.runner.GraphRunner`.

Graphs are immutable; :meth:`StageGraph.replace` and :meth:`StageGraph.extend`
return new graphs, so a scenario can swap one stage (e.g. ablate drift
correction) without rebuilding the registry by hand.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.pipeline.artifact import ArtifactSpec
from repro.pipeline.stage import Stage


class StageGraph:
    """An ordered, validated collection of stages and artifact specs."""

    def __init__(self, stages: Sequence[Stage], artifacts: Sequence[ArtifactSpec]) -> None:
        self.artifacts: dict[str, ArtifactSpec] = {}
        for spec in artifacts:
            if spec.name in self.artifacts:
                raise ValueError(f"duplicate artifact spec {spec.name!r}")
            self.artifacts[spec.name] = spec

        self.stages: dict[str, Stage] = {}
        self.producer: dict[str, Stage] = {}
        for stage in stages:
            if stage.name in self.stages:
                raise ValueError(f"duplicate stage {stage.name!r}")
            self.stages[stage.name] = stage
            for output in stage.outputs:
                if output not in self.artifacts:
                    raise ValueError(
                        f"stage {stage.name!r} outputs undeclared artifact {output!r}"
                    )
                if output in self.producer:
                    raise ValueError(
                        f"artifact {output!r} produced by both "
                        f"{self.producer[output].name!r} and {stage.name!r}"
                    )
                self.producer[output] = stage
        for stage in stages:
            for name in stage.inputs:
                if name not in self.artifacts:
                    raise ValueError(
                        f"stage {stage.name!r} consumes undeclared artifact {name!r}"
                    )
                if name not in self.producer:
                    raise ValueError(
                        f"stage {stage.name!r} consumes artifact {name!r} "
                        "that no stage produces"
                    )
        self._order = self._topological_order()

    # -- structure -------------------------------------------------------------

    def _topological_order(self) -> list[Stage]:
        """Kahn's algorithm over stage dependencies; raises on cycles.

        Declaration order breaks ties so the schedule is deterministic.
        """
        deps = {
            stage.name: {self.producer[name].name for name in stage.inputs}
            for stage in self.stages.values()
        }
        order: list[Stage] = []
        remaining = dict(deps)
        while remaining:
            ready = [name for name, wanted in remaining.items() if not wanted]
            if not ready:
                cycle = ", ".join(sorted(remaining))
                raise ValueError(f"stage graph has a cycle among: {cycle}")
            for name in ready:  # declaration order is preserved by dict order
                order.append(self.stages[name])
                del remaining[name]
            for wanted in remaining.values():
                wanted.difference_update(ready)
        return order

    def topological_order(self) -> list[Stage]:
        return list(self._order)

    def required_stages(
        self, targets: Iterable[str], precomputed: Iterable[str] = ()
    ) -> list[Stage]:
        """Stages needed to materialise ``targets``, in topological order.

        Traversal stops at ``precomputed`` artifacts — they are treated as
        graph sources (injected values or upstream cache hits), so their
        producers and everything above them are excluded.
        """
        available = set(precomputed)
        needed: set[str] = set()
        pending = [name for name in targets if name not in available]
        while pending:
            name = pending.pop()
            if name not in self.artifacts:
                raise ValueError(f"unknown artifact {name!r}")
            producer = self.producer.get(name)
            if producer is None:
                raise ValueError(
                    f"artifact {name!r} has no producing stage and was not precomputed"
                )
            if producer.name in needed:
                continue
            needed.add(producer.name)
            pending.extend(
                inp for inp in producer.inputs if inp not in available
            )
        return [stage for stage in self._order if stage.name in needed]

    def downstream_stages(self, stage_name: str) -> list[str]:
        """Names of every stage that (transitively) consumes ``stage_name``'s outputs."""
        if stage_name not in self.stages:
            raise ValueError(f"unknown stage {stage_name!r}")
        consumers: dict[str, set[str]] = {name: set() for name in self.stages}
        for stage in self.stages.values():
            for inp in stage.inputs:
                consumers[self.producer[inp].name].add(stage.name)
        reached: set[str] = set()
        pending = [stage_name]
        while pending:
            for consumer in consumers[pending.pop()]:
                if consumer not in reached:
                    reached.add(consumer)
                    pending.append(consumer)
        return [stage.name for stage in self._order if stage.name in reached]

    # -- derivation ------------------------------------------------------------

    def replace(self, stage: Stage) -> "StageGraph":
        """New graph with the same-named stage swapped for ``stage``."""
        if stage.name not in self.stages:
            raise ValueError(f"no stage {stage.name!r} to replace")
        stages = [stage if s.name == stage.name else s for s in self._declared()]
        return StageGraph(stages, list(self.artifacts.values()))

    def extend(
        self, stages: Sequence[Stage], artifacts: Sequence[ArtifactSpec] = ()
    ) -> "StageGraph":
        """New graph with extra stages (and their artifact specs) appended."""
        return StageGraph(
            self._declared() + list(stages),
            list(self.artifacts.values()) + list(artifacts),
        )

    def _declared(self) -> list[Stage]:
        return list(self.stages.values())

    # -- introspection ---------------------------------------------------------

    def describe(self) -> list[Mapping[str, object]]:
        """One row per stage, in topological order (for docs and examples)."""
        return [
            {
                "stage": stage.name,
                "inputs": stage.inputs,
                "outputs": stage.outputs,
                "config": stage.config_paths,
                "pooled": stage.pooled,
            }
            for stage in self._order
        ]
