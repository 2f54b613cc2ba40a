"""Stage declarations and the execution context handed to stage functions.

A :class:`Stage` is a pure function over artifacts plus the metadata the
engine needs: which artifacts it consumes and produces, which slice of the
:class:`~repro.workflow.experiment.ExperimentConfig` it reads (the basis of
its content fingerprint), and whether it is *pooled* across granules.

Stage functions have the uniform signature ``fn(ctx, **inputs) -> outputs``
where ``inputs``/``outputs`` are keyed by artifact name.  A pooled stage
receives each input as a list, one item per granule of a fleet in canonical
order (a list of one inside a single-granule run).  Per-beam stages loop
over their beams in the calling process: the paper parallelises the 2 m
segment jobs of Tables II and V (:mod:`repro.labeling.parallel`,
:mod:`repro.freeboard.parallel`) and the granules of a fleet
(:mod:`repro.campaign`), never the beams of one granule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping, TypeVar

from repro.pipeline.fingerprint import config_slice, stage_fingerprint

T = TypeVar("T")


@dataclass(frozen=True)
class Stage:
    """One registered step of the workflow graph.

    Parameters
    ----------
    name:
        Unique stage name (also the prefix of its stage-cache keys).
    fn:
        ``fn(ctx, **inputs) -> {output_name: value}``.  Must be picklable
        (module-level) so campaign workers can execute graphs.
    inputs / outputs:
        Artifact names consumed and produced, in declaration order.
    config_paths:
        Dotted config paths this stage reads; they form the stage's config
        slice and therefore its fingerprint.  Declaring too little breaks
        cache correctness, declaring too much only costs cache hits.
    context_paths:
        :class:`StageContext` attributes folded into the fingerprint
        (e.g. the metrics stage depends on the granule identity).
    pooled:
        The stage pools one input artifact from each of N granule
        subgraphs (the campaign's barriers: ``train``, ``mosaic_campaign``).
        Its function receives every input as a list in canonical granule
        order, and its fingerprint covers the list of the members'
        fingerprints.  A single-granule run passes lists of one.
    cacheable:
        Whether the stage's outputs go to the stage cache.  Pure-assembly
        stages that merely repackage upstream artifacts (``align``,
        ``curate``, ``training_set``) set this to ``False``: re-running them
        from cached inputs is cheaper than pickling their (duplicated)
        outputs to disk.  So does ``s2``: its image is the largest artifact
        of a granule and every stage that reads its pixels is cached, so it
        is rendered only when one of them misses.
    version:
        Bump to invalidate cached outputs after a code change to ``fn``.
    """

    name: str
    fn: Callable[..., Mapping[str, Any]]
    inputs: tuple[str, ...] = ()
    outputs: tuple[str, ...] = ()
    config_paths: tuple[str, ...] = ()
    context_paths: tuple[str, ...] = ()
    pooled: bool = False
    cacheable: bool = True
    version: str = "1"

    def single_granule(self, inputs: Mapping[str, T]) -> dict[str, T | list[T]]:
        """``inputs`` as a single-granule run passes them: lists of one if pooled."""
        return {name: [value] if self.pooled else value for name, value in inputs.items()}

    def fingerprint(
        self,
        config: Any,
        context_payload: Mapping[str, Any],
        input_fingerprints: Mapping[str, str | list[str]],
    ) -> str:
        """Content fingerprint of executing this stage under ``config``."""
        return stage_fingerprint(
            self.name,
            self.version,
            config_slice(config, self.config_paths),
            {path: context_payload[path] for path in self.context_paths},
            input_fingerprints,
        )


@dataclass
class StageContext:
    """Per-run state available to every stage function.

    Carries the experiment config and the granule identity (campaign runs).
    Contexts are picklable so graphs can execute inside campaign worker
    processes.
    """

    config: Any
    granule_id: str = "granule"
    scenario: tuple[tuple[str, Any], ...] = ()

    def payload(self) -> dict[str, Any]:
        """Fingerprint-relevant context attributes (see ``context_paths``)."""
        return {"granule_id": self.granule_id, "scenario": list(self.scenario)}


@dataclass
class StageExecution:
    """Bookkeeping of one stage execution inside a graph run."""

    stage: str
    fingerprint: str
    seconds: float
    cached: bool
    outputs: tuple[str, ...] = ()
    cacheable: bool = True

    @property
    def cache_key(self) -> str:
        return f"{self.stage}-{self.fingerprint}"
