"""Stage declarations and the execution context handed to stage functions.

A :class:`Stage` is a pure function over artifacts plus the metadata the
engine needs: which artifacts it consumes and produces, which slice of the
:class:`~repro.workflow.experiment.ExperimentConfig` it reads (the basis of
its content fingerprint), and whether it is *pooled* across granules.

Stage functions have the uniform signature ``fn(ctx, **inputs) -> outputs``
where ``inputs``/``outputs`` are keyed by artifact name.  A pooled stage
receives each input as a list, one item per granule of a fleet in canonical
order (a list of one inside a single-granule run).  Per-beam stages
route their work through :meth:`StageContext.map_items`, which
chunks the items over the shared :class:`~repro.distributed.mapreduce.MapReduceEngine`
with the runner's pluggable serial/thread/process executor — results are
order-preserving and bit-for-bit independent of the executor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence, TypeVar

from repro.distributed.mapreduce import EXECUTORS, MapReduceEngine
from repro.pipeline.fingerprint import config_slice, stage_fingerprint

T = TypeVar("T")
R = TypeVar("R")


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
        outputs to disk.
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
        """Content fingerprint of executing this stage under ``config``.

        The active kernel backend is always part of the payload: the
        reference and vectorized backends agree only to ~1e-10, so a cache
        shared across ``REPRO_KERNEL_BACKEND`` values must never serve one
        backend's artifacts to the other.
        """
        context = {"kernel_backend": context_payload["kernel_backend"]}
        for path in self.context_paths:
            context[path] = context_payload[path]
        return stage_fingerprint(
            self.name,
            self.version,
            config_slice(config, self.config_paths),
            context,
            input_fingerprints,
        )


@dataclass
class StageContext:
    """Per-run state available to every stage function.

    Carries the experiment config, the granule identity (campaign runs), and
    the executor plumbing for fan-out stages.  Contexts are picklable so
    graphs can execute inside campaign worker processes.
    """

    config: Any
    granule_id: str = "granule"
    scenario: tuple[tuple[str, Any], ...] = ()
    executor: str = "serial"
    n_workers: int = 1

    def __post_init__(self) -> None:
        if self.executor not in EXECUTORS:
            raise ValueError(f"executor must be one of {EXECUTORS}, got {self.executor!r}")
        if self.n_workers <= 0:
            raise ValueError("n_workers must be positive")

    def payload(self) -> dict[str, Any]:
        """Fingerprint-relevant context attributes (see ``context_paths``).

        ``kernel_backend`` is included unconditionally — stage fingerprints
        must distinguish reference- from vectorized-backend outputs.
        """
        from repro import kernels

        return {
            "granule_id": self.granule_id,
            "scenario": list(self.scenario),
            "kernel_backend": kernels.get_backend(),
        }

    def _engine(self, n_items: int) -> MapReduceEngine:
        executor = self.executor if self.n_workers > 1 and n_items > 1 else "serial"
        n_partitions = max(min(self.n_workers, n_items), 1)
        return MapReduceEngine(
            n_partitions=n_partitions, executor=executor, max_workers=self.n_workers
        )

    def map_items(
        self, items: Mapping[str, T], fn: Callable[[str, T], R]
    ) -> dict[str, R]:
        """Apply ``fn(key, item)`` to every item, preserving mapping order.

        Items are chunked over the map-reduce engine with this context's
        executor; with the process executor ``fn`` must be picklable (a
        module-level function or a ``functools.partial`` of one).
        """
        pairs = list(items.items())
        if not pairs:
            return {}
        result = self._engine(len(pairs)).run(
            lambda: pairs, _ItemChunkTask(fn), _merge_pair_chunks
        )
        return dict(result.value)


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


class _ItemChunkTask:
    """Picklable map function: apply the item function to one chunk of pairs."""

    def __init__(self, fn: Callable[[str, Any], Any]) -> None:
        self.fn = fn

    def __call__(self, pairs: Sequence[tuple[str, Any]]) -> list[tuple[str, Any]]:
        return [(key, self.fn(key, item)) for key, item in pairs]


def _merge_pair_chunks(chunks: list[list[tuple[str, Any]]]) -> list[tuple[str, Any]]:
    return [pair for chunk in chunks for pair in chunk]
