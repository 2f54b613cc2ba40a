"""A miniature map-reduce engine (the PySpark replacement).

The paper parallelises two stages with PySpark: auto-labeling and freeboard
computation.  Both are embarrassingly data-parallel: partition the segment
arrays, apply a map function per partition, and reduce (concatenate /
aggregate) the partition outputs.  This engine reproduces that execution
model in-process:

* deterministic partitioning (:func:`partition_indices`) so results are
  independent of executor count,
* three executors: ``serial`` (reference), ``thread`` (shares memory — fine
  for NumPy-bound maps that release the GIL) and ``process``
  (``multiprocessing`` pool, requires picklable map functions),
* separate *load*, *map* and *reduce* wall times (``time.perf_counter``
  deltas, real whatever the telemetry clock), matching the columns of the
  paper's Tables II and V.

Two zero-copy properties of the process executor:

* **Persistent pools.**  The engine keeps one lazily created worker pool
  and reuses it across jobs — a campaign fleet or query batch no longer
  pays pool spawn per fan-out.  ``close()`` (or the context manager, or a
  GC finalizer) shuts it down; a closed engine transparently respawns on
  next use.
* **Shared-memory task payloads.**  With ``use_shm`` (the default), every
  process-executor task is pickled by
  :func:`~repro.distributed.shm.dumps_shared`: each array in it of at
  least :data:`~repro.distributed.shm.DEFAULT_MIN_SHARED_BYTES` — a
  ``map_arrays`` row slice, a ``run`` partition's items, an array the map
  function holds — is copied into its own shared-memory segment once per
  job, however many tasks hold it, and the worker reattaches it as a
  read-only view, instead of unpickling a private copy from the pipe.
  ``run`` and ``map_arrays`` submit the same task type through this one
  path.  Results still return by value.  All
  segments are unlinked when the job finishes, even when a worker raises.

Results from every executor are checked against the serial reference in the
test suite — parallel execution never changes the answer, only the time.
"""

from __future__ import annotations

import contextvars
import pickle
import threading
import time
import weakref
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar

import numpy as np

from repro.distributed.shm import SharedArrayStore, dumps_shared
from repro.obs.core import Obs, default_obs
from repro.obs.propagate import TracedTask, WorkerTelemetry, current_context, merge_worker_telemetry
from repro.obs.trace import NullTracer, Tracer

T = TypeVar("T")
R = TypeVar("R")

#: Executor kinds supported by the engine (shared with the campaign layer).
EXECUTORS = ("serial", "thread", "process")

#: The phase tracer of inline jobs, whose one ``mapreduce.run`` span carries
#: the phase timings as attributes instead of child spans.
_NO_PHASE_SPANS = NullTracer()


def partition_indices(n_items: int, n_partitions: int) -> list[np.ndarray]:
    """Split ``range(n_items)`` into ``n_partitions`` contiguous, balanced slices.

    Partition sizes differ by at most one; empty partitions are possible when
    ``n_partitions > n_items`` (they simply yield empty outputs).
    """
    if n_items < 0:
        raise ValueError("n_items must be non-negative")
    if n_partitions <= 0:
        raise ValueError("n_partitions must be positive")
    return [np.array(part, dtype=np.intp) for part in np.array_split(np.arange(n_items), n_partitions)]


def concat_partitions(parts: list[dict[str, np.ndarray]]) -> dict[str, np.ndarray]:
    """Reduce step of a struct-of-arrays job: each key's partitions concatenated in order."""
    keys = parts[0].keys() if parts else ()
    return {k: np.concatenate([p[k] for p in parts]) for k in keys}


@dataclass
class MapReduceResult:
    """Output of one map-reduce job."""

    value: object
    n_partitions: int
    executor: str
    load_seconds: float = 0.0
    map_seconds: float = 0.0
    reduce_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        return self.load_seconds + self.map_seconds + self.reduce_seconds


def _shutdown_pool(pool_box: list) -> None:
    """Finalizer target: shut down whatever pool the engine left behind."""
    while pool_box:
        pool = pool_box.pop()
        pool.shutdown(wait=True, cancel_futures=True)


class MapReduceEngine:
    """Run load → partition → map → reduce jobs with a pluggable executor.

    Parameters
    ----------
    n_partitions:
        Number of partitions the input is split into (the Spark analogue of
        ``executors * cores`` task slots).
    executor:
        ``"serial"``, ``"thread"`` or ``"process"``.
    max_workers:
        Worker count for the thread/process executors (defaults to
        ``n_partitions``).
    use_shm:
        Route process-executor task payloads through shared memory
        (:mod:`repro.distributed.shm`) instead of pickling array contents.
        Ignored by the serial and thread executors, which already share
        the driver's memory.  Arrays below
        :data:`~repro.distributed.shm.DEFAULT_MIN_SHARED_BYTES` are pickled
        by value either way.
    obs:
        Telemetry handle; ``None`` resolves the process default.  A job on
        the inline path (serial executor, or a single partition) records
        one ``mapreduce.run`` span with ``load_s``/``map_s``/``reduce_s``
        attributes.  A pool job emits ``mapreduce.load``/``map``/``reduce``
        spans plus one ``mapreduce.task`` span per partition — thread tasks
        open real child spans inside a copied driver context, process tasks
        run a worker-side tracer whose finished subtree (and metric deltas)
        ship back with the result and graft under ``mapreduce.map``.  Jobs
        feed the ``mapreduce_*`` counters: jobs, pool spawns and bytes
        published to shared memory.

    The engine keeps its worker pool alive between jobs; call :meth:`close`
    (or use the engine as a context manager) to release the workers.  A
    closed engine may be reused — the pool respawns on the next job.
    """

    def __init__(
        self,
        n_partitions: int = 4,
        executor: str = "serial",
        max_workers: int | None = None,
        use_shm: bool = True,
        obs: Obs | None = None,
    ) -> None:
        if n_partitions <= 0:
            raise ValueError("n_partitions must be positive")
        if executor not in EXECUTORS:
            raise ValueError(f"executor must be one of {EXECUTORS}, got {executor!r}")
        if max_workers is not None and max_workers <= 0:
            raise ValueError("max_workers must be positive")
        self.n_partitions = n_partitions
        self.executor = executor
        self.max_workers = max_workers if max_workers is not None else n_partitions
        self.use_shm = bool(use_shm)
        self.obs = obs if obs is not None else default_obs()
        self._c_jobs = self.obs.counter("mapreduce_jobs_total", executor=executor)
        self._pool_box: list[Executor] = []
        self._pool_workers = 0
        self._finalizer = weakref.finalize(self, _shutdown_pool, self._pool_box)

    # -- pool lifecycle --------------------------------------------------------

    def _pool(self, n_workers: int) -> Executor:
        """The persistent worker pool, (re)created lazily.

        A pool sized below the current job's worker demand is replaced —
        callers cap ``n_workers`` by task count, so demand only grows up to
        ``max_workers`` and the pool settles after the first full-width job.
        """
        if self._pool_box and self._pool_workers >= n_workers:
            return self._pool_box[0]
        self._shutdown()
        if self.executor == "thread":
            pool: Executor = ThreadPoolExecutor(max_workers=n_workers)
        else:
            pool = ProcessPoolExecutor(max_workers=n_workers)
        self._pool_box.append(pool)
        self._pool_workers = n_workers
        # Every creation counts: the first spawn, a widening respawn, and a
        # respawn after close()/BrokenProcessPool all show up in the series.
        self.obs.counter(
            "mapreduce_pool_spawns_total", executor=self.executor
        ).inc()
        return pool

    def _shutdown(self) -> None:
        while self._pool_box:
            pool = self._pool_box.pop()
            pool.shutdown(wait=True, cancel_futures=True)
        self._pool_workers = 0

    def close(self) -> None:
        """Shut down the worker pool (idempotent; engine reusable afterwards)."""
        self._shutdown()

    def __enter__(self) -> "MapReduceEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- execution -------------------------------------------------------------

    def _traced_tasks(self, tasks: list[Callable[[], R]]) -> list[TracedTask]:
        """Wrap tasks for the process pool with the driver's trace context."""
        context = current_context(self.obs.tracer)
        return [
            TracedTask(
                task,
                context=context,
                attributes={"index": index, "executor": self.executor},
            )
            for index, task in enumerate(tasks)
        ]

    def _merge_worker_results(
        self, results: list[tuple[R, WorkerTelemetry]]
    ) -> list[R]:
        """Unwrap ``(value, telemetry)`` pairs, grafting each worker's spans
        and metric deltas into the driver's tracer and registry."""
        out: list[R] = []
        for value, telemetry in results:
            merge_worker_telemetry(self.obs, telemetry)
            out.append(value)
        return out

    def _run_tasks(self, tasks: list[Callable[[], R]]) -> list[R]:
        """Run ready-made thunks on the configured executor.

        Single-task jobs run inline whatever the executor: spinning up (or
        even dispatching to) a pool for one task only adds latency, and the
        campaign layer relies on this to keep single-item fan-outs serial.

        Inline tasks open no spans of their own: the job's one
        ``mapreduce.run`` span covers them (:meth:`_job`), and any span a
        task opens nests under it.  Thread-pool tasks run inside a *copy*
        of the driver's context (:class:`_ContextTask`), so their spans are
        true children of the driver's open ``mapreduce.map`` span on the
        shared tracer.
        Process-pool tasks run under a worker-local tracer rooted at the
        shipped :class:`~repro.obs.propagate.TraceContext` and come back as
        ``(value, WorkerTelemetry)`` pairs the driver grafts into its own
        tree (real subtrees, not retroactive duration blobs).
        """
        obs = self.obs
        if self._inline(len(tasks)):
            return [task() for task in tasks]
        timed = obs.tracer.enabled
        if self.executor == "thread":
            jobs: list[Callable] = (
                [_ContextTask(t, obs, i) for i, t in enumerate(tasks)]
                if timed
                else list(tasks)
            )
            pool = self._pool(min(self.max_workers, len(jobs)))
            return list(pool.map(lambda f: f(), jobs))
        jobs = self._traced_tasks(tasks) if timed else list(tasks)
        # The store unlinks its segments when the block exits: every worker
        # attach is over by then (results are in, or the exception already
        # fired), crash or not.
        with SharedArrayStore() as store:
            if self.use_shm:
                payloads = [dumps_shared(t, store) for t in jobs]
                # Each array object is published once per job: a partition's
                # slices by its own task, an array the map function holds
                # by every task that shares it.
                if store.nbytes:
                    self.obs.counter("mapreduce_shm_published_bytes_total").inc(
                        store.nbytes
                    )
            else:
                payloads = [pickle.dumps(t, protocol=pickle.HIGHEST_PROTOCOL) for t in jobs]
            pool = self._pool(min(self.max_workers, len(payloads)))
            try:
                futures = [pool.submit(_call_pickled, p) for p in payloads]
                results = [f.result() for f in futures]
            except BrokenProcessPool:
                # A worker died (OOM, signal): the pool is unusable.  Drop it
                # so the next job gets a fresh one, and let the caller see it.
                self._shutdown()
                raise
        return self._merge_worker_results(results) if timed else results

    def _inline(self, width: int) -> bool:
        """Whether a job of ``width`` partitions runs in the calling thread."""
        return self.executor == "serial" or width <= 1

    def _job(
        self,
        width: int,
        partitions: Callable[[], list],
        map_fn: Callable,
        reduce_fn: Callable[[list], object],
    ) -> MapReduceResult:
        """Count one job and run its load → map → reduce phases.

        ``partitions()`` is the load phase: it returns the ``width``
        partitions that ``map_fn`` runs on, one task each.  A pool job opens
        one span per phase, and worker tasks graft under ``mapreduce.map``.
        An inline job is one ``mapreduce.run`` span whose
        ``load_s``/``map_s``/``reduce_s`` attributes hold the phase timings:
        serial fleets and single-item campaign fan-outs run every job
        inline, and one span costs less than four.
        """
        self._c_jobs.inc()
        if not self._inline(width):
            return self._phases(width, partitions, map_fn, reduce_fn, self.obs.tracer)
        with self.obs.span(
            "mapreduce.run", n_partitions=width, executor=self.executor
        ) as span:
            result = self._phases(width, partitions, map_fn, reduce_fn, _NO_PHASE_SPANS)
            span.set(
                load_s=result.load_seconds,
                map_s=result.map_seconds,
                reduce_s=result.reduce_seconds,
            )
        return result

    def _phases(
        self,
        width: int,
        partitions: Callable[[], list],
        map_fn: Callable,
        reduce_fn: Callable[[list], object],
        tracer: Tracer | NullTracer,
    ) -> MapReduceResult:
        with tracer.span("mapreduce.load"):
            start = time.perf_counter()
            tasks = [_PartitionTask(map_fn, partition) for partition in partitions()]
            load_s = time.perf_counter() - start

        with tracer.span("mapreduce.map", n_partitions=width, executor=self.executor):
            start = time.perf_counter()
            mapped = self._run_tasks(tasks)
            map_s = time.perf_counter() - start

        with tracer.span("mapreduce.reduce"):
            start = time.perf_counter()
            value = reduce_fn(mapped)
            reduce_s = time.perf_counter() - start

        return MapReduceResult(
            value=value,
            n_partitions=width,
            executor=self.executor,
            load_seconds=load_s,
            map_seconds=map_s,
            reduce_seconds=reduce_s,
        )

    def run(
        self,
        load: Callable[[], Sequence[T]],
        map_fn: Callable[[Sequence[T]], R],
        reduce_fn: Callable[[list[R]], object],
        n_partitions: int | None = None,
    ) -> MapReduceResult:
        """Execute one job: ``reduce_fn(map_fn(partition) for each partition)``.

        ``load`` produces the full input collection (e.g. reads granules from
        disk); it is timed as the *load* stage.  ``map_fn`` receives a list of
        items belonging to one partition; ``reduce_fn`` receives the list of
        per-partition map outputs in partition order.  ``n_partitions``
        overrides the engine default for this job only, so one persistent
        engine can serve fan-outs of different widths.
        """
        width = self.n_partitions if n_partitions is None else n_partitions

        def partitions() -> list[list[T]]:
            items = list(load())
            return [[items[i] for i in part] for part in partition_indices(len(items), width)]

        return self._job(width, partitions, map_fn, reduce_fn)

    def map_arrays(
        self,
        arrays: dict[str, np.ndarray],
        map_fn: Callable[[dict[str, np.ndarray]], R],
        reduce_fn: Callable[[list[R]], object],
        n_partitions: int | None = None,
    ) -> MapReduceResult:
        """Map-reduce over a struct-of-arrays input.

        The arrays (all the same length) are split along axis 0 into
        contiguous row slices; each partition is passed to ``map_fn`` as a
        dictionary of those slices.  The serial and thread executors pass
        views of the caller's arrays.  The process executor sends each
        partition as one task through the same path as :meth:`run`: with
        ``use_shm``, every slice (and every array ``map_fn`` holds) of at
        least :data:`~repro.distributed.shm.DEFAULT_MIN_SHARED_BYTES`
        arrives in the worker as a read-only shared-memory view, smaller
        ones as pickled copies.
        """
        lengths = {name: a.shape[0] for name, a in arrays.items()}
        if len(set(lengths.values())) > 1:
            raise ValueError(f"arrays must share their first dimension, got {lengths}")
        width = self.n_partitions if n_partitions is None else n_partitions

        def partitions() -> list[dict[str, np.ndarray]]:
            n_items = max(lengths.values(), default=0)
            bounds = np.cumsum([0] + [part.size for part in partition_indices(n_items, width)])
            return [
                {name: a[lo:hi] for name, a in arrays.items()}
                for lo, hi in zip(bounds[:-1], bounds[1:])
            ]

        return self._job(width, partitions, map_fn, reduce_fn)


def _call_pickled(payload: bytes):
    """Worker entry point: decode a pickled thunk and run it.

    Decoding in the worker (rather than letting the pool's own pickler do
    it) is what lets the driver pre-encode tasks with the shared-memory
    pickler — array leaves arrive as descriptors and materialise as
    read-only views here.
    """
    return pickle.loads(payload)()


class _ContextTask:
    """Thread-pool wrapper running a task inside the driver's trace context.

    Threads do not inherit ``contextvars``, so each task captures a *copy*
    of the driver's context at submission (while ``mapreduce.map`` is the
    current span) and runs inside it — its ``mapreduce.task`` span is a
    true child on the shared, thread-safe tracer, measured on the driver's
    clock.  One copy per task: a ``Context`` object cannot be entered
    concurrently.
    """

    def __init__(self, task: Callable, obs: Obs, index: int) -> None:
        self.task = task
        self.obs = obs
        self.index = index
        self._context = contextvars.copy_context()

    def __call__(self):
        return self._context.run(self._run)

    def _run(self):
        with self.obs.span(
            "mapreduce.task",
            index=self.index,
            executor="thread",
            worker=threading.current_thread().name,
        ):
            return self.task()


class _PartitionTask:
    """Picklable callable binding a map function to one partition.

    The one task type of every executor: lambdas cannot cross process
    boundaries, and one type keeps the three executors on one code path.
    """

    def __init__(self, map_fn: Callable, partition) -> None:
        self.map_fn = map_fn
        self.partition = partition

    def __call__(self):
        return self.map_fn(self.partition)
