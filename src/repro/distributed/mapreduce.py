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
* **Shared-memory task payloads.**  With ``use_shm`` (the default), task
  inputs for the process executor travel through
  :mod:`repro.distributed.shm`: large arrays are copied once into
  shared-memory segments and workers reattach them as read-only views,
  instead of pickling every partition's arrays through a pipe.
  ``map_arrays`` publishes each input array exactly once and workers
  slice their partitions out of the shared views.  Results still return
  by value.  All segments are unlinked when the job finishes, even when
  a worker raises.

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

from repro.distributed.shm import ArrayDescriptor, SharedArrayStore, attach_view, dumps_shared
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
        the driver's memory.
    shm_min_bytes:
        Arrays smaller than this are pickled by value even with ``use_shm``
        (descriptor overhead beats copying only past a threshold).
    obs:
        Telemetry handle; ``None`` resolves the process default.  A job on
        the inline path (serial executor, or a single partition) records
        one ``mapreduce.run`` span with ``load_s``/``map_s``/``reduce_s``
        attributes.  A pool job emits ``mapreduce.load``/``map``/``reduce``
        spans plus one ``mapreduce.task`` span per partition — thread tasks
        open real child spans inside a copied driver context, process tasks
        run a worker-side tracer whose finished subtree (and metric deltas)
        ship back with the result and graft under ``mapreduce.map``.  Jobs
        feed the ``mapreduce_*`` counters: jobs, pool spawns, shm
        publish/attach bytes.

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
        shm_min_bytes: int | None = None,
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
        self.shm_min_bytes = shm_min_bytes
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
        campaign/serve layers rely on this to keep single-item fan-outs
        serial.

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
        n_workers = min(self.max_workers, len(tasks))
        timed = obs.tracer.enabled
        if self.executor == "thread":
            jobs: list[Callable] = (
                [_ContextTask(t, obs, i) for i, t in enumerate(tasks)]
                if timed
                else list(tasks)
            )
            pool = self._pool(n_workers)
            return list(pool.map(lambda f: f(), jobs))
        jobs = self._traced_tasks(tasks) if timed else list(tasks)
        pool = self._pool(n_workers)
        store = SharedArrayStore() if self.use_shm else None
        try:
            if store is None:
                payloads = [pickle.dumps(t, protocol=pickle.HIGHEST_PROTOCOL) for t in jobs]
            else:
                kwargs = {} if self.shm_min_bytes is None else {"min_bytes": self.shm_min_bytes}
                payloads = [dumps_shared(t, store, **kwargs) for t in jobs]
                self._count_shm(store, len(jobs))
            futures = [pool.submit(_call_pickled, payload) for payload in payloads]
            results = [f.result() for f in futures]
            return self._merge_worker_results(results) if timed else results
        except BrokenProcessPool:
            # A worker died (OOM, signal): the pool is unusable.  Drop it so
            # the next job gets a fresh one, and let the caller see the error.
            self._shutdown()
            raise
        finally:
            # Segments outlive every worker attach (results are in, or the
            # exception already fired) — unlink them now, crash or not.
            if store is not None:
                store.close()

    def _count_shm(self, store: SharedArrayStore, n_attachers: int) -> None:
        """Account one job's shared-memory traffic: published once, attached
        (as views — no copies; the driver-side estimate assumes every task
        touches every segment) by each worker task."""
        published = store.nbytes
        if not published:
            return
        self.obs.counter("mapreduce_shm_published_bytes_total").inc(published)
        self.obs.counter("mapreduce_shm_attach_bytes_total").inc(
            published * n_attachers
        )

    def _inline(self, width: int) -> bool:
        """Whether a job of ``width`` partitions runs in the calling thread."""
        return self.executor == "serial" or width <= 1

    def _job(
        self, width: int, body: Callable[[Tracer | NullTracer], MapReduceResult]
    ) -> MapReduceResult:
        """Count one job and run ``body(phase_tracer)`` under its spans.

        A pool job hands ``body`` the real tracer, so each phase is a span
        and worker tasks graft under ``mapreduce.map``.  An inline job is
        one ``mapreduce.run`` span whose ``load_s``/``map_s``/``reduce_s``
        attributes hold the phase timings: the serve path runs a job on
        every cache miss, and one span costs less than four.
        """
        self._c_jobs.inc()
        if not self._inline(width):
            return body(self.obs.tracer)
        with self.obs.span(
            "mapreduce.run", n_partitions=width, executor=self.executor
        ) as span:
            result = body(_NO_PHASE_SPANS)
            span.set(
                load_s=result.load_seconds,
                map_s=result.map_seconds,
                reduce_s=result.reduce_seconds,
            )
        return result

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
        return self._job(
            width, lambda tracer: self._run(load, map_fn, reduce_fn, width, tracer)
        )

    def _run(
        self,
        load: Callable[[], Sequence[T]],
        map_fn: Callable[[Sequence[T]], R],
        reduce_fn: Callable[[list[R]], object],
        width: int,
        tracer: Tracer | NullTracer,
    ) -> MapReduceResult:
        with tracer.span("mapreduce.load"):
            start = time.perf_counter()
            items = list(load())
            load_s = time.perf_counter() - start

        parts = partition_indices(len(items), width)
        partitions = [[items[i] for i in part] for part in parts]

        if self.executor == "process":
            tasks = [_PartitionTask(map_fn, partition) for partition in partitions]
        else:
            tasks = [(lambda p=partition: map_fn(p)) for partition in partitions]
        with tracer.span("mapreduce.map", n_partitions=width, executor=self.executor):
            start = time.perf_counter()
            mapped = self._run_tasks(tasks)
            map_s = time.perf_counter() - start

        with tracer.span("mapreduce.reduce"):
            start = time.perf_counter()
            value = reduce_fn(list(mapped))
            reduce_s = time.perf_counter() - start

        return MapReduceResult(
            value=value,
            n_partitions=width,
            executor=self.executor,
            load_seconds=load_s,
            map_seconds=map_s,
            reduce_seconds=reduce_s,
        )

    def map_arrays(
        self,
        arrays: dict[str, np.ndarray],
        map_fn: Callable[[dict[str, np.ndarray]], R],
        reduce_fn: Callable[[list[R]], object],
        n_partitions: int | None = None,
    ) -> MapReduceResult:
        """Map-reduce over a struct-of-arrays input.

        The arrays (all the same length) are partitioned along axis 0; each
        partition is passed to ``map_fn`` as a dictionary of array slices.
        The serial and thread executors pass views of the caller's arrays.
        The process executor with ``use_shm`` publishes every array **once**
        into shared memory and ships workers ``(lo, hi)`` row ranges — each
        worker slices its partition out of the attached views, so the input
        crosses the process boundary zero times per partition.
        """
        lengths = {name: a.shape[0] for name, a in arrays.items()}
        if len(set(lengths.values())) > 1:
            raise ValueError(f"arrays must share their first dimension, got {lengths}")
        width = self.n_partitions if n_partitions is None else n_partitions
        return self._job(
            width,
            lambda tracer: self._map_arrays(arrays, map_fn, reduce_fn, width, tracer),
        )

    def _map_arrays(
        self,
        arrays: dict[str, np.ndarray],
        map_fn: Callable[[dict[str, np.ndarray]], R],
        reduce_fn: Callable[[list[R]], object],
        width: int,
        tracer: Tracer | NullTracer,
    ) -> MapReduceResult:
        n_items = next(iter(arrays.values())).shape[0] if arrays else 0
        start = time.perf_counter()
        parts = partition_indices(n_items, width)
        load_s = time.perf_counter() - start

        shared = (
            self.executor == "process"
            and self.use_shm
            and len(parts) > 1
            and arrays
            and any(np.asarray(a).nbytes for a in arrays.values())
        )
        if shared:
            with tracer.span(
                "mapreduce.map", n_partitions=width, executor=self.executor, shm=True
            ):
                start = time.perf_counter()
                mapped = self._map_arrays_shared(arrays, map_fn, parts)
                map_s = time.perf_counter() - start
        else:
            slices = []
            for part in parts:
                if part.size and np.all(np.diff(part) == 1):
                    sl = slice(int(part[0]), int(part[-1]) + 1)
                    slices.append({name: a[sl] for name, a in arrays.items()})
                else:
                    slices.append({name: a[part] for name, a in arrays.items()})
            if self.executor == "process":
                tasks = [_PartitionTask(map_fn, chunk) for chunk in slices]
            else:
                tasks = [(lambda c=chunk: map_fn(c)) for chunk in slices]
            with tracer.span(
                "mapreduce.map", n_partitions=width, executor=self.executor
            ):
                start = time.perf_counter()
                mapped = self._run_tasks(tasks)
                map_s = time.perf_counter() - start

        with tracer.span("mapreduce.reduce"):
            start = time.perf_counter()
            value = reduce_fn(list(mapped))
            reduce_s = time.perf_counter() - start

        return MapReduceResult(
            value=value,
            n_partitions=width,
            executor=self.executor,
            load_seconds=load_s,
            map_seconds=map_s,
            reduce_seconds=reduce_s,
        )

    def _map_arrays_shared(
        self,
        arrays: dict[str, np.ndarray],
        map_fn: Callable[[dict[str, np.ndarray]], R],
        parts: list[np.ndarray],
    ) -> list[R]:
        """Publish-once shared-memory path for :meth:`map_arrays`."""
        contiguous = {name: np.ascontiguousarray(a) for name, a in arrays.items()}
        timed = self.obs.tracer.enabled
        with SharedArrayStore() as store:
            descriptors = store.publish(contiguous)
            tasks: list[Callable] = []
            for part in parts:
                lo = int(part[0]) if part.size else 0
                hi = int(part[-1]) + 1 if part.size else 0
                tasks.append(_ShmSliceTask(map_fn, descriptors, lo, hi))
            if timed:
                tasks = list(self._traced_tasks(tasks))
            self._count_shm(store, len(tasks))
            pool = self._pool(min(self.max_workers, len(tasks)))
            try:
                futures = [
                    pool.submit(_call_pickled, pickle.dumps(t, protocol=pickle.HIGHEST_PROTOCOL))
                    for t in tasks
                ]
                results = [f.result() for f in futures]
                return self._merge_worker_results(results) if timed else results
            except BrokenProcessPool:
                self._shutdown()
                raise


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

    Needed by the process executor: lambdas cannot cross process boundaries.
    """

    def __init__(self, map_fn: Callable, partition) -> None:
        self.map_fn = map_fn
        self.partition = partition

    def __call__(self):
        return self.map_fn(self.partition)


class _ShmSliceTask:
    """Picklable task slicing one row range out of published shared arrays.

    Pickles as descriptors + two ints regardless of input size; the worker
    attaches the shared views and hands ``map_fn`` read-only slices of the
    exact rows the driver would have copied.
    """

    def __init__(
        self,
        map_fn: Callable,
        descriptors: dict[str, ArrayDescriptor],
        lo: int,
        hi: int,
    ) -> None:
        self.map_fn = map_fn
        self.descriptors = descriptors
        self.lo = lo
        self.hi = hi

    def __call__(self):
        chunk = {}
        for name, desc in self.descriptors.items():
            if desc.nbytes == 0:
                arr = np.empty(desc.shape, dtype=np.dtype(desc.dtype))
                arr.flags.writeable = False
                chunk[name] = arr[self.lo : self.hi]
            else:
                chunk[name] = attach_view(desc)[self.lo : self.hi]
        return self.map_fn(chunk)
