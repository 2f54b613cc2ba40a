"""Shared-memory array transport for the process executor.

The process executor used to pay a full pickle of every partition's
photon/segment arrays per task: the driver serialises the arrays into a
pipe, the worker deserialises a private copy.  This module replaces that
payload with POSIX shared memory (``multiprocessing.shared_memory``):

* :class:`SharedArrayStore` (driver side) copies each array **once** into
  its own named shared-memory segment and hands out
  :class:`ArrayDescriptor` records — ``(segment, dtype, shape)``, a few
  dozen bytes each;
* :func:`attach_view` (worker side) reattaches a descriptor as a
  **read-only** NumPy view onto the same physical pages — no copy, no
  deserialisation, amortised over a small per-process attachment cache;
* :func:`dumps_shared` pickles an arbitrary task payload while routing
  every large ``np.ndarray`` it contains through the store, so nested
  dataclasses (curated granules, classifiers, the row slices of a
  ``map_arrays`` partition) get the zero-copy path without the engine
  knowing their shape.  It is the process executor's one task encoder.

Lifetime contract: the driver owns every segment it creates.  The store
unlinks all of them on :meth:`~SharedArrayStore.close` (idempotent, also
a context manager) and a ``weakref.finalize`` backstop unlinks on garbage
collection — so no ``/dev/shm`` segment outlives the job even when a
worker crashes mid-task.  Workers never unlink: they attach with
resource-tracker registration suppressed, because a tracked attachment
would double-unlink segments the driver already owns.
"""

from __future__ import annotations

import io
import pickle
import uuid
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Any

import numpy as np

__all__ = [
    "ArrayDescriptor",
    "SHM_PREFIX",
    "SharedArrayStore",
    "attach_view",
    "dumps_shared",
]

#: Name prefix of every segment this module creates — the leak tests (and a
#: worried operator) can enumerate ``/dev/shm/repro_shm_*``.
SHM_PREFIX = "repro_shm_"

#: Arrays below this size are pickled by value: a descriptor round trip plus
#: a segment per tiny array costs more than copying the bytes.
DEFAULT_MIN_SHARED_BYTES = 1 << 16

#: Worker-side attachment cache capacity, in segments.  Small on purpose: an
#: attachment pins the segment's pages mapped in the worker, and fan-out jobs
#: reuse at most a handful of segments at a time.
_ATTACH_CAPACITY = 8


@dataclass(frozen=True)
class ArrayDescriptor:
    """A picklable address of the one array held by a shared-memory segment."""

    segment: str
    dtype: str
    shape: tuple[int, ...]

    @property
    def nbytes(self) -> int:
        return int(np.prod(self.shape, dtype=np.int64)) * np.dtype(self.dtype).itemsize


def _shareable(array: np.ndarray) -> bool:
    """Only plain fixed-size numeric/flexible dtypes cross the segment."""
    return (
        type(array) is np.ndarray
        and array.dtype.names is None
        and not array.dtype.hasobject
        and array.nbytes > 0
    )


def _release_segments(segments: list[shared_memory.SharedMemory]) -> None:
    """Close + unlink every owned segment (idempotent, crash-safe backstop)."""
    while segments:
        segment = segments.pop()
        try:
            segment.close()
        except BufferError:  # a live driver-side view; unlink still works
            pass
        try:
            segment.unlink()
        except FileNotFoundError:
            pass


class SharedArrayStore:
    """Driver-side owner of shared-memory segments for one fan-out job.

    Use as a context manager around the job: put while submitting,
    and the segments are guaranteed unlinked when the block exits — even
    when a worker raised and the exception is propagating.  ``close`` is
    idempotent; a forgotten store is cleaned up by its finalizer.
    """

    def __init__(self) -> None:
        self._segments: list[shared_memory.SharedMemory] = []
        self._finalizer = weakref.finalize(self, _release_segments, self._segments)

    # -- publishing --------------------------------------------------------

    def _allocate(self, nbytes: int) -> shared_memory.SharedMemory:
        name = f"{SHM_PREFIX}{uuid.uuid4().hex}"
        segment = shared_memory.SharedMemory(name=name, create=True, size=nbytes)
        self._segments.append(segment)
        return segment

    def put(self, array: np.ndarray) -> ArrayDescriptor:
        """Copy one array into its own segment; return its descriptor."""
        arr = np.ascontiguousarray(array)
        if not _shareable(np.asarray(arr)):
            raise ValueError(
                "only non-empty plain numeric arrays can be shared; got "
                f"dtype={arr.dtype!r} nbytes={arr.nbytes}"
            )
        segment = self._allocate(arr.nbytes)
        np.ndarray(arr.shape, dtype=arr.dtype, buffer=segment.buf)[...] = arr
        return ArrayDescriptor(segment=segment.name, dtype=arr.dtype.str, shape=arr.shape)

    # -- lifetime ----------------------------------------------------------

    @property
    def segment_names(self) -> tuple[str, ...]:
        return tuple(segment.name for segment in self._segments)

    @property
    def nbytes(self) -> int:
        """Total bytes held across this store's live segments."""
        return sum(segment.size for segment in self._segments)

    def close(self) -> None:
        """Unlink every segment (idempotent; also runs via the finalizer)."""
        self._finalizer()  # weakref.finalize is call-once: close + detach

    def __enter__(self) -> "SharedArrayStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Worker side: reattach descriptors as views
# ---------------------------------------------------------------------------

#: Per-process attachment cache: segment name -> (open SharedMemory, weakrefs
#: of the views handed out on it).  Bounded LRU, but an entry is only evicted
#: once every view on it is dead: closing a mapping under a live view does
#: *not* reliably raise (NumPy releases the memoryview's buffer export after
#: capturing the pointer), it silently dangles — and the next mmap can reuse
#: the address, corrupting reads.  Liveness is the only safe eviction signal;
#: slices and derived views keep their base chain (and hence the weakref
#: target) alive, so "all weakrefs dead" implies no live reader.
_ATTACHED: "OrderedDict[str, tuple[shared_memory.SharedMemory, list[weakref.ref]]]" = OrderedDict()


def _open_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach without registering with the resource tracker.

    The driver owns (and deterministically unlinks) every segment; a tracked
    worker-side attachment would let the resource tracker unlink it a second
    time at worker exit and log spurious leak warnings.  Python 3.13 grew
    ``track=False`` for exactly this; earlier versions need the unregister
    workaround.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python <= 3.12: no track parameter
        # Suppress registration instead of unregistering afterwards: under
        # fork the workers share the driver's tracker process, and a
        # register/unregister pair from a worker would strip the *driver's*
        # registration from the tracker's set, breaking its own unlink.
        from multiprocessing import resource_tracker

        original = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


def _attach_segment(name: str) -> tuple[shared_memory.SharedMemory, list]:
    entry = _ATTACHED.get(name)
    if entry is not None:
        _ATTACHED.move_to_end(name)
        return entry
    if len(_ATTACHED) >= _ATTACH_CAPACITY:
        # Evict LRU-first, but only entries none of whose views survive.
        for old_name in list(_ATTACHED):
            old_segment, refs = _ATTACHED[old_name]
            if any(ref() is not None for ref in refs):
                continue
            del _ATTACHED[old_name]
            try:
                old_segment.close()
            except BufferError:
                pass
            if len(_ATTACHED) < _ATTACH_CAPACITY:
                break
    entry = (_open_untracked(name), [])
    _ATTACHED[name] = entry
    return entry


def attach_view(descriptor: ArrayDescriptor) -> np.ndarray:
    """Reattach one descriptor as a read-only NumPy view (zero-copy).

    The view aliases the driver's pages: mutating it would corrupt every
    other worker's input, so it comes back non-writable — map functions
    needing scratch space copy explicitly, which is the honest cost.
    """
    segment, refs = _attach_segment(descriptor.segment)
    view = np.ndarray(
        tuple(descriptor.shape),
        dtype=np.dtype(descriptor.dtype),
        buffer=segment.buf,
    )
    view.flags.writeable = False
    refs[:] = [ref for ref in refs if ref() is not None]
    refs.append(weakref.ref(view))
    return view


# ---------------------------------------------------------------------------
# Transparent payload rewriting
# ---------------------------------------------------------------------------


class _SharedArrayPickler(pickle.Pickler):
    """A pickler that reroutes large plain ndarrays through shared memory.

    ``reducer_override`` is consulted for every non-atomic object in the
    graph, so arrays nested arbitrarily deep (inside dataclasses, dicts,
    tuples) are intercepted without the caller declaring them.  Each is
    copied once into ``store`` and pickled as ``attach_view(descriptor)``;
    everything else pickles normally.
    """

    def __init__(self, file: io.BytesIO, store: SharedArrayStore, min_bytes: int) -> None:
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self._store = store
        self._min_bytes = min_bytes

    def reducer_override(self, obj: Any):
        if (
            isinstance(obj, np.ndarray)
            and _shareable(obj)
            and obj.nbytes >= self._min_bytes
        ):
            return (attach_view, (self._store.put(obj),))
        return NotImplemented


def dumps_shared(
    obj: Any,
    store: SharedArrayStore,
    min_bytes: int = DEFAULT_MIN_SHARED_BYTES,
) -> bytes:
    """Pickle ``obj`` with its large arrays published into ``store``.

    The returned bytes are loadable with plain ``pickle.loads`` in any
    process that can open the store's segments — loading materialises the
    published arrays as read-only shared views via :func:`attach_view`.
    """
    buffer = io.BytesIO()
    _SharedArrayPickler(buffer, store, max(int(min_bytes), 1)).dump(obj)
    return buffer.getvalue()
