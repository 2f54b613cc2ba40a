"""Sharded catalogs: hash-partition products by footprint into N shards.

A :class:`ShardedCatalog` splits a product archive across ``n_shards``
sub-catalogs so each shard can run its own
:class:`~repro.serve.query.QueryEngine` with a private LRU tile cache —
shards share nothing, which is what lets the router fan requests across
them without coordination.

Shard assignment is :func:`shard_index`, a content hash of the product's
bounding box alone:

* **total** — every product maps to exactly one shard;
* **stable** — the assignment depends only on the bbox (and the shard
  count), never on registration order, filesystem paths, process hash
  randomization (``PYTHONHASHSEED``) or anything else environmental, so a
  rebuilt catalog puts every product back on the same shard and per-shard
  tile caches stay valid across restarts;
* **spatial** — products with the same footprint (a mosaic and its
  re-registration, or two campaign generations of one region) land on the
  same shard, so one shard's cache sees all traffic for that footprint.

Global resolution semantics are preserved: :meth:`ShardedCatalog.query`
answers from one index of every product in **global registration order**,
so :func:`repro.serve.query.select_entry` over a sharded catalog picks
exactly the product the unsharded engine would (the equivalence is
property-tested).
"""

from __future__ import annotations

import hashlib
import struct
from pathlib import Path
from typing import Iterator, Sequence

from repro.serve.catalog import BBox, CatalogEntry, ProductCatalog


def shard_index(bbox: Sequence[float], n_shards: int) -> int:
    """The shard owning a product with the given footprint.

    A blake2b hash of the IEEE-754 bytes of the bbox corners — exact, not
    rounded, so assignment is bit-stable across rebuilds and processes and
    independent of Python's per-process hash seed.
    """
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    payload = struct.pack("<4d", *(float(v) for v in bbox))
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    return int.from_bytes(digest, "big") % n_shards


class ShardedCatalog:
    """A product catalog hash-partitioned by bbox into N sub-catalogs.

    Mirrors the :class:`~repro.serve.catalog.ProductCatalog` registration
    API (``add`` / ``register`` / ``scan``) and its query semantics, with
    results in global registration order.  Re-registering an existing key
    keeps its original order, exactly like the unsharded catalog.
    """

    def __init__(self, n_shards: int, entries: Sequence[CatalogEntry] = ()) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        self.n_shards = n_shards
        self._shards = tuple(ProductCatalog() for _ in range(n_shards))
        self._assignment: dict[str, int] = {}
        #: Every entry, in global registration order: a query is one index
        #: lookup however many shards there are.
        self._all = ProductCatalog()
        for entry in entries:
            self.add(entry)

    @classmethod
    def from_catalog(cls, catalog: ProductCatalog, n_shards: int) -> "ShardedCatalog":
        """Partition an existing catalog (registration order preserved)."""
        return cls(n_shards, catalog.entries)

    # -- registration ------------------------------------------------------

    def add(self, entry: CatalogEntry) -> CatalogEntry:
        """Index one entry on its owning shard (same-key re-adds replace)."""
        shard = shard_index(entry.bbox, self.n_shards)
        previous = self._assignment.get(entry.key)
        if previous is not None and previous != shard:
            # Same fingerprint, different footprint: the sidecars disagree
            # about the product's identity — re-home rather than duplicate.
            self._shards[previous].remove(entry.key)
        self._shards[shard].add(entry)
        self._assignment[entry.key] = shard
        self._all.add(entry)
        return entry

    def register(self, path: str | Path) -> CatalogEntry:
        """Register one written product from its sidecar path (or base path)."""
        return self.add(CatalogEntry.from_sidecar(path))

    def append(self, path: str | Path) -> CatalogEntry:
        """Validate and index one product on its owning shard — no re-scan.

        Same validation contract as :meth:`ProductCatalog.append` (npz must
        exist and hold every declared variable); the entry then routes to
        its bbox-hashed shard like any :meth:`add`.
        """
        return self.add(ProductCatalog().append(path))

    def scan(self, directory: str | Path) -> tuple[list[CatalogEntry], list[Path]]:
        """Register every sidecar under a directory; collect bad files.

        Same contract as :meth:`ProductCatalog.scan`: invalid sidecars are
        returned as ``skipped``, not raised.
        """
        staging = ProductCatalog()
        registered, skipped = staging.scan(directory)
        for entry in registered:
            self.add(entry)
        return registered, skipped

    def remove(self, key: str) -> CatalogEntry:
        """De-index one entry from its owning shard (``KeyError`` when absent)."""
        shard = self.shard_of(key)
        entry = self._shards[shard].remove(key)
        del self._assignment[key]
        self._all.remove(key)
        return entry

    # -- lookup ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._assignment)

    def __iter__(self) -> Iterator[CatalogEntry]:
        return iter(self.entries)

    def __contains__(self, key: str) -> bool:
        return key in self._assignment

    @property
    def shards(self) -> tuple[ProductCatalog, ...]:
        return self._shards

    @property
    def entries(self) -> tuple[CatalogEntry, ...]:
        """Every entry, in global registration order."""
        return self._all.entries

    def shard_of(self, key: str) -> int:
        """The shard index owning a product key."""
        try:
            return self._assignment[key]
        except KeyError:
            raise KeyError(
                f"no product {key!r} in the sharded catalog ({len(self)} entries)"
            ) from None

    def get(self, key: str) -> CatalogEntry:
        return self._shards[self.shard_of(key)].get(key)

    def counts(self) -> tuple[int, ...]:
        """Products per shard (the balance of the hash partition)."""
        return tuple(len(shard) for shard in self._shards)

    def extent(self) -> BBox:
        """Union bbox of every registered product."""
        return self._all.extent()

    def query(
        self,
        bbox: Sequence[float] | None = None,
        variable: str | None = None,
        kind: str | None = None,
        granule_id: str | None = None,
        exclude_shards: frozenset[int] | set[int] = frozenset(),
    ) -> list[CatalogEntry]:
        """Products matching every filter, in **global** registration order.

        ``exclude_shards`` drops whole shards from the result — the router
        uses it to resolve around quarantined shards, so one degraded shard
        never takes down queries another shard can serve.
        """
        matched = self._all.query(
            bbox=bbox, variable=variable, kind=kind, granule_id=granule_id
        )
        if exclude_shards:
            matched = [e for e in matched if self._assignment[e.key] not in exclude_shards]
        return matched
