"""The product catalog: find written Level-3 products without opening them.

Every product written by :func:`repro.l3.write_level3` is a pair of files;
the JSON sidecar alone carries everything a serving layer needs to *find*
the product — grid extent and resolution, variable names, kind, granule ids,
content fingerprint.  :class:`ProductCatalog` scans directories of sidecars
into indexed :class:`CatalogEntry` records and answers region + variable
queries **without opening a single npz**: arrays are only decoded later, by
the query engine, and only for products a request actually resolves to.

Registration is strict: a sidecar that does not announce itself (missing or
unknown ``format`` tag, unparsable JSON) raises
:class:`~repro.l3.writer.Level3ProductError` instead of silently indexing
garbage; :meth:`ProductCatalog.scan` collects such files into
``skipped`` (and counts and logs each one) so one corrupt product cannot
hide a whole directory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, Mapping, Sequence

import numpy as np

from repro.l3.writer import (
    Level3ProductError,
    load_sidecar,
    parse_sidecar_description,
    parse_sidecar_storage,
)
from repro.obs.core import default_obs
from repro.serve.pyramid import is_pyramid_variable

#: Projected-metre bounding box: (x_min, y_min, x_max, y_max).
BBox = tuple[float, float, float, float]


def _bbox_intersects(a: BBox, b: BBox) -> bool:
    """Half-open bbox intersection (degenerate overlap on an edge is empty)."""
    return a[0] < b[2] and b[0] < a[2] and a[1] < b[3] and b[1] < a[3]


@dataclass(frozen=True)
class CatalogEntry:
    """One indexed product: identity, footprint and variables, no arrays."""

    base_path: str
    kind: str
    fingerprint: str
    granule_ids: tuple[str, ...]
    variables: tuple[str, ...]
    #: Subset of ``variables`` the query engine can serve as pyramid value
    #: layers (float dtypes; count layers are weights, not values).
    servable: tuple[str, ...]
    x_min_m: float
    y_min_m: float
    x_max_m: float
    y_max_m: float
    cell_size_m: float
    shape: tuple[int, int]
    #: Array-container layout, from the sidecar's ``storage`` section:
    #: ``"npz"`` (zip archive) or ``"raw"`` (flat memmap-able blob).
    storage: str = "npz"
    metadata: Mapping[str, Any] = field(default_factory=dict, hash=False, compare=False)

    @property
    def key(self) -> str:
        """Catalog key: the content fingerprint, or the path when unset."""
        return self.fingerprint or f"path:{self.base_path}"

    @property
    def bbox(self) -> BBox:
        return (self.x_min_m, self.y_min_m, self.x_max_m, self.y_max_m)

    @property
    def npz_path(self) -> Path:
        return Path(self.base_path + ".npz")

    @property
    def array_path(self) -> Path:
        """The product's array container, whatever its layout."""
        return Path(self.base_path + ("." + self.storage))

    @property
    def json_path(self) -> Path:
        return Path(self.base_path + ".json")

    def intersects(self, bbox: Sequence[float]) -> bool:
        return _bbox_intersects(self.bbox, tuple(float(v) for v in bbox))

    @classmethod
    def from_sidecar(cls, path: str | Path) -> "CatalogEntry":
        """Index one product from its JSON sidecar (the npz stays closed)."""
        payload = load_sidecar(path)
        base = Path(path)
        if base.suffix in (".npz", ".json", ".raw"):
            base = base.with_suffix("")
        grid, declared = parse_sidecar_description(payload, f"{base}.json")
        storage = parse_sidecar_storage(payload, f"{base}.json")
        variables = tuple(sorted(declared))
        servable = tuple(
            sorted(
                name
                for name, spec in declared.items()
                if is_pyramid_variable(name, spec.get("dtype", ""))
            )
        )
        metadata = payload.get("metadata", {})
        if not isinstance(metadata, Mapping):
            metadata = {}
        kind = str(metadata.get("kind", "granule"))
        if "granule_ids" in metadata:
            granule_ids = tuple(str(g) for g in metadata["granule_ids"])
        elif "granule_id" in metadata:
            granule_ids = (str(metadata["granule_id"]),)
        else:
            granule_ids = ()
        return cls(
            base_path=str(base),
            kind=kind,
            fingerprint=str(metadata.get("fingerprint", "")),
            granule_ids=granule_ids,
            variables=variables,
            servable=servable,
            x_min_m=grid.x_min_m,
            y_min_m=grid.y_min_m,
            x_max_m=grid.x_max_m,
            y_max_m=grid.y_max_m,
            cell_size_m=grid.cell_size_m,
            shape=grid.shape,
            storage="raw" if storage is not None else "npz",
            metadata=dict(metadata),
        )


class ProductCatalog:
    """Registered products, indexed by variable / kind / granule / bbox.

    Entries are keyed by content fingerprint (two registrations of the same
    fingerprint keep the latest path — the products are interchangeable by
    the writer's contract), preserved in registration order for
    deterministic query results.
    """

    def __init__(self, entries: Sequence[CatalogEntry] = ()) -> None:
        self._entries: dict[str, CatalogEntry] = {}
        self._by_variable: dict[str, set[str]] = {}
        self._by_kind: dict[str, set[str]] = {}
        self._by_granule: dict[str, set[str]] = {}
        for entry in entries:
            self.add(entry)

    # -- registration ------------------------------------------------------

    def add(self, entry: CatalogEntry) -> CatalogEntry:
        """Index one entry (replacing any previous entry with the same key)."""
        if entry.key in self._entries:
            self._discard_from_indexes(self._entries[entry.key])
        self._entries[entry.key] = entry
        for variable in entry.variables:
            self._by_variable.setdefault(variable, set()).add(entry.key)
        self._by_kind.setdefault(entry.kind, set()).add(entry.key)
        for granule_id in entry.granule_ids:
            self._by_granule.setdefault(granule_id, set()).add(entry.key)
        return entry

    def register(self, path: str | Path) -> CatalogEntry:
        """Register one written product from its sidecar path (or base path)."""
        return self.add(CatalogEntry.from_sidecar(path))

    def append(self, path: str | Path) -> CatalogEntry:
        """Validate and index one newly written product — no directory re-scan.

        Unlike :meth:`register` (which trusts the sidecar), ``append`` also
        verifies the array half: the container must exist, and either its
        zip directory must list every declared variable (npz — arrays stay
        compressed, this reads the archive index only) or the blob must be
        at least as large as the sidecar's offsets require and the storage
        section must cover every declared variable (raw — nothing is
        mapped).  O(1) in catalog size, which is what lets the live-ingest
        tier publish a refreshed product per granule without re-scanning
        the whole directory.  Raises
        :class:`~repro.l3.writer.Level3ProductError` on any mismatch.
        """
        entry = CatalogEntry.from_sidecar(path)
        container = entry.array_path
        if not container.is_file():
            raise Level3ProductError(
                f"cannot append {entry.base_path!r}: missing array file {container}"
            )
        if entry.storage == "raw":
            storage = parse_sidecar_storage(
                load_sidecar(entry.json_path), entry.json_path
            )
            arrays = storage["arrays"] if storage is not None else {}
            present = set(arrays)
            needed = max(
                (spec["offset"] + spec["nbytes"] for spec in arrays.values()),
                default=0,
            )
            size = container.stat().st_size
            if size < needed:
                raise Level3ProductError(
                    f"cannot append {entry.base_path!r}: raw blob {container.name} "
                    f"is truncated ({size} bytes, sidecar declares {needed})"
                )
        else:
            try:
                with np.load(container) as payload:
                    present = set(payload.files)
            except (OSError, ValueError) as exc:
                raise Level3ProductError(
                    f"cannot append {entry.base_path!r}: unreadable array file "
                    f"{container}: {exc}"
                ) from exc
        missing = sorted(set(entry.variables) - present)
        if missing:
            raise Level3ProductError(
                f"cannot append {entry.base_path!r}: sidecar declares variables "
                f"absent from {container.name}: {missing}"
            )
        return self.add(entry)

    def scan(self, directory: str | Path) -> tuple[list[CatalogEntry], list[Path]]:
        """Register every ``*.json`` sidecar under a directory (recursively).

        Returns ``(registered, skipped)``: files that are not valid Level-3
        sidecars are skipped (collected, not raised) so one foreign or
        corrupt JSON cannot take the whole catalog down.  Each skip counts
        ``catalog_skipped_total`` and logs a ``catalog.skipped`` warning
        (path, exception type) on the process-default ``Obs``.
        """
        registered: list[CatalogEntry] = []
        skipped: list[Path] = []
        for sidecar in sorted(Path(directory).rglob("*.json")):
            try:
                registered.append(self.register(sidecar))
            except (Level3ProductError, FileNotFoundError) as exc:
                skipped.append(sidecar)
                obs = default_obs()
                obs.counter("catalog_skipped_total").inc()
                obs.log.warning("catalog.skipped", path=str(sidecar), error=type(exc).__name__)
        return registered, skipped

    def remove(self, key: str) -> CatalogEntry:
        """De-index one entry by key (``KeyError`` when absent)."""
        try:
            entry = self._entries.pop(key)
        except KeyError:
            raise KeyError(
                f"no product {key!r} in the catalog ({len(self)} entries)"
            ) from None
        self._discard_from_indexes(entry)
        return entry

    def _discard_from_indexes(self, entry: CatalogEntry) -> None:
        for variable in entry.variables:
            self._by_variable.get(variable, set()).discard(entry.key)
        self._by_kind.get(entry.kind, set()).discard(entry.key)
        for granule_id in entry.granule_ids:
            self._by_granule.get(granule_id, set()).discard(entry.key)

    # -- lookup ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[CatalogEntry]:
        return iter(self._entries.values())

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    @property
    def entries(self) -> tuple[CatalogEntry, ...]:
        return tuple(self._entries.values())

    def get(self, key: str) -> CatalogEntry:
        try:
            return self._entries[key]
        except KeyError:
            raise KeyError(
                f"no product {key!r} in the catalog ({len(self)} entries)"
            ) from None

    def extent(self) -> BBox:
        """Union bbox of every registered product."""
        if not self._entries:
            raise ValueError("the catalog is empty: register products first")
        entries = list(self._entries.values())
        return (
            min(e.x_min_m for e in entries),
            min(e.y_min_m for e in entries),
            max(e.x_max_m for e in entries),
            max(e.y_max_m for e in entries),
        )

    def query(
        self,
        bbox: Sequence[float] | None = None,
        variable: str | None = None,
        kind: str | None = None,
        granule_id: str | None = None,
    ) -> list[CatalogEntry]:
        """Products matching every given filter, in registration order.

        All filters are optional and conjunctive; ``bbox`` keeps products
        whose footprint intersects the query box.  Answered entirely from
        the sidecar-derived index — no product file is opened.
        """
        keys: set[str] | None = None
        for index, wanted in (
            (self._by_variable, variable),
            (self._by_kind, kind),
            (self._by_granule, granule_id),
        ):
            if wanted is None:
                continue
            matched = index.get(wanted, set())
            keys = set(matched) if keys is None else keys & matched
        results = [
            entry
            for key, entry in self._entries.items()
            if keys is None or key in keys
        ]
        if bbox is not None:
            box = tuple(float(v) for v in bbox)
            results = [entry for entry in results if entry.intersects(box)]
        return results
