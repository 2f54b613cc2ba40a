"""The product catalog: sidecar-only indexing, queries, strict registration."""

import json

import numpy as np
import pytest

from repro.clock import VirtualClock
from repro.geodesy.grid import GridDefinition
from repro.l3.product import Level3Grid
from repro.l3.writer import Level3ProductError, write_level3
from repro.obs.core import Obs, set_default_obs
from repro.serve.catalog import CatalogEntry, ProductCatalog


def write_product(path, kind="granule", granule_ids=("g000",), fingerprint="fp0",
                  x_min=0.0, y_min=0.0, nx=20, ny=10, cell=100.0, seed=0,
                  format="npz"):
    rng = np.random.default_rng(seed)
    grid = GridDefinition(x_min_m=x_min, y_min_m=y_min, cell_size_m=cell, nx=nx, ny=ny)
    n_seg = rng.integers(0, 4, grid.shape).astype(np.int64)
    metadata = {"kind": kind, "fingerprint": fingerprint}
    if kind == "mosaic":
        metadata["granule_ids"] = list(granule_ids)
    else:
        metadata["granule_id"] = granule_ids[0]
    product = Level3Grid(
        grid=grid,
        variables={
            "n_segments": n_seg,
            "freeboard_mean": np.where(n_seg > 0, rng.normal(0.3, 0.1, grid.shape), np.nan),
        },
        metadata=metadata,
    )
    return write_level3(product, path, format=format)


class TestRegistration:
    def test_register_reads_sidecar_only(self, tmp_path):
        npz_path, json_path = write_product(tmp_path / "p0")
        npz_path.unlink()  # arrays gone: indexing must still work
        entry = ProductCatalog().register(json_path)
        assert entry.kind == "granule"
        assert entry.fingerprint == "fp0"
        assert entry.granule_ids == ("g000",)
        assert "freeboard_mean" in entry.variables
        assert entry.bbox == (0.0, 0.0, 2000.0, 1000.0)
        assert entry.shape == (10, 20)

    def test_register_accepts_base_or_either_sibling(self, tmp_path):
        write_product(tmp_path / "p0")
        catalog = ProductCatalog()
        for path in (tmp_path / "p0", tmp_path / "p0.json", tmp_path / "p0.npz"):
            assert catalog.register(path).key == "fp0"
        assert len(catalog) == 1  # same fingerprint: one entry

    def test_register_rejects_foreign_json(self, tmp_path):
        (tmp_path / "foreign.json").write_text(json.dumps({"hello": 1}))
        with pytest.raises(Level3ProductError, match="format"):
            ProductCatalog().register(tmp_path / "foreign.json")

    def test_register_rejects_malformed_grid(self, tmp_path):
        _, json_path = write_product(tmp_path / "p0")
        payload = json.loads(json_path.read_text())
        del payload["grid"]["cell_size_m"]
        json_path.write_text(json.dumps(payload))
        with pytest.raises(Level3ProductError, match="malformed"):
            ProductCatalog().register(json_path)

    def test_scan_collects_skipped_instead_of_raising(self, tmp_path):
        write_product(tmp_path / "good", fingerprint="fp-good")
        (tmp_path / "corrupt.json").write_text("{ not json")
        (tmp_path / "foreign.json").write_text(json.dumps({"format": "other/9"}))
        catalog = ProductCatalog()
        registered, skipped = catalog.scan(tmp_path)
        assert [entry.fingerprint for entry in registered] == ["fp-good"]
        assert sorted(path.name for path in skipped) == ["corrupt.json", "foreign.json"]
        assert len(catalog) == 1

    def test_scan_counts_and_logs_each_skip(self, tmp_path):
        write_product(tmp_path / "good", fingerprint="fp-good")
        (tmp_path / "corrupt.json").write_text("{ not json")
        obs = Obs(clock=VirtualClock())
        previous = set_default_obs(obs)
        try:
            ProductCatalog().scan(tmp_path)
        finally:
            set_default_obs(previous)
        assert obs.registry.total("catalog_skipped_total") == 1
        (record,) = obs.log.events("catalog.skipped")
        assert record.level == "warning"
        assert record.fields["path"] == str(tmp_path / "corrupt.json")
        assert record.fields["error"] == "Level3ProductError"

    def test_missing_fingerprint_keys_by_path(self, tmp_path):
        _, json_path = write_product(tmp_path / "p0", fingerprint="")
        entry = ProductCatalog().register(json_path)
        assert entry.key.startswith("path:")


class TestAppend:
    """append = register + npz validation, no directory re-scan (ingest path)."""

    def test_append_validates_and_indexes_one_product(self, tmp_path):
        _, json_path = write_product(tmp_path / "p0")
        write_product(tmp_path / "unrelated", fingerprint="fp9")
        catalog = ProductCatalog()
        entry = catalog.append(json_path)
        assert entry.key == "fp0"
        # Only the appended product is indexed -- no sibling was scanned.
        assert [e.key for e in catalog.entries] == ["fp0"]

    def test_append_rejects_missing_npz(self, tmp_path):
        npz_path, json_path = write_product(tmp_path / "p0")
        npz_path.unlink()
        with pytest.raises(Level3ProductError, match="missing array file"):
            ProductCatalog().append(json_path)

    def test_append_rejects_corrupt_npz(self, tmp_path):
        npz_path, json_path = write_product(tmp_path / "p0")
        npz_path.write_bytes(b"not a zip archive")
        with pytest.raises(Level3ProductError, match="unreadable"):
            ProductCatalog().append(json_path)

    def test_append_rejects_sidecar_declaring_absent_variables(self, tmp_path):
        npz_path, json_path = write_product(tmp_path / "p0")
        payload = json.loads(json_path.read_text())
        payload["variables"]["thickness_mean"] = dict(
            payload["variables"]["freeboard_mean"]
        )
        json_path.write_text(json.dumps(payload))
        with pytest.raises(Level3ProductError, match="thickness_mean"):
            ProductCatalog().append(json_path)

    def test_append_accepts_raw_product(self, tmp_path):
        _, json_path = write_product(tmp_path / "p0", format="raw")
        catalog = ProductCatalog()
        entry = catalog.append(json_path)
        assert entry.storage == "raw"
        assert entry.array_path == tmp_path / "p0.raw"

    def test_append_rejects_missing_raw_blob(self, tmp_path):
        _, json_path = write_product(tmp_path / "p0", format="raw")
        (tmp_path / "p0.raw").unlink()
        with pytest.raises(Level3ProductError, match="missing array file"):
            ProductCatalog().append(json_path)

    def test_append_rejects_truncated_raw_blob(self, tmp_path):
        _, json_path = write_product(tmp_path / "p0", format="raw")
        raw_path = tmp_path / "p0.raw"
        blob = raw_path.read_bytes()
        raw_path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(Level3ProductError, match="truncated"):
            ProductCatalog().append(json_path)

    def test_append_rejects_raw_storage_missing_a_variable(self, tmp_path):
        _, json_path = write_product(tmp_path / "p0", format="raw")
        payload = json.loads(json_path.read_text())
        del payload["storage"]["arrays"]["freeboard_mean"]
        json_path.write_text(json.dumps(payload))
        with pytest.raises(Level3ProductError, match="freeboard_mean"):
            ProductCatalog().append(json_path)

    def test_register_accepts_raw_sibling_path(self, tmp_path):
        write_product(tmp_path / "p0", format="raw")
        catalog = ProductCatalog()
        for path in (tmp_path / "p0", tmp_path / "p0.json", tmp_path / "p0.raw"):
            assert catalog.register(path).key == "fp0"
        assert len(catalog) == 1

    def test_sharded_append_routes_to_the_bbox_shard(self, tmp_path):
        from repro.serve.shard import ShardedCatalog, shard_index

        _, json_path = write_product(tmp_path / "p0")
        sharded = ShardedCatalog(n_shards=4)
        entry = sharded.append(json_path)
        assert sharded.shard_of(entry.key) == shard_index(entry.bbox, 4)

    def test_sharded_remove_deindexes(self, tmp_path):
        from repro.serve.shard import ShardedCatalog

        _, json_path = write_product(tmp_path / "p0")
        sharded = ShardedCatalog(n_shards=4)
        entry = sharded.append(json_path)
        removed = sharded.remove(entry.key)
        assert removed.key == entry.key
        assert len(sharded) == 0
        with pytest.raises(KeyError):
            sharded.shard_of(entry.key)


class TestQueries:
    @pytest.fixture()
    def catalog(self, tmp_path):
        write_product(tmp_path / "g000", granule_ids=("g000",), fingerprint="fp-a",
                      x_min=0.0, seed=1)
        write_product(tmp_path / "g001", granule_ids=("g001",), fingerprint="fp-b",
                      x_min=1500.0, seed=2)
        write_product(tmp_path / "mosaic", kind="mosaic",
                      granule_ids=("g000", "g001"), fingerprint="fp-m",
                      x_min=0.0, nx=35, seed=3)
        catalog = ProductCatalog()
        catalog.scan(tmp_path)
        return catalog

    def test_query_without_filters_returns_everything(self, catalog):
        assert len(catalog.query()) == 3

    def test_query_by_kind_and_granule(self, catalog):
        assert [e.fingerprint for e in catalog.query(kind="mosaic")] == ["fp-m"]
        covered = {e.fingerprint for e in catalog.query(granule_id="g001")}
        assert covered == {"fp-b", "fp-m"}

    def test_query_by_bbox_intersection(self, catalog):
        right = catalog.query(bbox=(2600.0, 0.0, 3000.0, 500.0))
        assert {e.fingerprint for e in right} == {"fp-b", "fp-m"}
        nowhere = catalog.query(bbox=(1e6, 1e6, 2e6, 2e6))
        assert nowhere == []

    def test_bbox_edge_touch_is_not_intersection(self, catalog):
        # g000 spans x in [0, 2000): a bbox starting exactly at 2000 misses it.
        touching = catalog.query(bbox=(2000.0, 0.0, 2100.0, 500.0))
        assert "fp-a" not in {e.fingerprint for e in touching}

    def test_query_by_variable(self, catalog):
        assert len(catalog.query(variable="freeboard_mean")) == 3
        assert catalog.query(variable="thickness_mean") == []

    def test_conjunctive_filters(self, catalog):
        out = catalog.query(
            bbox=(0.0, 0.0, 100.0, 100.0), variable="freeboard_mean", kind="granule"
        )
        assert [e.fingerprint for e in out] == ["fp-a"]

    def test_extent_is_union(self, catalog):
        assert catalog.extent() == (0.0, 0.0, 3500.0, 1000.0)

    def test_get_unknown_key(self, catalog):
        with pytest.raises(KeyError, match="no product"):
            catalog.get("nope")

    def test_empty_catalog_extent(self):
        with pytest.raises(ValueError, match="empty"):
            ProductCatalog().extent()

    def test_reregistration_replaces_indexes(self, tmp_path, catalog):
        # Re-register fp-a under a different kind: old index entries go away.
        write_product(tmp_path / "v2", kind="mosaic", granule_ids=("g000",),
                      fingerprint="fp-a", seed=9)
        catalog.register(tmp_path / "v2.json")
        assert len(catalog) == 3
        assert {e.fingerprint for e in catalog.query(kind="mosaic")} == {"fp-m", "fp-a"}


class TestEntryHelpers:
    def test_paths_and_intersects(self, tmp_path):
        write_product(tmp_path / "p0")
        entry = CatalogEntry.from_sidecar(tmp_path / "p0.json")
        assert entry.npz_path.name == "p0.npz"
        assert entry.json_path.name == "p0.json"
        assert entry.intersects((-100, -100, 50, 50))
        assert not entry.intersects((-100, -100, 0, 0))
