"""Unit tests for the on-disk artifact store under the stage cache."""

import numpy as np
import pytest

from repro.pipeline.cache import MISS, ArtifactStore


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path, "abc123")


class TestArtifactStore:
    def test_roundtrip(self, store):
        value = {"x": np.arange(5), "name": "g000"}
        store.store("scene-g000", value)
        loaded = store.load("scene-g000")
        assert loaded["name"] == "g000"
        np.testing.assert_array_equal(loaded["x"], np.arange(5))

    def test_miss_returns_default(self, store):
        assert store.load("nothing") is None
        assert store.load("nothing", default=42) == 42
        assert not store.has("nothing")

    def test_corrupt_entry_is_a_miss(self, store):
        store.store("bad", [1, 2, 3])
        store.path("bad").write_bytes(b"not a pickle")
        assert store.load("bad", default="miss") == "miss"

    def test_namespace_isolation(self, tmp_path):
        a = ArtifactStore(tmp_path, "aaaa")
        b = ArtifactStore(tmp_path, "bbbb")
        a.store("k", 1)
        assert b.load("k") is None
        assert a.load("k") == 1

    def test_keys_sorted_and_no_temp_leftovers(self, store):
        store.store("b", 2)
        store.store("a", 1)
        assert store.keys() == ["a", "b"]
        leftovers = [p for p in store.dir.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []

    def test_clear(self, store):
        store.store("a", 1)
        store.store("b", 2)
        assert store.clear() == 2
        assert store.keys() == []
        assert store.load("a") is None

    def test_invalid_keys_rejected(self, store):
        for key in ("", "a/b", ".hidden"):
            with pytest.raises(ValueError, match="invalid cache key"):
                store.path(key)

    def test_empty_namespace_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="namespace"):
            ArtifactStore(tmp_path, "")

    def test_overwrite_replaces_value(self, store):
        store.store("k", "old")
        store.store("k", "new")
        assert store.load("k") == "new"


class TestMissSentinel:
    """Regression: a legitimately cached ``None`` must not read as a miss."""

    def test_cached_none_is_a_hit_with_sentinel(self, store):
        assert store.load("absent", MISS) is MISS
        store.store("absent", None)
        assert store.load("absent", MISS) is None
