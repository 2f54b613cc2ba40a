"""Unit tests for the on-disk artifact store under the stage cache."""

import pickle

import numpy as np
import pytest

from repro.clock import VirtualClock
from repro.obs.core import Obs
from repro.pipeline import ArtifactSpec, Stage, StageGraph
from repro.pipeline.cache import MISS, ArtifactStore, StageCache
from repro.pipeline.runner import GraphRunner


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


class TestCorruptEntries:
    """Fault injection: a corrupt entry is a miss, and never a silent one."""

    def test_corrupt_entry_is_moved_aside_counted_and_logged(self, tmp_path):
        obs = Obs(clock=VirtualClock())
        store = ArtifactStore(tmp_path, "abc123", obs=obs)
        store.store("bad", [1, 2, 3])
        store.path("bad").write_bytes(b"not a pickle")
        assert store.load("bad", MISS) is MISS
        assert not store.has("bad")
        aside = store.dir / "bad.corrupt"
        assert aside.read_bytes() == b"not a pickle"
        assert obs.registry.value("cache_corrupt_total", namespace="abc123") == 1
        (record,) = obs.log.events("cache.corrupt")
        assert record.level == "warning"
        assert record.fields["key"] == "bad"
        assert record.fields["error"] == "UnpicklingError"
        assert record.fields["moved_to"] == str(aside)

    def test_truncated_stage_entry_is_recomputed(self, tmp_path):
        calls = []

        def make_x(ctx, **inputs):
            calls.append(1)
            return {"x": list(range(1000))}

        graph = StageGraph(
            [Stage("make_x", make_x, (), ("x",))], [ArtifactSpec("x", list)]
        )
        obs = Obs(clock=VirtualClock())

        def run():
            runner = GraphRunner(graph, cache=StageCache(tmp_path, obs=obs), obs=obs)
            return runner.run(None, targets=("x",)).artifacts["x"].value

        assert run() == list(range(1000))
        (entry,) = (tmp_path / "stages").glob("make_x-*.pkl")
        data = entry.read_bytes()
        entry.write_bytes(data[: len(data) // 2])

        assert run() == list(range(1000))
        assert len(calls) == 2  # the truncated entry was a miss, recomputed
        assert obs.registry.total("cache_corrupt_total") == 1
        assert entry.with_suffix(".corrupt").read_bytes() == data[: len(data) // 2]
        # The recomputed artifact replaced it.
        assert pickle.loads(entry.read_bytes())["outputs"]["x"] == list(range(1000))
        (record,) = obs.log.events("cache.corrupt")
        assert record.fields["key"] == entry.stem

        assert run() == list(range(1000))  # and now it is a plain hit
        assert len(calls) == 2
        assert obs.registry.total("cache_corrupt_total") == 1
