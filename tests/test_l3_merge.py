"""Online mosaic merging: the bit-identity contract of MosaicAccumulator.

The load-bearing property (Hypothesis-tested): N granules ingested in **any
order** produce a mosaic byte-identical to the batch
``Level3Processor.mosaic`` over the same fleet.  Everything the live-ingest
tier serves rests on this — incremental products are not approximations of
the batch products, they *are* the batch products.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geodesy.grid import GridDefinition
from repro.l3.merge import (
    MERGED_COUNT_LAYERS,
    MERGED_MEAN_LAYERS,
    MosaicAccumulator,
)
from repro.l3.processor import Level3Processor, mean_and_std_across
from repro.l3.product import Level3Grid

GRID = GridDefinition.from_extent(
    x_min_m=0.0, x_max_m=4_000.0, y_min_m=0.0, y_max_m=3_000.0, cell_size_m=500.0
)


def synthetic_granule(
    granule_id: str,
    rng: np.random.Generator,
    grid: GridDefinition = GRID,
    coverage: float = 0.5,
) -> Level3Grid:
    """A per-granule grid with a random sparse footprint, batch-shaped.

    Mirrors exactly the layers ``Level3Processor.mosaic`` consumes: integer
    count layers, NaN-masked float statistics, class fractions defined only
    on observed cells.
    """
    ny, nx = grid.shape
    n_segments = rng.integers(1, 6, size=(ny, nx)).astype(np.int64)
    n_segments[rng.random((ny, nx)) >= coverage] = 0
    observed = n_segments > 0
    n_freeboard = np.where(observed, rng.integers(1, 4, size=(ny, nx)), 0).astype(
        np.int64
    )

    def masked() -> np.ndarray:
        return np.where(observed, rng.normal(0.25, 0.1, size=(ny, nx)), np.nan)

    thick = rng.random((ny, nx))
    thin = rng.random((ny, nx)) * (1.0 - thick)
    variables = {
        "n_segments": n_segments,
        "n_freeboard_segments": n_freeboard,
        "freeboard_mean": masked(),
        "freeboard_median": masked(),
        "thickness_mean": masked(),
        "class_fraction_thick_ice": np.where(observed, thick, np.nan),
        "class_fraction_thin_ice": np.where(observed, thin, np.nan),
        "class_fraction_open_water": np.where(observed, 1.0 - thick - thin, np.nan),
    }
    return Level3Grid(
        grid=grid,
        variables=variables,
        metadata={"granule_id": granule_id, "kind": "granule"},
    )


def assert_products_byte_identical(live: Level3Grid, batch: Level3Grid) -> None:
    assert set(live.variables) == set(batch.variables)
    assert list(live.variables) == list(batch.variables)  # insertion order too
    for name, expected in batch.variables.items():
        got = live.variables[name]
        assert got.dtype == expected.dtype, name
        assert got.tobytes() == expected.tobytes(), name


class TestAnyOrderBitIdentity:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_ingest_order_never_changes_a_byte(self, data):
        """Core acceptance property: any ingest order == batch, byte for byte."""
        n = data.draw(st.integers(min_value=1, max_value=5), label="n_granules")
        seed = data.draw(st.integers(min_value=0, max_value=2**31 - 1), label="seed")
        coverage = data.draw(
            st.floats(min_value=0.0, max_value=1.0), label="coverage"
        )
        order = data.draw(st.permutations(list(range(n))), label="order")

        rng = np.random.default_rng(seed)
        granules = [synthetic_granule(f"g{i:03d}", rng, coverage=coverage) for i in range(n)]
        batch = Level3Processor(GRID).mosaic(granules)

        accumulator = MosaicAccumulator(GRID)
        for index in order:
            dirty = accumulator.add(granules[index])
            observed = np.flatnonzero(granules[index].variable("n_segments").ravel() > 0)
            assert np.array_equal(dirty, observed)

        assert_products_byte_identical(accumulator.snapshot(), batch)

    def test_incremental_snapshots_match_growing_batches(self):
        """Every intermediate snapshot equals the batch mosaic of its prefix."""
        rng = np.random.default_rng(11)
        granules = [synthetic_granule(f"g{i:03d}", rng) for i in range(4)]
        accumulator = MosaicAccumulator(GRID)
        for count, granule in enumerate(granules, start=1):
            accumulator.add(granule)
            batch = Level3Processor(GRID).mosaic(granules[:count])
            assert_products_byte_identical(accumulator.snapshot(), batch)

    def test_metadata_matches_the_batch_mosaic(self):
        rng = np.random.default_rng(3)
        granules = [synthetic_granule(f"g{i:03d}", rng) for i in range(3)]
        batch = Level3Processor(GRID).mosaic(granules)
        accumulator = MosaicAccumulator(GRID)
        for granule in reversed(granules):
            accumulator.add(granule)
        snapshot = accumulator.snapshot()
        assert snapshot.metadata["kind"] == "mosaic"
        assert snapshot.metadata["granule_ids"] == batch.metadata["granule_ids"]
        assert snapshot.metadata["n_granules"] == batch.metadata["n_granules"]
        assert snapshot.metadata["n_segments_total"] == batch.metadata["n_segments_total"]


class TestDirtyCellAccounting:
    def test_dirty_cells_are_exactly_the_observed_footprint(self):
        rng = np.random.default_rng(5)
        granule = synthetic_granule("g000", rng, coverage=0.3)
        accumulator = MosaicAccumulator(GRID)
        dirty = accumulator.add(granule)
        assert np.array_equal(
            dirty, np.flatnonzero(granule.variable("n_segments").ravel() > 0)
        )

    def test_empty_footprint_still_counts_toward_coverage(self):
        rng = np.random.default_rng(5)
        observed = synthetic_granule("g000", rng, coverage=1.0)
        empty = synthetic_granule("g001", rng, coverage=0.0)
        accumulator = MosaicAccumulator(GRID)
        accumulator.add(observed)
        dirty = accumulator.add(empty)
        assert dirty.size == 0
        snapshot = accumulator.snapshot()
        batch = Level3Processor(GRID).mosaic([observed, empty])
        assert_products_byte_identical(snapshot, batch)
        assert snapshot.variable("coverage_fraction").max() == pytest.approx(0.5)


class TestValidation:
    def test_rejects_mismatched_grid(self):
        rng = np.random.default_rng(0)
        other = GridDefinition.from_extent(
            x_min_m=0.0, x_max_m=2_000.0, y_min_m=0.0, y_max_m=2_000.0, cell_size_m=500.0
        )
        accumulator = MosaicAccumulator(GRID)
        with pytest.raises(ValueError, match="grid"):
            accumulator.add(synthetic_granule("g000", rng, grid=other))

    def test_rejects_duplicate_granule_id(self):
        rng = np.random.default_rng(0)
        accumulator = MosaicAccumulator(GRID)
        accumulator.add(synthetic_granule("g000", rng))
        with pytest.raises(ValueError, match="g000"):
            accumulator.add(synthetic_granule("g000", rng))

    def test_rejects_missing_granule_id(self):
        rng = np.random.default_rng(0)
        granule = synthetic_granule("g000", rng)
        granule.metadata.pop("granule_id")
        with pytest.raises(ValueError, match="granule_id"):
            MosaicAccumulator(GRID).add(granule)

    def test_snapshot_of_empty_accumulator_raises(self):
        with pytest.raises(ValueError):
            MosaicAccumulator(GRID).snapshot()

    def test_introspection(self):
        rng = np.random.default_rng(0)
        accumulator = MosaicAccumulator(GRID)
        accumulator.add(synthetic_granule("g001", rng))
        accumulator.add(synthetic_granule("g000", rng))
        assert len(accumulator) == 2
        assert "g001" in accumulator
        assert accumulator.granule_ids == ("g000", "g001")  # sorted stacking order


class TestSharedMergeMath:
    def test_layer_constants_cover_the_mosaic_variables(self):
        assert set(MERGED_COUNT_LAYERS) == {"n_segments", "n_freeboard_segments"}
        assert "freeboard_mean" in MERGED_MEAN_LAYERS
        assert any(name.startswith("class_fraction_") for name in MERGED_MEAN_LAYERS)

    def test_mean_and_std_across_is_the_batch_helper(self):
        """The online merge runs the same helper object the batch mosaic path uses."""
        from repro.l3 import merge, processor

        assert merge.mean_and_std_across is processor.mean_and_std_across is mean_and_std_across
        stacked = np.array([[1.0, np.nan], [3.0, np.nan]])
        mean, std = mean_and_std_across(stacked)
        assert mean[0] == pytest.approx(2.0)
        assert np.isnan(mean[1])
        assert std[0] == pytest.approx(np.sqrt(2.0))
