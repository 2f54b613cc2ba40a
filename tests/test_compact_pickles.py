"""The compact pickled forms of ``SegmentationResult`` and ``Level3Grid``.

A corridor segmentation pickles only the pixels of its marked tiles, and a
Level-3 grid only its occupied cells; unpickling rebuilds the full-size
planes.  These tests pin that the round trip is byte-identical (NaN
payloads and ``-0.0`` included) and that a result pickled as a plain
dataclass still loads.  ``tests/test_stage_tier_image.py`` guards the
sizes of the bundles a campaign writes.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config import CLASS_UNSEGMENTED
from repro.geodesy.grid import GridDefinition
from repro.l3.product import Level3Grid
from repro.labeling.alignment import MAX_SHIFT_M
from repro.sentinel2.scene import TILE_PX, tile_grid_shape
from repro.sentinel2.segmentation import SegmentationResult, corridor_tiles, segment_image

PROTOCOL = 5


def roundtrip(value):
    return pickle.loads(pickle.dumps(value, protocol=PROTOCOL))


def assert_same_array(got: np.ndarray, expected: np.ndarray) -> None:
    assert got.dtype == expected.dtype
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


def assert_same_segmentation(got: SegmentationResult, expected: SegmentationResult) -> None:
    assert type(got) is SegmentationResult
    for name in ("class_map", "cloud_mask", "shadow_mask"):
        assert_same_array(getattr(got, name), getattr(expected, name))
    if expected.tiles is None:
        assert got.tiles is None
    else:
        assert_same_array(got.tiles, expected.tiles)


def assert_same_grid(got: Level3Grid, expected: Level3Grid) -> None:
    assert type(got) is Level3Grid
    assert got.grid == expected.grid
    assert list(got.variables) == list(expected.variables)
    for name, array in expected.variables.items():
        assert_same_array(got.variables[name], array)
    assert got.attrs == expected.attrs
    assert got.metadata == expected.metadata


def marked_pixels(tiles: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """The pixel mask of a tile mask, one tile at a time."""
    pixels = np.zeros(shape, dtype=bool)
    for i, j in zip(*np.nonzero(tiles)):
        pixels[i * TILE_PX : (i + 1) * TILE_PX, j * TILE_PX : (j + 1) * TILE_PX] = True
    return pixels


@st.composite
def segmentations(draw):
    """A random corridor (empty, partial or full) or a whole-image result,
    on images up to three tiles and a bit on a side."""
    shape = (draw(st.integers(1, 3 * TILE_PX + 5)), draw(st.integers(1, 3 * TILE_PX + 5)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([None, 0.0, 0.3, 1.0]))
    classes = rng.integers(-128, 128, size=shape, dtype=np.int8)
    cloud = rng.random(shape) < 0.3
    shadow = rng.random(shape) < 0.1
    if density is None:
        return SegmentationResult(classes, cloud, shadow)
    tiles = rng.random(tile_grid_shape(shape)) < density
    pixels = marked_pixels(tiles, shape)
    return SegmentationResult(
        class_map=np.where(pixels, classes, np.int8(CLASS_UNSEGMENTED)),
        cloud_mask=cloud & pixels,
        shadow_mask=shadow & pixels,
        tiles=tiles,
    )


#: The empty corridor: no tile marked, on an image that is not a whole
#: number of tiles.
EMPTY_SHAPE = (2 * TILE_PX + 7, TILE_PX - 3)
EMPTY_CORRIDOR = SegmentationResult(
    class_map=np.full(EMPTY_SHAPE, CLASS_UNSEGMENTED, dtype=np.int8),
    cloud_mask=np.zeros(EMPTY_SHAPE, dtype=bool),
    shadow_mask=np.zeros(EMPTY_SHAPE, dtype=bool),
    tiles=np.zeros(tile_grid_shape(EMPTY_SHAPE), dtype=bool),
)


@given(segmentations())
@example(EMPTY_CORRIDOR)
@settings(max_examples=80, deadline=None)
def test_segmentation_roundtrip_is_byte_identical(result):
    assert_same_segmentation(roundtrip(result), result)


def test_real_segmentations_roundtrip(s2_image, s2_segmentation, segments):
    assert_same_segmentation(roundtrip(s2_segmentation), s2_segmentation)
    tiles = corridor_tiles(s2_image.grid, segments.x_m, segments.y_m, MAX_SHIFT_M)
    assert 0 < tiles.sum() < tiles.size
    corridor = segment_image(s2_image, tiles=tiles)
    assert_same_segmentation(roundtrip(corridor), corridor)


#: Bit patterns a float variable may hold and must keep: NaN payloads of
#: either sign, a signalling NaN, ``-0.0`` and ``+0.0``.
SPECIAL_BITS = {
    np.float64: np.array(
        [0x7FF8000000000001, 0xFFF8000000000000, 0x7FF0000000000001, 1 << 63, 0], dtype=np.uint64
    ),
    np.float32: np.array([0x7FC00001, 0xFFC00000, 0x7F800001, 1 << 31, 0], dtype=np.uint32),
}

#: (name, dtype, value of the cells no segment reached).
VARIABLES = (
    ("freeboard_mean", np.float64, np.nan),
    ("coverage_fraction", np.float64, 0.0),
    ("thickness_std", np.float32, np.nan),
    ("n_segments", np.int64, 0),
    ("n_granules", np.int32, 0),
    ("flag", np.bool_, False),
)


@st.composite
def level3_grids(draw):
    """A random grid whose variables hold their empty value outside random
    occupied cells (none, some or all), with special float bit patterns."""
    ny, nx = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.0, 0.05, 0.5, 1.0]))
    names = draw(st.lists(st.sampled_from([v[0] for v in VARIABLES]), unique=True))
    spec = {name: (dtype, empty) for name, dtype, empty in VARIABLES}
    variables = {}
    for name in names:
        dtype, empty = spec[name]
        plane = np.full((ny, nx), empty, dtype=dtype)
        occupied = rng.random((ny, nx)) < density
        n = int(occupied.sum())
        if dtype in SPECIAL_BITS:
            values = rng.standard_normal(n).astype(dtype)
            special = rng.random(n) < 0.3
            values[special] = rng.choice(SPECIAL_BITS[dtype], int(special.sum())).view(dtype)
        else:
            values = rng.integers(0, 3, n).astype(dtype)
        plane[occupied] = values
        variables[name] = plane
    grid = GridDefinition(x_min_m=-5e5, y_min_m=-1.2e6, cell_size_m=100.0, nx=nx, ny=ny)
    return Level3Grid(grid, variables, metadata={"kind": "granule", "granule_id": "g007"})


#: Every cell a special bit pattern, none of them the canonical NaN.
SPECIAL_GRID = Level3Grid(
    GridDefinition(x_min_m=0.0, y_min_m=0.0, cell_size_m=1.0, nx=4, ny=3),
    {
        "freeboard_mean": np.resize(SPECIAL_BITS[np.float64], 12).reshape(3, 4).view(np.float64),
        "n_segments": np.zeros((3, 4), np.int64),
    },
)


@given(level3_grids())
@example(SPECIAL_GRID)
@settings(max_examples=80, deadline=None)
def test_level3_roundtrip_is_byte_identical(grid):
    assert_same_grid(roundtrip(grid), grid)


@pytest.mark.parametrize("kind", ["segmentation", "level3"])
def test_parent_format_pickle_still_loads(kind, monkeypatch, s2_image, segments):
    """A pickle written without the compact form (a plain dataclass state)
    loads to the identical object."""
    if kind == "segmentation":
        tiles = corridor_tiles(s2_image.grid, segments.x_m, segments.y_m, MAX_SHIFT_M)
        value = segment_image(s2_image, tiles=tiles)
        cls, same = SegmentationResult, assert_same_segmentation
    else:
        value = Level3Grid(
            GridDefinition(x_min_m=0.0, y_min_m=0.0, cell_size_m=1.0, nx=5, ny=4),
            {"freeboard_mean": np.arange(20.0).reshape(4, 5), "n_segments": np.ones((4, 5), int)},
            metadata={"kind": "granule"},
        )
        cls, same = Level3Grid, assert_same_grid
    compact = pickle.dumps(value, protocol=PROTOCOL)
    with monkeypatch.context() as patch:
        patch.delattr(cls, "__reduce__")
        parent = pickle.dumps(value, protocol=PROTOCOL)
    assert parent != compact
    same(pickle.loads(parent), value)
