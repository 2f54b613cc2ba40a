"""The corridor segmentation: only the tiles the tracks can read.

``segment_image(image, config, tiles=...)`` renders and segments only the
marked tiles of a lazily rendered image.  These tests pin that a computed
tile holds the whole-image bytes, that every lookup the drift search and
auto-labeling make stays inside :func:`corridor_tiles`, and that a lookup
outside it raises instead of returning a class.
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CLASS_UNLABELED, CLASS_UNSEGMENTED
from repro.labeling.alignment import MAX_SHIFT_M, apply_shift, estimate_drift
from repro.kernels.reference import oracles
from repro.labeling.autolabel import auto_label_segments, lookup_labels, overlay_labels
from repro.pipeline import GraphRunner, default_graph
from repro.sentinel2.cloud import CloudConfig
from repro.sentinel2.scene import TILE_PX, S2SceneConfig, render_scene, tile_grid_shape
from repro.sentinel2.segmentation import corridor_tiles, segment_image
from repro.surface.scene import SceneConfig
from repro.workflow.end_to_end import ExperimentConfig
from tests.test_sentinel2_pinned import random_scene, render_whole_image, s2_image

#: The drift-search kernel, and its reference loop installed by ``oracles()``.
RUN_ON = {"reference": oracles, "vectorized": nullcontext}


def tile_pixels(tiles: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """The pixel mask of a tile mask, cut to the image shape."""
    pixels = np.repeat(np.repeat(tiles, TILE_PX, axis=0), TILE_PX, axis=1)
    return pixels[: shape[0], : shape[1]]


def points_around(rng, image, n):
    """``n`` points over the image and up to half its size beyond each edge."""
    ny, nx = image.shape
    size = image.pixel_size_m
    x = image.origin_x_m + rng.uniform(-0.5, 1.5, n) * nx * size
    y = image.origin_y_m + rng.uniform(-0.5, 1.5, n) * ny * size
    return x, y


@st.composite
def corridor_cases(draw):
    """A random scene up to three tiles and a bit on a side, a cloud setting,
    and a tile mask: a corridor around points that may lie off the image
    (their lookups clip to edge tiles), plus random extra tiles."""
    ny = draw(st.integers(1, 3 * TILE_PX + 5))
    nx = draw(st.integers(1, 3 * TILE_PX + 5))
    seed = draw(st.integers(0, 2**32 - 1))
    cloud = draw(st.sampled_from([(0.0, 0.0), (0.3, 0.0), (0.4, 0.1)]))
    n_points = draw(st.integers(0, 5))
    reach_m = draw(st.sampled_from([0.0, 10.0, 150.0, 400.0]))
    extra = draw(st.sampled_from([0.0, 0.3]))
    return ny, nx, seed, cloud, n_points, reach_m, extra


def render(ny, nx, seed, cloud):
    scene = random_scene(ny, nx, seed)
    config = S2SceneConfig(
        cloud=CloudConfig(
            thin_cloud_fraction=cloud[0], shadow_fraction=cloud[1], shadow_offset_px=(3, 2)
        )
    )
    return scene, config, render_scene(scene, config=config, rng=seed)


@given(corridor_cases())
@settings(max_examples=60, deadline=None)
def test_computed_tiles_equal_the_whole_image_segmentation(case):
    ny, nx, seed, cloud, n_points, reach_m, extra = case
    scene, config, image = render(ny, nx, seed, cloud)
    rng = np.random.default_rng(seed)
    x, y = points_around(rng, image, n_points)
    tiles = corridor_tiles(image.grid, x, y, reach_m)
    tiles |= rng.random(tiles.shape) < extra

    tiled = segment_image(image, tiles=tiles)
    # The corridor path renders its tiles only; the stack is never filled.
    assert image._bands is None
    whole = segment_image(image)
    reference_bands, _, _ = render_whole_image(scene, config, seed)
    assert image.bands.tobytes() == reference_bands.tobytes()

    inside = tile_pixels(tiles, (ny, nx))
    np.testing.assert_array_equal(tiled.tiles, tiles)
    for name in ("class_map", "cloud_mask", "shadow_mask"):
        got, expected = getattr(tiled, name), getattr(whole, name)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got[inside].tobytes() == expected[inside].tobytes()
    assert (tiled.class_map[~inside] == CLASS_UNSEGMENTED).all()
    assert not tiled.cloud_mask[~inside].any() and not tiled.shadow_mask[~inside].any()

    # An image that holds its bands reads its tiles from them.
    stored = segment_image(s2_image(reference_bands), tiles=tiles)
    assert stored.class_map.tobytes() == tiled.class_map.tobytes()


@given(
    ny=st.integers(1, 100),
    nx=st.integers(1, 100),
    pixel_size_m=st.sampled_from([10.0, 7.0, 60.0]),
    tiles_of_reach=st.sampled_from([0.0, 0.02, 0.3, 1.0, 2.5]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_every_shifted_lookup_lands_in_the_corridor(ny, nx, pixel_size_m, tiles_of_reach, seed):
    rng = np.random.default_rng(seed)
    image = s2_image(np.zeros((4, ny, nx))).shifted(123_456.7, -654_321.3)
    image.pixel_size_m = pixel_size_m
    reach_m = tiles_of_reach * TILE_PX * pixel_size_m
    x, y = points_around(rng, image, 20)
    # Half the points on pixel edges, where the floor of a shifted lookup
    # is the most sensitive to rounding.
    x[::2] = image.origin_x_m + np.round((x[::2] - image.origin_x_m) / pixel_size_m) * pixel_size_m
    y[::2] = image.origin_y_m + np.round((y[::2] - image.origin_y_m) / pixel_size_m) * pixel_size_m
    tiles = corridor_tiles(image.grid, x, y, reach_m)
    # The extreme shifts, and random ones, of every point, clipped as the
    # drift search and auto-labeling clip them.
    edges = np.array([-reach_m, 0.0, reach_m])
    shifts = np.concatenate([edges, rng.uniform(-reach_m, reach_m, 5)])
    dx, dy = np.meshgrid(shifts, shifts)
    row, col = image.pixel_index(x[:, None] - dx.ravel(), y[:, None] - dy.ravel())
    assert tiles[row // TILE_PX, col // TILE_PX].all()


@pytest.mark.parametrize(
    ("reach_m", "margin"), [(0.0, 1), (310.0, 1), (320.0, 2), (MAX_SHIFT_M, 3)]
)
def test_the_margin_is_the_reach_plus_a_pixel_in_whole_tiles(reach_m, margin):
    """At 10 m pixels, 310 m plus one pixel fills one 32-pixel tile and
    320 m plus one pixel spills into a second."""
    image = s2_image(np.zeros((4, 10 * TILE_PX, 10 * TILE_PX)))
    centre = (4 * TILE_PX + 0.5) * image.pixel_size_m
    tiles = corridor_tiles(image.grid, np.array([centre]), np.array([centre]), reach_m)
    expected = np.zeros((10, 10), dtype=bool)
    expected[4 - margin : 5 + margin, 4 - margin : 5 + margin] = True
    np.testing.assert_array_equal(tiles, expected)


def test_non_finite_points_add_no_tile(s2_image):
    tiles = corridor_tiles(s2_image.grid, np.array([np.nan]), np.array([0.0]), MAX_SHIFT_M)
    assert tiles.shape == tile_grid_shape(s2_image.shape) and not tiles.any()
    with pytest.raises(ValueError, match="reach_m"):
        corridor_tiles(s2_image.grid, np.zeros(1), np.zeros(1), -1.0)


def test_tile_mask_must_match_the_image(s2_image):
    with pytest.raises(ValueError, match="tiles must have shape"):
        segment_image(s2_image, tiles=np.ones((2, 2), dtype=bool))


@pytest.fixture(scope="module")
def one_tile(s2_image):
    """A segmentation of the session image's lower-left tile only."""
    tiles = np.zeros(tile_grid_shape(s2_image.shape), dtype=bool)
    tiles[0, 0] = True
    return segment_image(s2_image, tiles=tiles)


SUMMARIES = {
    "cloud_fraction": lambda seg: seg.cloud_fraction,
    "shadow_fraction": lambda seg: seg.shadow_fraction,
    "class_fractions": lambda seg: seg.class_fractions(),
}


@pytest.mark.parametrize("summary", sorted(SUMMARIES))
def test_whole_image_summaries_refuse_a_tiled_result(one_tile, s2_segmentation, summary):
    with pytest.raises(ValueError, match="whole image"):
        SUMMARIES[summary](one_tile)
    SUMMARIES[summary](s2_segmentation)


def test_lookup_on_an_unsegmented_tile_raises(s2_image, one_tile):
    grid = s2_image.grid
    seg = one_tile
    in_tile = grid.x_min_m + 5.0, grid.y_min_m + 5.0
    x = np.array([in_tile[0], grid.x_max_m + 10.0])
    y = np.array([in_tile[1], grid.y_min_m + 5.0])
    result = lookup_labels(grid, seg.class_map, seg.cloud_mask, seg.shadow_mask, x, y)
    assert result.labels[0] == seg.class_map[0, 0] and result.labels[1] == CLASS_UNLABELED
    far = np.array([grid.x_min_m + 5.0 + TILE_PX * grid.cell_size_m])
    with pytest.raises(ValueError, match="outside the segmented corridor"):
        lookup_labels(grid, seg.class_map, seg.cloud_mask, seg.shadow_mask, far, y[:1])
    with pytest.raises(ValueError, match="outside the segmented corridor"):
        overlay_labels(s2_image, seg, far, y[:1])


@pytest.fixture(scope="module")
def drifted(scene, segments):
    """A drifted image, its whole-image segmentation and the tracks' corridor."""
    image = render_scene(scene, drift_offset_m=(250.0, 200.0), rng=33)
    whole = segment_image(image)
    tiles = corridor_tiles(image.grid, segments.x_m, segments.y_m, MAX_SHIFT_M)
    assert 0 < tiles.mean() < 1
    return image, whole, segment_image(image, tiles=tiles)


def drift_of(image, segmentation, segments, **search):
    return estimate_drift(
        image,
        segmentation.class_map,
        segments.x_m,
        segments.y_m,
        segments.height_mean_m,
        **search,
    )


@pytest.mark.parametrize("side", RUN_ON)
def test_drift_and_labels_equal_the_whole_image_ones(drifted, segments, side):
    image, whole, tiled = drifted
    with RUN_ON[side]():
        expected = drift_of(image, whole, segments)
        got = drift_of(image, tiled, segments)
    assert got == expected
    aligned = apply_shift(image, got)
    want = vars(auto_label_segments(segments, aligned, whole))
    have = vars(auto_label_segments(segments, aligned, tiled))
    for name, value in want.items():
        assert have[name].tobytes() == value.tobytes(), name


@pytest.mark.parametrize("side", RUN_ON)
def test_a_search_wider_than_the_corridor_raises(drifted, segments, side):
    image, whole, tiled = drifted
    with RUN_ON[side]():
        drift_of(image, whole, segments, max_shift_m=2 * MAX_SHIFT_M)
        with pytest.raises(ValueError, match="outside the segmented corridor"):
            drift_of(image, tiled, segments, max_shift_m=2 * MAX_SHIFT_M)


def test_the_segmentation_stage_segments_the_corridor():
    config = ExperimentConfig(
        scene=SceneConfig(width_m=6_000.0, height_m=6_000.0), n_beams=2, seed=13
    )
    result = GraphRunner(default_graph()).run(config, targets=("image", "segments", "segmentation"))
    image, segments, segmentation = result.values("image", "segments", "segmentation")
    x = np.concatenate([s.x_m for s in segments.values()])
    y = np.concatenate([s.y_m for s in segments.values()])
    tiles = corridor_tiles(image.grid, x, y, MAX_SHIFT_M)
    np.testing.assert_array_equal(segmentation.tiles, tiles)
    inside = tile_pixels(tiles, image.shape)
    whole = segment_image(image, config.segmentation)
    assert segmentation.class_map[inside].tobytes() == whole.class_map[inside].tobytes()
