"""Zero-copy hot-path benchmarks: shm fan-out and memory-mapped decode.

Two regimes, feeding the ``zero_copy_*`` rows of ``GATES`` in
``benchmarks/check_regression.py`` (committed ratios in
``benchmarks/results/kernel_baselines.json``):

* **fan-out**: one multi-granule struct-of-arrays payload (~48 MB) is
  map-reduced across a warmed persistent process pool, once with the
  shared-memory transport (arrays published once, workers slice attached
  views) and once with the legacy pickled path (every partition's arrays
  serialised through a pipe).  The pickled/shm time ratio
  (``zero_copy_fanout``) is held above a >= 2x floor — the central claim
  of the zero-copy executor.
* **decode**: one serving-scale product is written twice (npz archive and
  raw flat blob) and a single cold zoom-0 tile is served from each through
  a fresh :class:`~repro.serve.query.QueryEngine`.  The npz path inflates
  the whole archive and builds the full pyramid; the raw path memory-maps
  the blob and touches one tile's worth of pages.  Per kernel backend, the
  npz/raw ratio (``zero_copy_decode_<backend>``) is held above a >= 3x
  floor, and the reference/vectorized npz runs form the
  ``zero_copy_decode_npz`` kernel speedup.

Run:  python -m pytest benchmarks/bench_zero_copy.py --benchmark-json=zero-copy-bench.json
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

_SRC = Path(__file__).resolve().parents[1] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro import kernels
from repro.config import ServeConfig
from repro.distributed.mapreduce import MapReduceEngine
from repro.geodesy.grid import GridDefinition
from repro.l3.product import Level3Grid
from repro.l3.writer import write_level3
from repro.serve.catalog import ProductCatalog
from repro.serve.query import ProductLoader, QueryEngine, TileRequest

ROUNDS = dict(rounds=5, iterations=1, warmup_rounds=1)

# -- fan-out: shared-memory vs pickled task payloads -------------------------

#: ~48 MB across six segment-array variables — a few granules' worth of
#: photon/segment columns, the payload the campaign fan-out actually ships.
N_ROWS = 1_000_000
N_VARS = 6
N_PARTITIONS = 4


def _payload() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(29)
    return {f"var_{i}": rng.standard_normal(N_ROWS) for i in range(N_VARS)}


def _chunk_stats(chunk):
    """Cheap per-partition map: fault in every page, return scalars.

    One element per 4 KiB page (512 float64s) is read, so the shm path
    demonstrably touches the shared pages while the measurement stays
    transport-dominated — the pickled path pays full serialisation of the
    arrays whatever the map does.
    """
    return {name: float(np.sum(a[::512])) for name, a in chunk.items()}


def _merge_stats(parts):
    out: dict = {}
    for part in parts:
        for name, value in part.items():
            out[name] = out.get(name, 0.0) + value
    return out


@pytest.fixture(scope="module")
def fanout_setup():
    """Warmed persistent engines (pool spawn paid before any round)."""
    arrays = _payload()
    shm = MapReduceEngine(
        n_partitions=N_PARTITIONS, executor="process", max_workers=N_PARTITIONS
    )
    pickled = MapReduceEngine(
        n_partitions=N_PARTITIONS,
        executor="process",
        max_workers=N_PARTITIONS,
        use_shm=False,
    )
    # Warm both pools and check the transports agree bit-for-bit: the same
    # partitioning yields the same strided page sums whatever ships the bytes.
    warm_shm = shm.map_arrays(arrays, _chunk_stats, _merge_stats)
    warm_pickled = pickled.map_arrays(arrays, _chunk_stats, _merge_stats)
    assert warm_shm.value == warm_pickled.value
    yield arrays, shm, pickled
    shm.close()
    pickled.close()


def _run_fanout(engine: MapReduceEngine, arrays: dict[str, np.ndarray]) -> None:
    engine.map_arrays(arrays, _chunk_stats, _merge_stats)


def test_zero_copy_fanout_shm(benchmark, fanout_setup):
    arrays, shm, _ = fanout_setup
    benchmark.pedantic(_run_fanout, args=(shm, arrays), **ROUNDS)


def test_zero_copy_fanout_pickled(benchmark, fanout_setup):
    arrays, _, pickled = fanout_setup
    benchmark.pedantic(_run_fanout, args=(pickled, arrays), **ROUNDS)


# -- decode: raw memory-mapped window vs npz full inflate --------------------

SERVE = ServeConfig(tile_size=64, tile_cache_size=512)
GRID_NX, GRID_NY = 1536, 1024  # 153.6 km x 102.4 km at 100 m cells


@pytest.fixture(scope="module")
def archives(tmp_path_factory):
    """The same serving-scale mosaic on disk in both product formats."""
    rng = np.random.default_rng(31)
    grid = GridDefinition(
        x_min_m=0.0, y_min_m=0.0, cell_size_m=100.0, nx=GRID_NX, ny=GRID_NY
    )
    occupancy = rng.random(grid.shape) < 0.4
    n_seg = np.where(occupancy, rng.integers(1, 40, grid.shape), 0).astype(np.int64)
    product = Level3Grid(
        grid=grid,
        variables={
            "n_segments": n_seg,
            "freeboard_mean": np.where(
                occupancy, rng.normal(0.3, 0.15, grid.shape), np.nan
            ),
        },
        metadata={"kind": "mosaic", "granule_ids": ["bench"], "fingerprint": "fp-zc"},
    )
    catalogs: dict[str, ProductCatalog] = {}
    for format in ("npz", "raw"):
        root = tmp_path_factory.mktemp(f"zero-copy-{format}")
        write_level3(product, root / "mosaic", format=format)
        catalog = ProductCatalog()
        catalog.scan(root)
        catalogs[format] = catalog
    return catalogs


#: One base-resolution tile: the minimal cold request a map client issues.
_TILE_REQUEST = TileRequest(
    bbox=(12_800.0, 6_400.0, 19_200.0, 12_800.0), variable="freeboard_mean", zoom=0
)


def _serve_cold(catalog: ProductCatalog) -> None:
    engine = QueryEngine(catalog, loader=ProductLoader(SERVE), serve=SERVE)
    response = engine.query(_TILE_REQUEST)
    assert response.n_tiles > 0


def _bench_decode(benchmark, archives, format: str, backend: str) -> None:
    with kernels.use_backend(backend):
        benchmark.pedantic(_serve_cold, args=(archives[format],), **ROUNDS)


def test_zero_copy_decode_npz_reference(benchmark, archives):
    _bench_decode(benchmark, archives, "npz", "reference")


def test_zero_copy_decode_npz_vectorized(benchmark, archives):
    _bench_decode(benchmark, archives, "npz", "vectorized")


def test_zero_copy_decode_raw_reference(benchmark, archives):
    _bench_decode(benchmark, archives, "raw", "reference")


def test_zero_copy_decode_raw_vectorized(benchmark, archives):
    _bench_decode(benchmark, archives, "raw", "vectorized")
