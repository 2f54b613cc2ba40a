"""The benchmark's workloads: inputs generated from a seed, timed steps, checks.

Each workload drives only public entry points of the program
(``CampaignRunner.run/to_l3/serve/grid_new_granule`` and
``ServeHandle.with_router/with_ingest/query_batch/ingest``) with inputs made
from the ``--seed`` argument.  Next to each definition, ``why`` says why the
workload exists and ``stresses``/``bypasses`` name the layers it loads and the
layers whose speed it should not depend on.

A workload is driven by ``run.py`` in four phases:

* ``setup(workdir)`` brings it from nothing to ready-to-measure; it is run
  several times and its median is the ``setup_s`` metric;
* ``step(ops)`` runs one logical step, with the measured part inside
  ``with ops(kind)`` (which times it, and traces it on traced runs);
  anything else a step does (deleting caches, sizing directories) is not
  timed;
* ``check()`` verifies the outputs, outside every timed region;
* ``teardown()`` releases pools and deletes the workload's files.
"""

from __future__ import annotations

import hashlib
import shutil
import traceback
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path
from typing import Any, Callable, ContextManager

import numpy as np

from repro.campaign import CampaignConfig, CampaignRunner
from repro.config import L3GridConfig, RouterConfig, ServeConfig
from repro.l3.processor import Level3Processor
from repro.l3.product import Level3Grid
from repro.l3.writer import read_level3
from repro.pipeline.cache import STAGE_NAMESPACE
from repro.serve import TileRequest
from repro.serve.pyramid import build_pyramid
from repro.surface.scene import SceneConfig
from repro.workflow.end_to_end import ExperimentConfig

from layertrace import OpTiming

#: ``ops(kind)``: context manager timing (and on traced runs tracing) one
#: measured operation of the given kind.
OpContext = Callable[[str], ContextManager[OpTiming]]

#: The serve tier's tile geometry: 16-cell tiles over an 80 x 80-cell mosaic
#: give 5 x 5 tiles at zoom 0 and four zoom levels; 48 cached tiles per
#: shard is smaller than the views' working set, so reads keep missing.
SERVE = ServeConfig(tile_size=16, tile_cache_size=48, router=RouterConfig(n_shards=4))

#: Every granule: an 8 km scene, the fast MLP classifier, 100 m Level-3 cells.
BASE = ExperimentConfig(
    scene=SceneConfig(
        width_m=8_000.0,
        height_m=8_000.0,
        open_water_fraction=0.12,
        thin_ice_fraction=0.18,
        thick_ice_fraction=0.70,
        n_leads=8,
    ),
    epochs=2,
    model_kind="mlp",
    l3=L3GridConfig(cell_size_m=100.0),
    serve=SERVE,
)

#: The 4-granule fleet: season {winter, freeze_up} x cloud {0.15, 0.4}.
FLEET_GRID = {"season": ("winter", "freeze_up"), "cloud_fraction": (0.15, 0.4)}

#: Campaign seed of the fleet that ``fleet_rerun`` and ``serve_live`` work on.
#: It stays fixed because their cost depends on the fleet's data, not only
#: on its size: on some fleets every re-run re-faults ~160 MB of freshly
#: mapped arrays (glibc serves them by ``mmap``) and takes ~1.4x as long as on
#: others.  The workload seed drives what is done with the fleet.
FLEET_SEED = 17


def fleet_config(seed: int, grid: Any = FLEET_GRID, **execution: Any) -> CampaignConfig:
    return CampaignConfig(base=BASE, grid=grid, seed=seed, **execution)


def grid_digest(grid: Level3Grid) -> str:
    """Hash of every variable's name, dtype, shape and bytes."""
    h = hashlib.sha256()
    for name in sorted(grid.variables):
        array = np.ascontiguousarray(grid.variables[name])
        h.update(f"{name}:{array.dtype.str}:{array.shape}".encode())
        h.update(array.tobytes())
    return h.hexdigest()


def file_sizes(root: Path) -> dict[Path, int]:
    """Size of every regular file under ``root``."""
    return {p: p.stat().st_size for p in root.rglob("*") if p.is_file()}


def tier_bytes(sizes: dict[Path, int], cache_dir: Path) -> tuple[int, int]:
    """Split file bytes into (stage tier, campaign result tier)."""
    stage_dir = cache_dir / STAGE_NAMESPACE
    stage = sum(n for p, n in sizes.items() if stage_dir in p.parents)
    return stage, sum(sizes.values()) - stage


class Workload:
    """Shared bookkeeping; subclasses define the inputs, steps and checks."""

    name = ""
    why = ""
    stresses: tuple[str, ...] = ()
    bypasses: tuple[str, ...] = ()
    #: Kind of the operation whose latency is the headline metric.
    primary = ""
    #: ``op_p90_ms`` is the median of the p90s of stretches of this many
    #: ``primary`` operations; ``None``: the p90 of the whole run.
    p90_block: int | None = None
    #: Hard cap on steps per run, whatever ``--seconds`` says.
    max_steps = 2_000
    #: Run a full garbage collection before each step (outside the timing).
    collect_between_steps = True
    #: Operation kinds a traced run traces; per-layer metrics are per
    #: traced ``primary`` operation.
    traced_kinds: tuple[str, ...] = ()

    def __init__(self, seed: int) -> None:
        self.rng = np.random.default_rng(seed)
        self.workdir: Path | None = None
        self.attempted = 0
        self.failed_ops = 0
        self.failures: list[str] = []
        #: ``write``: bytes an operation adds to disk.
        self.samples: dict[str, list[float]] = {"write": []}
        self.counters: dict[str, float] = {}
        self._steps = 0

    # -- driven by run.py ---------------------------------------------------

    def setup(self, workdir: Path) -> None:
        raise NotImplementedError

    def step(self, ops: OpContext) -> None:
        raise NotImplementedError

    def check(self) -> list[str]:
        return list(self.failures)

    def teardown(self) -> None:
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)

    def ready(self) -> bool:
        """Whether every sample stream has at least one value."""
        return all(self.samples.values())

    # -- helpers ------------------------------------------------------------

    def _op_failed(self, what: str) -> None:
        self.failed_ops += 1
        if self.failed_ops <= 3:
            print(f"[{self.name}] {what} failed:", flush=True)
            traceback.print_exc()

    def _fail(self, message: str) -> None:
        self.failures.append(message)

    def _count_stage_hits(self, *results: Any) -> None:
        hits = sum(len(r.stage_hits) for r in results)
        misses = sum(len(r.stage_misses) for r in results)
        self.counters["stage_hits"] = self.counters.get("stage_hits", 0) + hits
        self.counters["stage_lookups"] = (
            self.counters.get("stage_lookups", 0) + hits + misses
        )


class FleetCold(Workload):
    """A serial 4-granule fleet into an empty cache, then L3 and product writes."""

    name = "fleet_cold"
    why = (
        "a serial 4-granule fleet into an empty cache: curation kernels do most "
        "of the work, and the run writes the whole stage cache; its map-reduce "
        "jobs run through MapReduceEngine.run on the serial executor"
    )
    stresses = (
        "surface", "atl03", "sentinel2", "resampling", "labeling",
        "classification", "pipeline", "campaign", "distributed",
    )
    bypasses = ("serve", "ingest")
    primary = "fleet"
    traced_kinds = ("fleet",)

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.config = fleet_config(seed, n_workers=1, executor="process", use_shm=True)
        self.digests: list[str] = []

    def _fleet(self, config: CampaignConfig, workdir: Path, ops: OpContext | None):
        """One fleet, from config to written L3 products; times it with ``ops``."""
        cache = workdir / "cache"
        config = replace(config, cache_dir=str(cache))
        with ops(self.primary) if ops is not None else nullcontext():
            with CampaignRunner(config) as runner:
                result = runner.run()
                l3 = runner.to_l3(result)
                runner.serve(str(workdir / "products"), result=result, l3=l3).close()
        return result, l3, file_sizes(cache), cache

    def setup(self, workdir: Path) -> None:
        # Half the fleet warms imports, lazy modules and first-touch memory.
        self.workdir = workdir
        warmup = replace(self.config, grid={**FLEET_GRID, "season": ("winter",)})
        self._fleet(warmup, workdir / "warmup", None)
        shutil.rmtree(workdir / "warmup")

    def step(self, ops: OpContext) -> None:
        assert self.workdir is not None
        opdir = self.workdir / f"op{self._steps}"
        self._steps += 1
        self.attempted += 1
        try:
            result, l3, sizes, cache = self._fleet(self.config, opdir, ops)
        except Exception:
            self._op_failed("fleet")
            return
        finally:
            shutil.rmtree(opdir, ignore_errors=True)
        self.samples["write"].append(sum(sizes.values()))
        stage, result_tier = tier_bytes(sizes, cache)
        self.counters["stage_tier_bytes"] = stage
        self.counters["result_tier_bytes"] = result_tier
        self._count_stage_hits(result, l3)
        self.digests.append(grid_digest(l3.mosaic))

    def check(self) -> list[str]:
        assert self.workdir is not None
        if len(set(self.digests)) > 1:
            self._fail(f"{self.name}: fleet mosaics differ between operations")
        # The same fleet fanned out over 2 worker processes with shared-memory
        # transport must give the same bytes: serial and process fan-out are
        # bit-identical by contract.
        fanout = replace(self.config, n_workers=2)
        _, l3, _, _ = self._fleet(fanout, self.workdir / "check", None)
        shutil.rmtree(self.workdir / "check", ignore_errors=True)
        if self.digests and grid_digest(l3.mosaic) != self.digests[0]:
            self._fail(f"{self.name}: fan-out fleet mosaic differs from the serial one")
        return super().check()


class FleetRerun(Workload):
    name = "fleet_rerun"
    why = (
        "sea-surface-only re-runs against a warm cache: curation and training "
        "are cache hits, so cache reads and writes, freeboard, products and L3 "
        "do the work"
    )
    stresses = ("pipeline", "campaign", "freeboard", "products", "l3", "distributed")
    bypasses = (
        "surface", "atl03", "sentinel2", "resampling", "labeling",
        "classification", "serve", "ingest",
    )
    primary = "rerun"
    traced_kinds = ("rerun",)
    p90_block = 10
    #: A re-run writes ~170 MB; the cache is restored after each one, and
    #: this caps how many a run makes.
    max_steps = 200

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.config = fleet_config(FLEET_SEED)
        default = BASE.sea_surface.window_length_m
        candidates = [v for v in np.arange(6_000.0, 14_001.0, 250.0) if v != default]
        #: Distinct sea-surface window lengths, one per re-run, cycled.
        self.window_lengths = [float(v) for v in self.rng.permutation(candidates)]
        self.digests: dict[float, str] = {}

    def _config(self, window_length_m: float, cache_dir: str | None) -> CampaignConfig:
        sea_surface = replace(BASE.sea_surface, window_length_m=window_length_m)
        return replace(
            self.config,
            base=replace(BASE, sea_surface=sea_surface),
            cache_dir=cache_dir,
        )

    def setup(self, workdir: Path) -> None:
        # Seed the warm cache: the base fleet plus its Level-3 products.
        self.workdir = workdir
        self.cache = workdir / "cache"
        with CampaignRunner(replace(self.config, cache_dir=str(self.cache))) as runner:
            runner.to_l3(runner.run())
        self.seeded = set(self.cache.rglob("*"))
        self.seeded_bytes = sum(file_sizes(self.cache).values())

    def _restore(self) -> None:
        """Delete everything the last re-run added to the cache."""
        added = [p for p in self.cache.rglob("*") if p not in self.seeded]
        for path in sorted(added, key=lambda p: len(p.parts), reverse=True):
            if path.is_dir():
                path.rmdir()
            else:
                path.unlink()

    def step(self, ops: OpContext) -> None:
        value = self.window_lengths[self._steps % len(self.window_lengths)]
        self._steps += 1
        self.attempted += 1
        try:
            with ops(self.primary):
                with CampaignRunner(self._config(value, str(self.cache))) as runner:
                    result = runner.run()
                    l3 = runner.to_l3(result)
        except Exception:
            self._op_failed("re-run")
            self._restore()
            return
        sizes = file_sizes(self.cache)
        added = {p: n for p, n in sizes.items() if p not in self.seeded}
        self.samples["write"].append(sum(sizes.values()) - self.seeded_bytes)
        stage, result_tier = tier_bytes(added, self.cache)
        self.counters["stage_tier_bytes"] = stage
        self.counters["result_tier_bytes"] = result_tier
        self._count_stage_hits(result, l3)
        digest = grid_digest(l3.mosaic)
        if self.digests.setdefault(value, digest) != digest:
            self._fail(f"{self.name}: window {value:g} m gave two different mosaics")
        self._restore()
        if sum(file_sizes(self.cache).values()) != self.seeded_bytes:
            self._fail(f"{self.name}: a re-run changed the seeded cache entries")

    def check(self) -> list[str]:
        # One re-run configuration must match a from-scratch uncached run.
        if self.digests:
            value = next(iter(self.digests))
            with CampaignRunner(self._config(value, None)) as runner:
                l3 = runner.to_l3(runner.run())
            if grid_digest(l3.mosaic) != self.digests[value]:
                self._fail(
                    f"{self.name}: cached re-run (window {value:g} m) differs from "
                    "an uncached run"
                )
        return super().check()


class ServeLive(Workload):
    name = "serve_live"
    why = (
        "one closed-loop client rendering Zipf-popular map views while new "
        "granules arrive: serve and ingest do all the work"
    )
    #: ``QueryEngine.query_batch`` fetches products through
    #: ``MapReduceEngine.run`` (serial executor), so views also pass through
    #: ``distributed``.
    stresses = ("serve", "ingest", "distributed")
    bypasses = (
        "surface", "atl03", "sentinel2", "resampling", "labeling",
        "classification", "freeboard", "products", "pipeline", "campaign",
    )
    primary = "view"
    traced_kinds = ("view", "ingest")
    collect_between_steps = False
    #: Views take milliseconds; every episode deletes its products, so disk
    #: use stays bounded however many steps a run makes.
    max_steps = 100_000
    # Views and ingests are issued from one client thread, as a server's
    # worker thread would issue them.  From the main thread, the sync
    # query path's ``asyncio.run`` installs a SIGINT handler whenever SIGINT
    # has Python's default handler, and restoring it formats the finished
    # task's tiles with numpy's repr: ~90 % of a view's time, depending on
    # how the benchmark was launched, and ~1.8x slower or faster with the
    # state of a shared host.

    #: Granules gridded during setup that arrive during the run.
    N_ARRIVALS = 4
    #: A granule arrives after every this many views.
    VIEWS_PER_ARRIVAL = 8
    #: One serving episode's views: the tail is taken per episode.
    p90_block = (N_ARRIVALS + 1) * VIEWS_PER_ARRIVAL
    #: Region requests per map view.
    REQUESTS_PER_VIEW = 8
    #: Tiles per side of the 80-cell mosaic at zooms 0, 1 and 2.
    TILES_PER_SIDE = (5, 3, 2)
    ZIPF_EXPONENT = 1.1
    #: Counters read from the shards' ``QueryStats`` and ``RouterStats``.
    ROUTER_COUNTERS = ("tile_hits", "tile_misses", "decodes", "shed", "coalesced", "errors")
    VARIABLES = (
        "freeboard_mean",
        "freeboard_std",
        "thickness_mean",
        "class_fraction_thick_ice",
        "class_fraction_thin_ice",
        "class_fraction_open_water",
    )

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        # The served fleet and the tile popularity ranking come from
        # FLEET_SEED: a view's cost depends on which tiles are popular and
        # what they hold.  The workload seed drives the traffic: the sequence
        # of views and the order in which granules arrive.
        self.config = fleet_config(FLEET_SEED)
        # Arrivals: granules of a wider scenario grid that the fleet lacks.
        wider = fleet_config(
            FLEET_SEED,
            grid={
                "season": FLEET_GRID["season"],
                "cloud_fraction": (*FLEET_GRID["cloud_fraction"], 0.25, 0.3),
            },
        )
        fleet_ids = {spec.granule_id for spec in self.config.expand()}
        extra = [spec for spec in wider.expand() if spec.granule_id not in fleet_ids]
        order = self.rng.permutation(self.N_ARRIVALS)
        self.arrival_specs = [extra[int(i)] for i in order]
        # Each request asks for one tile-sized region of one variable at one
        # zoom, so every request costs one tile; popularity is Zipf over a
        # fixed ranking of those regions.
        self.templates = [
            (variable, zoom, row, col)
            for variable in self.VARIABLES
            for zoom, n_tiles in enumerate(self.TILES_PER_SIDE)
            for row in range(n_tiles)
            for col in range(n_tiles)
        ]
        ranks = np.random.default_rng(FLEET_SEED).permutation(len(self.templates)) + 1
        weights = 1.0 / ranks.astype(float) ** self.ZIPF_EXPONENT
        self.popularity = weights / weights.sum()
        self.runner: CampaignRunner | None = None
        self.handle: Any = None
        self.client: ThreadPoolExecutor | None = None
        self.episode = 0
        for key in (*self.ROUTER_COUNTERS, "dirty_cells", "rebuilt_tiles", "invalidated"):
            self.counters[key] = 0
        #: Seconds from a granule's arrival to merged, published tiles.
        self.samples["ingest"] = []

    # -- setup --------------------------------------------------------------

    def setup(self, workdir: Path) -> None:
        self.workdir = workdir
        self.client = ThreadPoolExecutor(max_workers=1, thread_name_prefix="client")
        self.runner = CampaignRunner(replace(self.config, cache_dir=str(workdir / "cache")))
        self.result = self.runner.run()
        self.l3 = self.runner.to_l3(self.result)
        self.arrivals = [
            self.runner.grid_new_granule(spec, result=self.result)
            for spec in self.arrival_specs
        ]
        #: Batch mosaic and its pyramid after n arrivals, for the checks;
        #: made here so that the measured steps hold no check-only memory.
        self._batch = [self._batch_mosaic(n) for n in range(self.N_ARRIVALS + 1)]
        self._open_episode()
        x0, y0, x1, y1 = self.handle.catalog.extent()
        span = SERVE.tile_size * BASE.l3.cell_size_m
        self.requests = []
        for variable, zoom, row, col in self.templates:
            size = span * 2**zoom
            left, bottom = x0 + col * size, y0 + row * size
            right, top = min(left + size, x1), min(bottom + size, y1)
            # Inset so the region touches no neighbouring tile.
            dx, dy = 0.1 * (right - left), 0.1 * (top - bottom)
            self.requests.append(
                TileRequest(
                    bbox=(left + dx, bottom + dy, right - dx, top - dy),
                    variable=variable,
                    zoom=zoom,
                )
            )

    def _open_episode(self) -> None:
        """A fresh serving stack over the fleet's products, cold caches."""
        assert self.runner is not None and self.workdir is not None
        self.products = self.workdir / f"products{self.episode}"
        self.handle = (
            self.runner.serve(str(self.products), result=self.result, l3=self.l3)
            .with_router()
            .with_ingest()
        )
        self.n_ingested = 0
        self.views_in_episode = 0

    def _close_episode(self) -> None:
        self.handle.close()
        shutil.rmtree(self.products, ignore_errors=True)
        self.episode += 1

    def teardown(self) -> None:
        if self.handle is not None:
            self.handle.close()
            self.handle = None
        if self.runner is not None:
            self.runner.close()
            self.runner = None
        if self.client is not None:
            self.client.shutdown(wait=True)
            self.client = None
        super().teardown()

    # -- steps --------------------------------------------------------------

    def _router_counts(self) -> np.ndarray:
        router = self.handle.router
        stats = [shard.engine.stats for shard in router.shards]
        rstats = router.stats
        return np.array(
            [
                sum(s.tile_hits for s in stats),
                sum(s.tile_misses for s in stats),
                sum(s.loads for s in stats),
                rstats.shed,
                rstats.coalesced,
                rstats.errors,
            ],
            dtype=float,
        )

    def step(self, ops: OpContext) -> None:
        episode_views = (self.N_ARRIVALS + 1) * self.VIEWS_PER_ARRIVAL
        if self.views_in_episode >= episode_views:
            self._close_episode()
            self._open_episode()
        due = (self.views_in_episode // self.VIEWS_PER_ARRIVAL) > self.n_ingested
        if due and self.n_ingested < self.N_ARRIVALS:
            self._ingest(ops)
        else:
            self._view(ops)

    def _view(self, ops: OpContext) -> None:
        picks = self.rng.choice(
            len(self.requests), size=self.REQUESTS_PER_VIEW, p=self.popularity
        )
        requests = [self.requests[int(i)] for i in picks]
        self.attempted += 1
        self.views_in_episode += 1
        before = self._router_counts()
        try:
            with ops(self.primary):
                responses = self.client.submit(self.handle.query_batch, requests).result()
        except Exception:
            self._op_failed("map view")
            return
        delta = self._router_counts() - before
        for key, value in zip(self.ROUTER_COUNTERS, delta):
            self.counters[key] += value
        self.counters["views"] = self.counters.get("views", 0) + 1
        self._check_view(responses)

    def _ingest(self, ops: OpContext) -> None:
        granule = self.arrivals[self.n_ingested]
        before = {p: p.stat().st_mtime_ns for p in self.products.rglob("*") if p.is_file()}
        self.attempted += 1
        self.n_ingested += 1
        try:
            with ops("ingest") as timing:
                report = self.client.submit(self.handle.ingest, granule).result()
        except Exception:
            self._op_failed("ingest")
            return
        written = sum(
            p.stat().st_size
            for p in self.products.rglob("*")
            if p.is_file() and before.get(p) != p.stat().st_mtime_ns
        )
        self.samples["ingest"].append(timing.wall_s)
        self.samples["write"].append(written)
        self.counters["dirty_cells"] += report.n_dirty_cells
        self.counters["rebuilt_tiles"] += len(report.rebuilt_tiles)
        self.counters["invalidated"] += report.n_invalidated
        self.counters["ingests"] = self.counters.get("ingests", 0) + 1
        self._check_live_mosaic()

    # -- checks (outside the timed regions) ---------------------------------

    def _batch_mosaic(self, n_ingested: int) -> tuple[Level3Grid, Any]:
        """``Level3Processor.mosaic`` over the fleet plus the first arrivals,
        and its tile pyramid."""
        grids = dict(self.l3.granules)
        for granule in self.arrivals[:n_ingested]:
            grids[str(granule.metadata["granule_id"])] = granule
        processor = Level3Processor.from_config(BASE.l3, scene=BASE.scene)
        mosaic = processor.mosaic([grids[gid] for gid in sorted(grids)])
        return mosaic, build_pyramid(mosaic, serve=SERVE)

    def _check_live_mosaic(self) -> None:
        """The published live mosaic is byte-identical to the batch mosaic."""
        batch, _ = self._batch[self.n_ingested]
        live = read_level3(self.products / "mosaic")
        for name, expected in batch.variables.items():
            got = np.asarray(live.variables.get(name))
            if got.dtype != expected.dtype or got.tobytes() != expected.tobytes():
                self._fail(
                    f"{self.name}: episode {self.episode}: live mosaic {name!r} after "
                    f"{self.n_ingested} ingests differs from Level3Processor.mosaic"
                )
                return

    def _check_view(self, responses: list[Any]) -> None:
        """Served tiles equal ``TilePyramid.tile`` reads of the batch mosaic.

        Checked as soon as the view returns: a later ingest rebuilds the
        pyramid in place, and tiles already handed out change with it.
        """
        _, pyramid = self._batch[self.n_ingested]
        for response in responses:
            for (row, col), tile in response.tiles.items():
                expected = pyramid.tile(response.request.variable, response.zoom, row, col)
                if tile.dtype != expected.dtype or tile.tobytes() != expected.tobytes():
                    self._fail(
                        f"{self.name}: episode {self.episode}: served tile "
                        f"{response.request.variable}@z{response.zoom}/{row},{col} "
                        f"differs from the pyramid after {self.n_ingested} ingests"
                    )
                    return


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (FleetCold, FleetRerun, ServeLive)
}
