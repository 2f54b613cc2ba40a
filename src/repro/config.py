"""Global configuration constants and parameter containers.

These values mirror the settings reported in the paper:

* Ross Sea region of interest (longitude -180 .. -140, latitude -78 .. -70).
* 2 m along-track resampling window.
* 10 km sliding windows with 5 km overlap for local sea-surface detection.
* LSTM / MLP hyper-parameters (Adam lr = 0.003, dropout 0.2, batch size 32,
  20 epochs, focal loss).
* The coincident IS2/S2 pair table (Table I) lives in
  :mod:`repro.labeling.pairs` and references these constants.

All parameter containers are frozen dataclasses so that experiment
configurations are hashable, comparable and safe to share across worker
processes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


# ---------------------------------------------------------------------------
# Region of interest (paper Section III.A.1)
# ---------------------------------------------------------------------------

#: Ross Sea spatial extent used throughout the paper.
ROSS_SEA_LON_MIN = -180.0
ROSS_SEA_LON_MAX = -140.0
ROSS_SEA_LAT_MIN = -78.0
ROSS_SEA_LAT_MAX = -70.0

#: EPSG code of the Antarctic polar stereographic projection used to overlay
#: IS2 tracks on S2 images (paper Section III.A.3).
EPSG_ANTARCTIC_POLAR_STEREO = 3976

# ---------------------------------------------------------------------------
# ATL03 instrument characteristics (paper Section I)
# ---------------------------------------------------------------------------

#: Nominal ATL03 footprint diameter in metres.
ATL03_FOOTPRINT_M = 11.0

#: Nominal along-track photon spacing in metres for a strong beam.
ATL03_ALONG_TRACK_SPACING_M = 0.7

#: Number of strong beams used by the study.
N_STRONG_BEAMS = 3

#: Number of signal photons aggregated by the ATL07/ATL10 products.
ATL07_PHOTON_AGGREGATION = 150

# ---------------------------------------------------------------------------
# Resampling / sea-surface parameters (paper Sections III.A.2, III.D.1)
# ---------------------------------------------------------------------------

#: Along-track resampling window length in metres (the paper's 2 m sampling).
RESAMPLE_WINDOW_M = 2.0

#: Radius of the local sea-surface search window in metres (5 km).
SEA_SURFACE_WINDOW_RADIUS_M = 5_000.0

#: Full length of the local sea-surface window in metres (10 km).
SEA_SURFACE_WINDOW_LENGTH_M = 10_000.0

#: Sliding overlap between consecutive sea-surface windows in metres (5 km).
SEA_SURFACE_WINDOW_OVERLAP_M = 5_000.0

#: Maximum temporal separation between coincident IS2 and S2 acquisitions
#: accepted for auto-labeling, in minutes (the paper uses an 80 minute
#: window and Table I lists pairs below two hours).
MAX_COINCIDENT_MINUTES = 80.0

# ---------------------------------------------------------------------------
# Surface classes
# ---------------------------------------------------------------------------

#: Integer label of thick (snow-covered) sea ice.
CLASS_THICK_ICE = 0
#: Integer label of thin ice.
CLASS_THIN_ICE = 1
#: Integer label of open water.
CLASS_OPEN_WATER = 2
#: Sentinel value for unlabeled / invalid segments.
CLASS_UNLABELED = -1
#: Sentinel class of a Sentinel-2 pixel that a corridor segmentation did not
#: compute.  Every class lookup raises when it reads one.  It is the int8
#: minimum, apart from ``CLASS_UNLABELED``, which the drift kernels rank as
#: a class of its own.
CLASS_UNSEGMENTED = -128

#: Human readable names indexed by class id.
CLASS_NAMES = ("thick_ice", "thin_ice", "open_water")

#: Number of surface classes predicted by the models.
N_CLASSES = 3

# ---------------------------------------------------------------------------
# Model hyper-parameters (paper Sections III.B and IV.A)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainingConfig:
    """Hyper-parameters shared by the LSTM and MLP classifiers."""

    learning_rate: float = 0.003
    batch_size: int = 32
    epochs: int = 20
    dropout: float = 0.2
    focal_gamma: float = 2.0
    validation_fraction: float = 0.2
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.learning_rate:
            raise ValueError("learning_rate must be positive")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if self.epochs <= 0:
            raise ValueError("epochs must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        if not 0.0 < self.validation_fraction < 1.0:
            raise ValueError("validation_fraction must be in (0, 1)")


@dataclass(frozen=True)
class LSTMConfig:
    """Architecture of the paper's LSTM classifier.

    The paper uses an LSTM layer with 16 units and ELU activation over
    sequences of five neighbouring 2 m segments (n-2 .. n+2) with six
    features each, followed by seven dense layers of
    32, 96, 32, 16, 112, 48 and 64 units (ELU) and a three-way softmax
    output.
    """

    lstm_units: int = 16
    sequence_length: int = 5
    n_features: int = 6
    dense_units: tuple[int, ...] = (32, 96, 32, 16, 112, 48, 64)
    n_classes: int = N_CLASSES
    dropout: float = 0.2

    def __post_init__(self) -> None:
        if self.sequence_length % 2 != 1:
            raise ValueError("sequence_length must be odd so the centre segment is defined")
        if self.lstm_units <= 0 or self.n_features <= 0:
            raise ValueError("lstm_units and n_features must be positive")


@dataclass(frozen=True)
class MLPConfig:
    """Architecture of the paper's MLP classifier (32-unit dense, ReLU)."""

    hidden_units: tuple[int, ...] = (32,)
    n_features: int = 6
    n_classes: int = N_CLASSES
    dropout: float = 0.2


# ---------------------------------------------------------------------------
# Cluster / GPU configurations used for the scaling experiments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClusterConfig:
    """The scaling grid of the simulated Google Cloud Dataproc cluster.

    The paper's cluster is one master plus three Intel N2 Cascade Lake worker
    nodes with four cores each.  It reports scalability over ``executors``
    in {1, 2, 4} and ``cores`` per executor in {1, 2, 4}.
    """

    executor_grid: tuple[int, ...] = (1, 2, 4)
    cores_grid: tuple[int, ...] = (1, 2, 4)

    @property
    def grid(self) -> tuple[tuple[int, int], ...]:
        """Every ``(executors, cores)`` point, executors varying slowest."""
        return tuple((e, c) for e in self.executor_grid for c in self.cores_grid)


@dataclass(frozen=True)
class GPUClusterConfig:
    """The simulated DGX A100 node used for Table IV (up to eight GPUs)."""

    gpu_counts: tuple[int, ...] = (1, 2, 4, 6, 8)


@dataclass(frozen=True)
class SeaSurfaceConfig:
    """Parameters of the local sea-surface detection stage."""

    window_length_m: float = SEA_SURFACE_WINDOW_LENGTH_M
    window_overlap_m: float = SEA_SURFACE_WINDOW_OVERLAP_M
    min_open_water_segments: int = 3
    method: str = "nasa"

    def __post_init__(self) -> None:
        if self.window_overlap_m >= self.window_length_m:
            raise ValueError("window_overlap_m must be smaller than window_length_m")
        if self.min_open_water_segments < 1:
            raise ValueError("min_open_water_segments must be >= 1")


@dataclass(frozen=True)
class L3GridConfig:
    """Parameters of the Level-3 gridding stage (:mod:`repro.l3`).

    The grid extent defaults to the granule's scene extent: ``None`` for any
    of ``x_min_m``/``y_min_m``/``width_m``/``height_m`` means "take it from
    the scene config".  Campaigns mosaic many granules onto **one** grid, so
    fleets whose scenes vary in extent must pin the extent explicitly here.
    """

    cell_size_m: float = 1_000.0
    x_min_m: float | None = None
    y_min_m: float | None = None
    width_m: float | None = None
    height_m: float | None = None
    #: Cells with fewer contributing freeboard segments than this report NaN
    #: freeboard/thickness statistics (counts are always reported).
    min_segments: int = 1

    def __post_init__(self) -> None:
        if self.cell_size_m <= 0:
            raise ValueError("cell_size_m must be positive")
        if self.width_m is not None and self.width_m <= 0:
            raise ValueError("width_m must be positive when given")
        if self.height_m is not None and self.height_m <= 0:
            raise ValueError("height_m must be positive when given")
        if self.min_segments < 1:
            raise ValueError("min_segments must be >= 1")


@dataclass(frozen=True)
class RouterConfig:
    """Parameters of the service tier (:mod:`repro.serve.router`).

    Sizes the sharded catalog and sets when a failing shard is
    quarantined.  Nested inside
    :class:`ServeConfig` so the whole serving stack is one campaign-level
    config slice.
    """

    #: Number of catalog shards (each with its own engine and tile LRU).
    n_shards: int = 4
    #: Consecutive product-decode failures before a shard is quarantined.
    quarantine_errors: int = 3

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if self.quarantine_errors < 1:
            raise ValueError("quarantine_errors must be >= 1")


@dataclass(frozen=True)
class IngestConfig:
    """Parameters of the live-ingest tier (:mod:`repro.ingest`).

    Controls how :class:`repro.ingest.IngestService` folds newly arrived
    granules into a served campaign: whether per-granule products are
    written alongside the refreshed mosaic, and whether every online merge
    is cross-checked against a from-scratch batch mosaic (a debugging aid —
    the merge is bit-identical by construction, but the check is O(fleet)).
    Nested inside :class:`ServeConfig` so the whole serving stack remains
    one campaign-level config slice.
    """

    #: Base name (under the products directory) of the live mosaic product
    #: rewritten on every ingest.
    mosaic_name: str = "mosaic"
    #: Write a standalone Level-3 product for each ingested granule and
    #: register it in the catalog alongside the refreshed mosaic.
    write_granule_products: bool = True
    #: Debugging cross-check: after every merge, rebuild the batch mosaic
    #: from scratch and assert byte-identity.  O(fleet) per ingest.
    verify_merge: bool = False

    def __post_init__(self) -> None:
        if not self.mosaic_name:
            raise ValueError("mosaic_name must be a non-empty product name")


@dataclass(frozen=True)
class SloConfig:
    """Parameters of the SLO burn-rate evaluator (:mod:`repro.obs.slo`).

    The window geometry follows the Google-SRE multi-window multi-burn-rate
    recipe: a *fast* window that reacts to acute violations within minutes
    and a *slow* window that catches sustained low-grade burn.  Both are
    expressed in seconds of the pluggable clock, so `VirtualClock` tests
    exercise exact fire/resolve ticks without real sleeps.
    """

    #: Fast burn-rate window length in seconds (reacts to acute outages).
    fast_window_s: float = 300.0
    #: Slow burn-rate window length in seconds (catches sustained burn).
    slow_window_s: float = 3600.0
    #: Burn-rate threshold for the fast window (budget consumed this many
    #: times faster than sustainable fires the alert).
    fast_burn_threshold: float = 14.4
    #: Burn-rate threshold for the slow window.
    slow_burn_threshold: float = 6.0
    #: A pending alert must stay above threshold this long before firing.
    for_s: float = 0.0
    #: Hysteresis: a firing alert resolves only once the burn rate drops
    #: below ``threshold * resolve_fraction``.
    resolve_fraction: float = 0.5
    #: Maximum number of (time, bad, total) samples retained per window.
    max_samples: int = 4096

    def __post_init__(self) -> None:
        if self.fast_window_s <= 0 or self.slow_window_s <= 0:
            raise ValueError("SLO window lengths must be positive seconds")
        if self.fast_window_s >= self.slow_window_s:
            raise ValueError(
                "fast_window_s must be shorter than slow_window_s "
                f"(got {self.fast_window_s} >= {self.slow_window_s})"
            )
        if self.fast_burn_threshold <= 0 or self.slow_burn_threshold <= 0:
            raise ValueError("burn-rate thresholds must be positive")
        if self.for_s < 0:
            raise ValueError("for_s must be >= 0")
        if not 0 < self.resolve_fraction <= 1:
            raise ValueError("resolve_fraction must be in (0, 1]")
        if self.max_samples < 2:
            raise ValueError("max_samples must be >= 2 to form a window delta")


@dataclass(frozen=True)
class LogConfig:
    """Parameters of the structured event log (:mod:`repro.obs.log`).

    The log keeps a bounded in-memory ring (feeding the dashboard's
    "recent events" section) and optionally mirrors each record to a
    JSON-lines file sink.  Repeated identical events inside the dedup
    window are suppressed and surface as a single summary record, so an
    error loop cannot flood the ring or the sink.
    """

    #: Capacity of the in-memory ring of recent events.
    ring_size: int = 1024
    #: Suppress repeats of the same ``(level, event)`` pair observed
    #: within this many seconds; 0 disables dedup.
    dedup_window_s: float = 5.0
    #: Minimum severity recorded ("debug" | "info" | "warning" | "error").
    min_level: str = "debug"

    def __post_init__(self) -> None:
        if self.ring_size < 1:
            raise ValueError("ring_size must be >= 1")
        if self.dedup_window_s < 0:
            raise ValueError("dedup_window_s must be >= 0")
        if self.min_level not in ("debug", "info", "warning", "error"):
            raise ValueError(
                "min_level must be one of 'debug', 'info', 'warning', "
                f"'error', got {self.min_level!r}"
            )


@dataclass(frozen=True)
class ObsConfig:
    """Parameters of the telemetry subsystem (:mod:`repro.obs`).

    One process-local config slice selecting between the real metric
    registry / tracer pair and their no-op null twins.  Deliberately *not*
    nested inside :class:`ServeConfig` or the experiment configs:
    observability must never perturb content fingerprints, so whether a
    run was traced can never change what it computed.
    """

    #: Real instrumentation (``True``) or the no-op null implementation.
    enabled: bool = True
    #: Capacity of the tracer's span ring buffer; the oldest finished
    #: spans are dropped (and counted) once it fills.
    trace_buffer_size: int = 4096
    #: Default histogram bucket upper bounds, in seconds (Prometheus
    #: ``le`` semantics), used by latency histograms unless a metric names
    #: its own edges.  Must be strictly increasing.
    latency_buckets_s: tuple[float, ...] = (
        0.001,
        0.0025,
        0.005,
        0.01,
        0.025,
        0.05,
        0.1,
        0.25,
        0.5,
        1.0,
        2.5,
        5.0,
    )
    #: Burn-rate evaluator geometry (:class:`SloConfig`).
    slo: SloConfig = SloConfig()
    #: Structured event-log sizing and dedup (:class:`LogConfig`).
    log: LogConfig = LogConfig()

    def __post_init__(self) -> None:
        if self.trace_buffer_size < 1:
            raise ValueError(
                "trace_buffer_size must be >= 1 "
                f"(got {self.trace_buffer_size}); the tracer needs at least "
                "one ring slot to hold a finished span"
            )
        if not self.latency_buckets_s:
            raise ValueError(
                "latency_buckets_s must name at least one bucket edge; an "
                "empty histogram cannot bucket observations"
            )
        edges = tuple(float(e) for e in self.latency_buckets_s)
        bad = [e for e in edges if not math.isfinite(e)]
        if bad:
            raise ValueError(
                f"latency_buckets_s edges must be finite, got {bad}; an "
                "implicit +inf overflow bucket is always appended, do not "
                "list it explicitly"
            )
        if any(b <= a for a, b in zip(edges, edges[1:])):
            raise ValueError(
                "latency_buckets_s must be strictly increasing, got "
                f"{edges}; sort and deduplicate the edges"
            )
        object.__setattr__(self, "latency_buckets_s", edges)


@dataclass(frozen=True)
class ServeConfig:
    """Parameters of the product-serving layer (:mod:`repro.serve`).

    Controls both the tile-pyramid product (tile geometry, overview depth,
    count weighting) and the query engine's tile cache.  Like
    :class:`L3GridConfig` this is a campaign-level slice: one pyramid is
    built per fleet mosaic, and every query-engine instance serving that
    campaign shares the geometry.
    """

    #: Side length, in cells, of the square tiles served by the query engine
    #: (power-of-two overview levels reduce until the whole grid fits one tile).
    tile_size: int = 64
    #: Cap on the number of overview levels above the base grid; ``None``
    #: builds levels until the coarsest fits in a single tile.
    max_levels: int | None = None
    #: Count layer used as the reduction weight for non-freeboard variables
    #: (freeboard/thickness layers weight by ``n_freeboard_segments``).
    weight_variable: str = "n_segments"
    #: Capacity (in tiles) of each query engine's fingerprint-keyed LRU cache.
    #: The router runs one engine per shard, so a handle caches up to
    #: ``router.n_shards`` times this many tiles.
    tile_cache_size: int = 512
    #: Array-container layout for products the campaign/ingest tiers write:
    #: ``"npz"`` (zip archive, the classic default) or ``"raw"`` (flat blob
    #: with sidecar offsets — memory-mapped reads, single-tile decodes touch
    #: only the bytes they serve).  Readers auto-detect from the sidecar, so
    #: mixed-format catalogs are fine.
    product_format: str = "npz"
    #: The service tier built around the query engine
    #: (:class:`RouterConfig`: sharding, quarantine).
    router: RouterConfig = RouterConfig()
    #: The live-ingest tier that keeps served products fresh without a
    #: restart (:class:`IngestConfig`).
    ingest: IngestConfig = IngestConfig()

    def __post_init__(self) -> None:
        if self.tile_size < 1:
            raise ValueError("tile_size must be >= 1")
        if self.max_levels is not None and self.max_levels < 0:
            raise ValueError("max_levels must be >= 0 when given")
        if not self.weight_variable:
            raise ValueError("weight_variable must be a non-empty variable name")
        if self.tile_cache_size < 1:
            raise ValueError("tile_cache_size must be >= 1")
        if self.product_format not in ("npz", "raw"):
            raise ValueError(
                f"product_format must be 'npz' or 'raw', got {self.product_format!r}"
            )


# ---------------------------------------------------------------------------
# Campaign scenario presets
# ---------------------------------------------------------------------------

#: Season-like surface-composition presets used by the campaign scenario
#: grid (:mod:`repro.campaign`).  Each maps to the class-fraction fields of
#: :class:`repro.surface.scene.SceneConfig`; fractions sum to one.  The
#: ``spring`` preset matches the seed defaults of the paper's November 2019
#: Ross Sea setting; ``winter`` is consolidated pack ice with few leads;
#: ``freeze_up`` is a young, lead-rich marginal ice zone.
SEASON_PRESETS: dict[str, dict[str, float]] = {
    "winter": {
        "thick_ice_fraction": 0.86,
        "thin_ice_fraction": 0.11,
        "open_water_fraction": 0.03,
    },
    "spring": {
        "thick_ice_fraction": 0.72,
        "thin_ice_fraction": 0.18,
        "open_water_fraction": 0.10,
    },
    "freeze_up": {
        "thick_ice_fraction": 0.55,
        "thin_ice_fraction": 0.28,
        "open_water_fraction": 0.17,
    },
}


DEFAULT_TRAINING = TrainingConfig()
DEFAULT_LSTM = LSTMConfig()
DEFAULT_MLP = MLPConfig()
DEFAULT_CLUSTER = ClusterConfig()
DEFAULT_GPU_CLUSTER = GPUClusterConfig()
DEFAULT_SEA_SURFACE = SeaSurfaceConfig()
DEFAULT_L3_GRID = L3GridConfig()
DEFAULT_ROUTER = RouterConfig()
DEFAULT_INGEST = IngestConfig()
DEFAULT_SLO = SloConfig()
DEFAULT_LOG = LogConfig()
DEFAULT_OBS = ObsConfig()
DEFAULT_SERVE = ServeConfig()
