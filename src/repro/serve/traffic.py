"""Zipf-distributed traffic over the serving tier, with a scaling report.

Real map-tile traffic is heavy-tailed: a few popular regions take most of
the requests.  :class:`TrafficSimulator` reproduces that shape — it carves
the catalog's footprint into candidate regions, ranks them with a Zipf law
(``p(rank) ∝ rank^-s``), and mixes variables and zoom levels per the
configured request mix.  The heavy tail is exactly what makes the LRU tile
cache pay: the hot regions are served from memory while the cold tail does
the decoding.

:meth:`TrafficSimulator.run` drives a
:class:`~repro.serve.query.QueryEngine` closed-loop, in batches of
concurrent requests — the next batch is only submitted when the previous
one finishes.  Per-request latency is reported split into **queue wait**
(time spent behind earlier batches of the run) and **service** (the
request's own batch execution), because conflating the two hides queueing
collapse behind a flat "latency" number.

The scaling report (:func:`repro.evaluation.serve_scaling_table`) follows
the repo's simulated-cluster convention of Tables II/V: the *measured*
serving behaviour is routed through the calibrated
:class:`~repro.distributed.cluster.ClusterCostModel` to predict throughput
and latency across executor counts, with speedups referenced to the first
grid point.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.serve.query import QueryEngine, QueryStats, TileRequest, TileResponse


@dataclass(frozen=True)
class TrafficConfig:
    """Shape of one simulated traffic run (region mix, volume, batching)."""

    #: Total number of tile requests to issue.
    n_requests: int = 256
    #: Concurrent requests per batch (the engine batches decodes within one).
    batch_size: int = 16
    #: Number of candidate regions carved out of the catalog footprint.
    n_regions: int = 12
    #: Zipf exponent of the region popularity ranking (larger = hotter head).
    zipf_exponent: float = 1.1
    #: Linear size of each region as a fraction of the catalog extent.
    region_fraction: float = 0.3
    #: Variables in the request mix, with optional weights (uniform default).
    variables: tuple[str, ...] = ("freeboard_mean",)
    variable_weights: tuple[float, ...] | None = None
    #: Zoom levels in the request mix (clamped per product by the engine).
    zoom_levels: tuple[int, ...] = (0, 1)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_requests < 1:
            raise ValueError("n_requests must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.n_regions < 1:
            raise ValueError("n_regions must be >= 1")
        if self.zipf_exponent <= 0:
            raise ValueError("zipf_exponent must be positive")
        if not 0.0 < self.region_fraction <= 1.0:
            raise ValueError("region_fraction must be in (0, 1]")
        if not self.variables:
            raise ValueError("variables must name at least one layer")
        if self.variable_weights is not None and (
            len(self.variable_weights) != len(self.variables)
            or any(w < 0 for w in self.variable_weights)
            or sum(self.variable_weights) <= 0
        ):
            raise ValueError("variable_weights must align with variables and sum > 0")
        if not self.zoom_levels or any(z < 0 for z in self.zoom_levels):
            raise ValueError("zoom_levels must be non-empty and non-negative")


def _percentile_ms(values: np.ndarray, percentile: float | None) -> float:
    if values.size == 0:
        return 0.0
    if percentile is None:
        return float(values.mean() * 1e3)
    return float(np.percentile(values, percentile) * 1e3)


@dataclass
class TrafficResult:
    """Measured outcome of one closed-loop traffic run.

    Per-request time is reported **split**: ``service_s`` is the request's
    own batch execution time, ``queue_wait_s`` the time it spent waiting
    behind the run's earlier batches, and ``latencies_s`` their sum (the
    time-in-system a client would observe).  The split matters because a
    saturated engine shows flat service times while queue wait grows
    without bound — one conflated number hides that.

    ``stats`` is a frozen **per-run snapshot** (the difference of the
    engine's cumulative counters across the run), so reports never include
    traffic served before the run and never mutate retroactively when the
    engine keeps serving.
    """

    n_requests: int
    seconds: float
    latencies_s: np.ndarray
    stats: QueryStats
    region_counts: dict[int, int] = field(default_factory=dict)
    responses: list[TileResponse] = field(default_factory=list)
    queue_wait_s: np.ndarray = field(default_factory=lambda: np.empty(0))
    service_s: np.ndarray = field(default_factory=lambda: np.empty(0))

    @property
    def throughput_rps(self) -> float:
        return self.n_requests / self.seconds if self.seconds > 0 else float("inf")

    def latency_ms(self, percentile: float | None = None) -> float:
        """Mean time-in-system latency in ms, or a percentile when given."""
        return _percentile_ms(self.latencies_s, percentile)

    def service_ms(self, percentile: float | None = None) -> float:
        """Mean (or percentile) service time in ms — the batch execution."""
        return _percentile_ms(self.service_s, percentile)

    def queue_wait_ms(self, percentile: float | None = None) -> float:
        """Mean (or percentile) queue wait in ms — time behind earlier batches."""
        return _percentile_ms(self.queue_wait_s, percentile)

    def summary_row(self) -> dict[str, object]:
        """One table row: volume, throughput, latency split, cache behaviour."""
        return {
            "Requests": self.n_requests,
            "Serve Time (s)": round(self.seconds, 3),
            "Throughput (req/s)": round(self.throughput_rps, 1),
            "Mean Latency (ms)": round(self.latency_ms(), 2),
            "Mean Queue Wait (ms)": round(self.queue_wait_ms(), 2),
            "Mean Service (ms)": round(self.service_ms(), 2),
            "P95 Latency (ms)": round(self.latency_ms(95.0), 2),
            "Tile Hit Rate": round(self.stats.hit_rate, 3),
            "Product Loads": self.stats.loads,
        }


class TrafficSimulator:
    """Drive a query engine with a reproducible heavy-tailed request stream."""

    def __init__(self, engine: QueryEngine, config: TrafficConfig | None = None) -> None:
        self.engine = engine
        self.config = config if config is not None else TrafficConfig()

    # -- request generation ------------------------------------------------

    def regions(self) -> list[tuple[float, float, float, float]]:
        """Candidate region bboxes inside the catalog footprint, rank-ordered.

        Deterministic in the traffic seed: region 0 is the most popular.
        """
        cfg = self.config
        x_min, y_min, x_max, y_max = self.engine.catalog.extent()
        width = (x_max - x_min) * cfg.region_fraction
        height = (y_max - y_min) * cfg.region_fraction
        rng = np.random.default_rng(cfg.seed)
        boxes: list[tuple[float, float, float, float]] = []
        for _ in range(cfg.n_regions):
            x0 = float(rng.uniform(x_min, max(x_max - width, x_min)))
            y0 = float(rng.uniform(y_min, max(y_max - height, y_min)))
            boxes.append((x0, y0, x0 + width, y0 + height))
        return boxes

    def _stream(self) -> list[tuple[int, TileRequest]]:
        """The full ``(region rank, request)`` stream (Zipf x variable/zoom mix)."""
        cfg = self.config
        boxes = self.regions()
        ranks = np.arange(1, cfg.n_regions + 1, dtype=float)
        popularity = ranks**-cfg.zipf_exponent
        popularity /= popularity.sum()
        weights = None
        if cfg.variable_weights is not None:
            weights = np.asarray(cfg.variable_weights, dtype=float)
            weights = weights / weights.sum()
        rng = np.random.default_rng(cfg.seed + 1)
        n = cfg.n_requests
        region_ids = rng.choice(cfg.n_regions, size=n, p=popularity)
        variables = rng.choice(np.asarray(cfg.variables, dtype=object), size=n, p=weights)
        zooms = rng.choice(np.asarray(cfg.zoom_levels), size=n)
        return [
            (int(rid), TileRequest(bbox=boxes[int(rid)], variable=str(var), zoom=int(zoom)))
            for rid, var, zoom in zip(region_ids, variables, zooms)
        ]

    def generate(self) -> list[TileRequest]:
        """The full request stream (Zipf regions x variable/zoom mix)."""
        return [request for _, request in self._stream()]

    # -- execution ---------------------------------------------------------

    def run(self, keep_responses: bool = False) -> TrafficResult:
        """Issue the stream in batches and measure the serving behaviour.

        In the closed loop every request of batch *k* queues behind batches
        ``0..k-1``: its queue wait is the cumulative execution time of the
        earlier batches, its service time the execution of its own batch,
        and its reported latency their sum.
        """
        cfg = self.config
        stream = self._stream()
        before = replace(self.engine.stats)

        latencies: list[float] = []
        queue_waits: list[float] = []
        services: list[float] = []
        responses: list[TileResponse] = []
        region_counts: dict[int, int] = {}
        total = 0.0
        for start in range(0, len(stream), cfg.batch_size):
            chunk = stream[start : start + cfg.batch_size]
            batch_responses = self.engine.query_batch([req for _, req in chunk])
            waited = total
            batch_s = batch_responses[0].seconds if batch_responses else 0.0
            total += batch_s
            for (rank, _), response in zip(chunk, batch_responses):
                queue_waits.append(waited)
                services.append(response.seconds)
                latencies.append(waited + response.seconds)
                region_counts[rank] = region_counts.get(rank, 0) + 1
            if keep_responses:
                responses.extend(batch_responses)
        after = self.engine.stats
        run_stats = QueryStats(
            requests=after.requests - before.requests,
            batches=after.batches - before.batches,
            tile_hits=after.tile_hits - before.tile_hits,
            tile_misses=after.tile_misses - before.tile_misses,
            loads=after.loads - before.loads,
            seconds=after.seconds - before.seconds,
        )
        return TrafficResult(
            n_requests=len(stream),
            seconds=total,
            latencies_s=np.asarray(latencies),
            stats=run_stats,
            region_counts=dict(sorted(region_counts.items())),
            responses=responses,
            queue_wait_s=np.asarray(queue_waits),
            service_s=np.asarray(services),
        )
