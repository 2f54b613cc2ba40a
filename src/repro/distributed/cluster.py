"""Simulated Dataproc-style cluster with a calibrated scaling cost model.

The paper measures its PySpark stages on a four-node Google Cloud Dataproc
cluster, sweeping 1-4 executors with 1-4 cores each (Tables II and V).  This
container has a single CPU, so those wall-clock numbers cannot be measured
directly; instead the cluster is *simulated*: a :class:`ClusterCostModel`
extrapolates each ``(executors, cores)`` configuration from single-slot
load and reduce baselines (the paper's own 1x1 times, or times measured
with the serial executor of
:class:`~repro.distributed.mapreduce.MapReduceEngine`).

The cost model is the standard shared-nothing map-reduce model:

* *load* is dominated by reading and deserialising partitions in parallel
  but keeps a small serial fraction (driver-side listing/scheduling), so it
  follows Amdahl's law with ``load_serial_fraction``;
* *map* is a tiny constant scheduling overhead (the paper's map column is
  0.2-0.4 s regardless of configuration);
* *reduce* (where the per-record work lives in the paper's jobs) is almost
  perfectly parallel across ``executors * cores`` slots, with a small
  additional per-executor benefit (separate nodes bring their own memory
  bandwidth) captured by ``executor_bandwidth_benefit``.

The defaults were calibrated to the paper's Table II.  At 4 executors x 4
cores they give 8.99x load and 16.96x reduce speedups; the paper reports
9.0x and 16.25x (Table II) and 8.54x and 15.68x (Table V).  The model's
speedups do not depend on the baseline, so one set of defaults gives the
same 8.99x / 16.96x for both tables and cannot match both.

:func:`scaling_table` is the one way from the model to a scaling table:
every table (Tables II/V and the campaign report) is a list
of named :class:`Phase` objects, each scaled by its profile over a grid of
``(executors, cores)`` points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.config import DEFAULT_CLUSTER


@dataclass(frozen=True)
class ClusterCostModel:
    """Analytic cost model for one map-reduce stage on the simulated cluster."""

    load_serial_fraction: float = 0.052
    reduce_serial_fraction: float = 0.0
    executor_bandwidth_benefit: float = 0.02
    map_overhead_s: float = 0.3
    min_time_s: float = 1e-3

    def __post_init__(self) -> None:
        for name in ("load_serial_fraction", "reduce_serial_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.executor_bandwidth_benefit < 0:
            raise ValueError("executor_bandwidth_benefit must be non-negative")
        if self.map_overhead_s < 0:
            raise ValueError("map_overhead_s must be non-negative")

    def load_time(self, baseline_s: float, executors: int, cores: int) -> float:
        """Predicted load time for a configuration, given the 1x1 baseline."""
        self._check(executors, cores)
        slots = executors * cores
        serial = self.load_serial_fraction * baseline_s
        parallel = (1.0 - self.load_serial_fraction) * baseline_s / slots
        return max(serial + parallel, self.min_time_s)

    def map_time(self, executors: int, cores: int) -> float:
        """Predicted map (scheduling) time — effectively constant."""
        self._check(executors, cores)
        return self.map_overhead_s

    def reduce_time(self, baseline_s: float, executors: int, cores: int) -> float:
        """Predicted reduce time for a configuration, given the 1x1 baseline."""
        self._check(executors, cores)
        slots = executors * cores
        bandwidth = 1.0 + self.executor_bandwidth_benefit * (executors - 1)
        serial = self.reduce_serial_fraction * baseline_s
        parallel = (1.0 - self.reduce_serial_fraction) * baseline_s / (slots * bandwidth)
        return max(serial + parallel, self.min_time_s)

    @staticmethod
    def _check(executors: int, cores: int) -> None:
        if executors <= 0 or cores <= 0:
            raise ValueError("executors and cores must be positive")


#: How a phase's time scales with the configuration: the model's ``load``
#: (Amdahl), ``reduce`` (near-linear) or ``map`` (constant scheduling
#: overhead; the baseline is unused) profile, or ``fixed`` (the baseline
#: itself, e.g. work that stays on the driver).
PROFILES = ("load", "map", "reduce", "fixed")


@dataclass(frozen=True)
class Phase:
    """One named phase of a scaled job: its single-slot baseline and profile."""

    name: str
    baseline_s: float
    profile: str

    def __post_init__(self) -> None:
        if self.profile not in PROFILES:
            raise ValueError(f"profile must be one of {PROFILES}, got {self.profile!r}")


@dataclass(frozen=True)
class ScalingRow:
    """One grid point of a scaling table.

    ``times_s`` holds each phase's time and ``total_s`` their sum.  The
    speedups, per phase in ``speedups`` and for the total in ``speedup``,
    are against the first grid point.
    """

    executors: int
    cores: int
    times_s: dict[str, float]
    total_s: float
    speedups: dict[str, float]
    speedup: float


def _ratio(reference: float, value: float) -> float:
    # A phase that takes no time at any point (a zero map overhead, an empty
    # fixed phase) takes none at the reference either: it does not scale.
    return reference / value if value else 1.0


def scaling_table(
    cost_model: ClusterCostModel,
    phases: Sequence[Phase],
    grid: Sequence[tuple[int, int]],
) -> list[ScalingRow]:
    """Scale ``phases`` over ``grid`` with ``cost_model``, one row per point.

    Each phase's time is its profile's prediction at the point; ``load`` and
    ``reduce`` baselines below the model's ``min_time_s`` are raised to it.
    The total sums the phases in their given order.
    """
    if not grid:
        raise ValueError("grid must hold at least one (executors, cores) point")
    points = []
    for executors, cores in grid:
        times: dict[str, float] = {}
        total = 0.0
        for phase in phases:
            baseline = max(phase.baseline_s, cost_model.min_time_s)
            if phase.profile == "load":
                t = cost_model.load_time(baseline, executors, cores)
            elif phase.profile == "reduce":
                t = cost_model.reduce_time(baseline, executors, cores)
            elif phase.profile == "map":
                t = cost_model.map_time(executors, cores)
            else:
                t = phase.baseline_s
            times[phase.name] = t
            total += t
        points.append((executors, cores, times, total))
    _, _, ref_times, ref_total = points[0]
    return [
        ScalingRow(
            executors=executors,
            cores=cores,
            times_s=times,
            total_s=total,
            speedups={name: _ratio(ref_times[name], t) for name, t in times.items()},
            speedup=_ratio(ref_total, total),
        )
        for executors, cores, times, total in points
    ]


class ClusterSimulation:
    """Predict the Table II/V scaling from single-slot baselines."""

    def __init__(self, cost_model: ClusterCostModel | None = None) -> None:
        self.cost_model = cost_model if cost_model is not None else ClusterCostModel()

    def scaling_table(self, baseline_load_s: float, baseline_reduce_s: float) -> list[ScalingRow]:
        """Predicted load, map and reduce times over the paper's cluster grid.

        ``baseline_load_s`` and ``baseline_reduce_s`` are the single-slot
        times, e.g. the paper's own 1x1 values when regenerating the exact
        tables.
        """
        if baseline_load_s <= 0 or baseline_reduce_s <= 0:
            raise ValueError("baseline times must be positive")
        phases = (
            Phase("load", baseline_load_s, "load"),
            Phase("map", 0.0, "map"),
            Phase("reduce", baseline_reduce_s, "reduce"),
        )
        return scaling_table(self.cost_model, phases, DEFAULT_CLUSTER.grid)
