"""Parallel and distributed substrates.

Replaces the paper's two scaling technologies with purpose-built equivalents:

* :mod:`repro.distributed.mapreduce` — a mini map-reduce engine (the PySpark
  replacement): deterministic partitioning, serial/threaded/process
  executors, and per-stage load/map/reduce timing.
* :mod:`repro.distributed.shm` — shared-memory array transport for the
  process executor: one :class:`SharedArrayStore` segment per large task
  array, lightweight descriptors, and read-only worker-side views.
* :mod:`repro.distributed.cluster` — a simulated Google-Cloud-Dataproc-style
  cluster with a calibrated cost model, and :func:`scaling_table`, the one
  function that scales named phases over an executor/core grid (Tables II
  and V, the campaign report and the serving tables).
* :mod:`repro.distributed.allreduce` — the ring all-reduce algorithm Horovod
  uses for gradient averaging, implemented over in-process "ranks".
* :mod:`repro.distributed.ddp` — synchronous data-parallel training
  (the Horovod replacement) with per-rank shards, gradient all-reduce,
  rank-0 weight broadcast, and a DGX-A100-calibrated timing model for the
  multi-GPU speedup experiments (Table IV / Fig. 5).
* :mod:`repro.distributed.speedup` — speedup/efficiency bookkeeping and
  Amdahl/Gustafson reference curves used by the benchmarks.
"""

from repro.distributed.mapreduce import MapReduceEngine, MapReduceResult, partition_indices
from repro.distributed.shm import ArrayDescriptor, SharedArrayStore, attach_view, dumps_shared
from repro.distributed.cluster import (
    ClusterCostModel,
    ClusterSimulation,
    Phase,
    ScalingRow,
    scaling_table,
)
from repro.distributed.allreduce import ring_allreduce, ring_allreduce_average, tree_allreduce
from repro.distributed.ddp import DistributedTrainer, DDPTimingModel, GpuScalingRow
from repro.distributed.speedup import SpeedupTable, amdahl_speedup, gustafson_speedup, parallel_efficiency

__all__ = [
    "MapReduceEngine",
    "MapReduceResult",
    "partition_indices",
    "ArrayDescriptor",
    "SharedArrayStore",
    "attach_view",
    "dumps_shared",
    "ClusterCostModel",
    "ClusterSimulation",
    "Phase",
    "ScalingRow",
    "scaling_table",
    "ring_allreduce",
    "ring_allreduce_average",
    "tree_allreduce",
    "DistributedTrainer",
    "DDPTimingModel",
    "GpuScalingRow",
    "SpeedupTable",
    "amdahl_speedup",
    "gustafson_speedup",
    "parallel_efficiency",
]
