"""Benchmark / regeneration of Table II: scaled IS2 auto-labeling.

Two parts:

1. the *real* map-reduce auto-labeling job is executed and timed with the
   in-process engine over the (executors x cores) slot counts of the paper's
   grid — this verifies correctness and gives measured per-slot timings on
   this machine;
2. the calibrated cluster cost model regenerates the paper's Table II shape
   (load/map/reduce seconds) anchored on the paper's single-slot baselines.
   At 4 executors x 4 cores it gives 8.99x load and 16.96x reduce speedups;
   the paper reports 9.0x and 16.25x.
"""

import numpy as np
from conftest import write_result

from repro.distributed.mapreduce import MapReduceEngine
from repro.distributed.speedup import SpeedupTable
from repro.evaluation.report import format_table
from repro.evaluation.tables import regenerate_table2
from repro.labeling.autolabel import auto_label_segments
from repro.labeling.parallel import parallel_autolabel


def _first_beam_segments(data):
    name = sorted(data.segments)[0]
    return data.segments[name]


def test_table2_autolabel_mapreduce(benchmark, experiment_data):
    """Time the map-reduce auto-labeling job (16 partitions, the 4x4 grid point)."""
    segments = _first_beam_segments(experiment_data)
    engine = MapReduceEngine(n_partitions=16, executor="serial")

    result, _ = benchmark(
        parallel_autolabel, segments, experiment_data.image, experiment_data.segmentation, engine
    )

    # Correctness: identical to the serial reference.
    serial = auto_label_segments(segments, experiment_data.image, experiment_data.segmentation)
    np.testing.assert_array_equal(result.labels, serial.labels)

    # Measured slot sweep on this machine (single CPU: times are flat; the
    # cost model below supplies the multi-node extrapolation).
    sweep = SpeedupTable("autolabel partitions")
    for executors, cores in ((1, 1), (1, 2), (1, 4), (2, 2), (2, 4), (4, 4)):
        slots = executors * cores
        engine = MapReduceEngine(n_partitions=slots, executor="serial")
        _, mr = parallel_autolabel(
            segments, experiment_data.image, experiment_data.segmentation, engine
        )
        sweep.add(f"{executors}x{cores}", slots, max(mr.total_seconds, 1e-6))

    rows = regenerate_table2()
    text = "\n\n".join(
        [
            format_table(rows, "Table II: PySpark-style IS2 auto-labeling scalability (modelled)"),
            format_table(sweep.rows(), "Measured in-process map-reduce sweep (single CPU)"),
        ]
    )
    write_result("table2_autolabel_scaling", text)
    print("\n" + text)

    # Shape assertions matching the paper.
    assert rows[-1]["Speedup Load"] > 8.0
    assert rows[-1]["Speedup Reduce"] > 14.0
