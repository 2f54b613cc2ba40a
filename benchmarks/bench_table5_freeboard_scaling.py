"""Benchmark / regeneration of Table V: scaled freeboard computation.

Mirrors the Table II benchmark for the freeboard map-reduce job: the real
job is executed and verified against the serial reference, and the calibrated
cluster model regenerates the shape of the paper's Table V.  At 4 executors x
4 cores it gives 8.99x load and 16.96x reduce speedups, the same as for
Table II (the model's speedups do not depend on the baseline); the paper
reports 8.54x and 15.68x.
"""

import numpy as np
from conftest import write_result

from repro.distributed.mapreduce import MapReduceEngine
from repro.distributed.speedup import SpeedupTable
from repro.evaluation.report import format_table
from repro.evaluation.tables import regenerate_table5
from repro.freeboard.freeboard import compute_freeboard
from repro.freeboard.parallel import parallel_freeboard


def test_table5_freeboard_mapreduce(benchmark, pipeline_outputs):
    """Time the map-reduce freeboard job on the classified 2 m segments."""
    name = sorted(pipeline_outputs.classified)[0]
    track = pipeline_outputs.classified[name]
    engine = MapReduceEngine(n_partitions=16, executor="serial")

    result, _ = benchmark(parallel_freeboard, track.segments, track.labels, engine)

    serial = compute_freeboard(track.segments, track.labels)
    np.testing.assert_allclose(result.freeboard_m, serial.freeboard_m, atol=1e-12)

    sweep = SpeedupTable("freeboard partitions")
    for executors, cores in ((1, 1), (1, 4), (2, 4), (4, 4)):
        slots = executors * cores
        engine = MapReduceEngine(n_partitions=slots, executor="serial")
        _, mr = parallel_freeboard(track.segments, track.labels, engine)
        sweep.add(f"{executors}x{cores}", slots, max(mr.total_seconds, 1e-6))

    rows = regenerate_table5()
    text = "\n\n".join(
        [
            format_table(rows, "Table V: PySpark-style IS2 freeboard computation scalability (modelled)"),
            format_table(sweep.rows(), "Measured in-process map-reduce sweep (single CPU)"),
        ]
    )
    write_result("table5_freeboard_scaling", text)
    print("\n" + text)

    assert rows[-1]["Speedup Load"] > 7.5
    assert rows[-1]["Speedup Reduce"] > 14.0
