#!/usr/bin/env python3
"""End-to-end benchmark of the sea-ice data path: fleets, re-runs, serving.

Run from the repository root::

    python3 e2ebench/run.py --workload fleet_cold --seed 1 --seconds 35 --trace 0
    python3 e2ebench/run.py --workload all --seed 1       # every workload

One run sets the workload up several times (the median is ``setup_s``),
repeats its operation for ``--seconds``, checks the outputs, and prints a
table of metrics followed by one JSON line::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, from untraced
operations.  With ``--trace 1`` every second operation of each kind runs with
the layer wrappers of ``layertrace.py`` installed, and the metrics are the
per-layer ones plus ``trace_overhead`` (traced over untraced median).  The
exit code is non-zero when an operation or an output check failed.

Reported times are scaled to a reference host speed by the yardstick of
``yardstick.py``, timed between steps; the table also prints them as
measured (``raw_*``).

All files go to a private directory under ``.e2ebench-tmp/`` in the
repository root, which is deleted on exit.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

ROOT = Path(__file__).resolve().parent.parent
TMP_ROOT = ROOT / ".e2ebench-tmp"

#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Free disk space a run needs: a cold fleet writes ~450 MB of cache and a
#: sea-surface re-run ~170 MB, each deleted before the next operation.
MIN_FREE_BYTES = 2 * 1024**3

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "write_mb": "MB",
    "peak_rss_mb": "MB",
}
#: Printed in the table but not in the JSON: raw times, the yardstick, and
#: ingest latency (only ``serve_live`` ingests).
TABLE_ONLY_UNITS = {
    "raw_setup_s": "s",
    "raw_op_p50_ms": "ms",
    "raw_op_p90_ms": "ms",
    "yardstick_ms": "ms",
    "ingest_p50_ms": "ms",
}

#: The workload's own name for a metric in the table: alias -> (metric, unit).
ALIASES = {
    "fleet_cold": {"fleet_s": ("op_p50_ms", "s"), "cache_mb": ("write_mb", "MB")},
    "fleet_rerun": {"rerun_s": ("op_p50_ms", "s"), "cache_mb": ("write_mb", "MB")},
    "serve_live": {
        "view_p50_ms": ("op_p50_ms", "ms"),
        "view_p90_ms": ("op_p90_ms", "ms"),
    },
}


def percentile(values: list[float], q: float) -> float:
    """The ``q``-th percentile, linearly interpolated (as numpy's default)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


class Ops:
    """``ops(kind)``: time one operation, tracing every second one per kind."""

    def __init__(self, tracer, traced_kinds: tuple[str, ...]) -> None:
        self.tracer = tracer
        self.traced_kinds = traced_kinds
        self._count: dict[str, int] = defaultdict(int)
        self.untraced: dict[str, list] = defaultdict(list)
        self.traced: dict[str, list] = defaultdict(list)

    @contextmanager
    def __call__(self, kind: str) -> Iterator:
        traced = kind in self.traced_kinds and self._count[kind] % 2 == 1
        self._count[kind] += 1
        with self.tracer.op(traced) as timing:
            yield timing
        (self.traced if traced else self.untraced)[kind].append(timing)


def median(values: list[float]) -> float:
    """Median, or 0 for a run whose every operation failed."""
    return statistics.median(values) if values else 0.0


def tail_p90(walls: list[float], block: int | None) -> float:
    """90th percentile of ``walls``; with ``block``, the median of the p90s of
    consecutive ``block``-operation stretches (the whole run if shorter).

    Per-block p90s keep a few seconds of host contention from setting the
    run's tail, while each block's p90 is still a tail latency.
    """
    if block is None or len(walls) < block:
        return percentile(walls, 90)
    blocks = [walls[i : i + block] for i in range(0, len(walls) - block + 1, block)]
    return median([percentile(b, 90) for b in blocks])


def times(setup: list[float], walls: list[float], p90_block: int | None) -> dict:
    """The timed end-to-end metrics, from set-up and operation seconds."""
    return {
        "setup_s": (median(setup), len(setup)),
        "op_p50_ms": (median(walls) * 1e3, len(walls)),
        "op_p90_ms": (tail_p90(walls, p90_block) * 1e3, len(walls)),
    }


def end_to_end(
    workload, ops: Ops, setup: list[tuple[float, float]], peak_rss_mb: float, yard
) -> dict[str, tuple[float, int]]:
    """End-to-end metric -> (value, sample count).

    ``setup`` holds each set-up's (start, end).  Times are at the
    yardstick's reference host speed; the ``raw_`` ones, printed in the
    table only, are as measured.
    """
    timings = ops.untraced[workload.primary]
    raw_setup = [end - start for start, end in setup]
    raw_walls = [t.wall_s for t in timings]
    values = times(
        [(end - start) * yard.scale(start, end) for start, end in setup],
        [t.wall_s * yard.scale(t.start_s, t.start_s + t.wall_s) for t in timings],
        workload.p90_block,
    )
    write = workload.samples["write"]
    values["write_mb"] = (median(write) / 1e6, len(write))
    values["peak_rss_mb"] = (peak_rss_mb, 1)
    raw = times(raw_setup, raw_walls, workload.p90_block)
    values.update({f"raw_{name}": value for name, value in raw.items()})
    values["yardstick_ms"] = (yard.median_s() * 1e3, len(yard.samples))
    if "ingest" in workload.samples:
        ingest = workload.samples["ingest"]
        values["ingest_p50_ms"] = (median(ingest) * 1e3, len(ingest))
    return values


def per_layer(workload, ops: Ops) -> dict[str, float]:
    """Per-layer metrics of a traced run, plus the public-result counters."""
    tracer = ops.tracer
    n_traced = len(ops.traced[workload.primary])
    out = tracer.layer_metrics(n_traced)
    c = workload.counters
    lookups = c.get("stage_lookups", 0)
    out["pipeline.stage_hit_ratio"] = c.get("stage_hits", 0) / lookups if lookups else 0.0
    out["pipeline.stage_tier_mb"] = c.get("stage_tier_bytes", 0) / 1e6
    out["campaign.result_tier_mb"] = c.get("result_tier_bytes", 0) / 1e6

    base = ops.untraced[workload.primary]
    wall = sum(t.wall_s for t in base)
    driver = sum(t.driver_cpu_s for t in base)
    worker = sum(t.worker_cpu_s for t in base)
    n = max(len(base), 1)
    out["distributed.run_s"] = tracer.inclusive_s("distributed", n_traced)
    out["distributed.driver_cpu_s"] = driver / n
    out["distributed.worker_cpu_s"] = worker / n
    out["distributed.cpu_util"] = (driver + worker) / wall if wall > 0 else 0.0

    tiles = c.get("tile_hits", 0) + c.get("tile_misses", 0)
    views = max(c.get("views", 0), 1)
    ingests = max(c.get("ingests", 0), 1)
    out["serve.tile_hit_ratio"] = c.get("tile_hits", 0) / tiles if tiles else 0.0
    out["serve.decodes"] = c.get("decodes", 0) / views
    for key in ("shed", "coalesced", "errors"):
        out[f"serve.{key}"] = c.get(key, 0) / views
    out["ingest.dirty_cells"] = c.get("dirty_cells", 0) / ingests
    out["ingest.rebuilt_tiles"] = c.get("rebuilt_tiles", 0) / ingests
    out["ingest.invalidated"] = c.get("invalidated", 0) / ingests

    traced = [t.wall_s for t in ops.traced[workload.primary]]
    untraced = [t.wall_s for t in base]
    out["trace_overhead"] = median(traced) / median(untraced) if untraced else 0.0
    return out


def layer_unit(name: str) -> str:
    """Unit of one per-layer metric, from its name."""
    layer, _, metric = name.partition(".")
    if metric == "calls":
        return "1/op"
    if metric.endswith("_s"):
        return "s/op"
    if metric.endswith("_mb"):
        return "MB/op"
    if metric == "cpu_util":
        return "cpu_s/s"
    if layer == "serve" and metric != "tile_hit_ratio":
        return "1/view"
    if layer == "ingest":
        return "1/ingest"
    return "ratio"


def release_free_memory() -> None:
    """Return memory that glibc's malloc holds but no object uses to the OS.

    Set-up frees hundreds of MB that the allocator would otherwise keep
    resident; without this the measured peak is mostly set-up leftovers.
    The allocator's settings are left as they are.
    """
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (OSError, AttributeError):
        pass  # not glibc


def reset_peak_rss() -> None:
    """Restart the process's peak resident set (``VmHWM``) from its current size."""
    with open("/proc/self/clear_refs", "w") as f:
        f.write("5")


def peak_rss_mb() -> float:
    """The process's peak resident set since the last :func:`reset_peak_rss`."""
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM line in /proc/self/status")


def run_workload(args: argparse.Namespace) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import layertrace
    import yardstick
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
        return 2
    TMP_ROOT.mkdir(exist_ok=True)
    free = shutil.disk_usage(TMP_ROOT).free
    if free < MIN_FREE_BYTES:
        print(f"only {free / 1e9:.1f} GB free; the benchmark needs {MIN_FREE_BYTES / 1e9:.1f}")
        return 2
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=TMP_ROOT))
    # Anything the program puts in a temp directory stays inside the checkout.
    os.environ["TMPDIR"] = str(scratch)
    tempfile.tempdir = None
    try:
        return _measure(args, WORKLOADS[args.workload], layertrace, yardstick, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass


def _measure(args, workload_cls, layertrace, yardstick, scratch: Path) -> int:
    workload = workload_cls(args.seed)
    tracer = layertrace.LayerTracer()
    ops = Ops(tracer, workload.traced_kinds if args.trace else ())
    yard = yardstick.Yardstick()
    setup: list[tuple[float, float]] = []
    try:
        for repeat in range(SETUP_REPEATS):
            workload.teardown()
            gc.collect()
            yard.sample(force=True)
            start = time.perf_counter()
            workload.setup(scratch / f"setup{repeat}")
            setup.append((start, time.perf_counter()))
        yard.sample(force=True)

        # Peak memory counts the measured steps only, not set-up or checks.
        gc.collect()
        release_free_memory()
        reset_peak_rss()
        deadline = time.perf_counter() + args.seconds
        steps = 0
        # Past the deadline, keep going only until every metric has a sample.
        while steps < workload.max_steps and (
            time.perf_counter() < deadline
            or (not workload.ready() and not workload.failed_ops)
        ):
            if workload.collect_between_steps:
                gc.collect()
            yard.sample()
            workload.step(ops)
            steps += 1
        peak_mb = peak_rss_mb()
        yard.sample(force=True)
        failures = workload.check()
    finally:
        workload.teardown()
        _stop_resource_tracker()

    for message in failures:
        print(f"CHECK FAILED: {message}")
    failed = workload.failed_ops + len(failures)
    attempted = max(workload.attempted, 1)
    print(f"workload {workload.name}: {workload.why}")
    print(f"  stresses: {', '.join(workload.stresses)}")
    print(f"  bypasses: {', '.join(workload.bypasses)}")
    print(f"  {'fail_ratio':<28} {failed / attempted:>12.4f} {'fraction':<9} n={attempted}")

    if args.trace:
        metrics = per_layer(workload, ops)
        units = {name: layer_unit(name) for name in metrics}
        n_traced = len(ops.traced[workload.primary])
        wall = tracer.totals.wall_s / max(n_traced, 1)
        if wall > 0:
            campaign = metrics["campaign.self_s"] / wall
            print(
                f"  traced {workload.primary} ops: {n_traced}, {wall:.4f} s each; layers "
                f"other than campaign: {1 - metrics['trace.unattributed_share'] - campaign:.1%}"
            )
        for name, value in metrics.items():
            print(f"  {name:<28} {value:>12.6g} {units[name]}")
    else:
        values = end_to_end(workload, ops, setup, peak_mb, yard)
        units = END_TO_END_UNITS
        metrics = {name: value for name, (value, _) in values.items() if name in units}
        for name, (value, n) in values.items():
            unit = {**units, **TABLE_ONLY_UNITS}[name]
            print(f"  {name:<28} {value:>12.6g} {unit:<9} n={n}")
        for alias, (source, unit) in ALIASES[workload.name].items():
            value, n = values[source]
            value = value / 1e3 if unit == "s" else value
            print(f"  {alias:<28} {value:>12.6g} {unit:<9} n={n}  (= {source})")

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(value), "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def _stop_resource_tracker() -> None:
    """Stop (and wait for) the shared-memory resource tracker, if started."""
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    stop = getattr(tracker, "_stop", None)
    if stop is not None and getattr(tracker, "_pid", None) is not None:
        stop()


def run_all(args: argparse.Namespace) -> int:
    """Every workload, each in its own process; one combined JSON line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in ("fleet_cold", "fleet_rerun", "serve_live"):
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        status = status or proc.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            combined["correct"] = False
            status = status or 1
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
