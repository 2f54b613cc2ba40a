#!/usr/bin/env python
"""Perf-regression gate for CI: one table of ratio gates over one benchmark run.

Reads the pytest-benchmark ``--benchmark-json`` file of the seven gated suites
(``benchmarks/bench_kernels.py``, ``bench_l3_gridding.py``, ``bench_pyramid.py``,
``bench_router.py``, ``bench_ingest.py``, ``bench_zero_copy.py`` and
``bench_obs.py``) and checks every row of ``GATES``.  A row names two
benchmarks; its value is the ratio of their per-round *minimum* times (the
least noisy statistic on shared CI runners), so the gate does not depend on
how fast the CI machine happens to be.  A row without a denominator holds the
numerator's absolute seconds instead: the hot router's generous 0.25 s
ceiling, the backstop for cache-path regressions that slow the cold and hot
runs together.

A row fails when its value

* falls below its ``floor`` (an acceptance criterion, e.g. >= 3x for the
  vectorized kernels),
* rises above its ``ceiling`` (telemetry may cost at most 5 % of a hot path),
* falls more than ``tolerance`` below its committed ratio in
  ``benchmarks/results/kernel_baselines.json``, or
* has a committed ratio but was not measured in this run.

The near-parity kernels (``lstm_forward``, ``lstm_backward``,
``random_field``: committed ratios under 2x) carry no tolerance, because
run-to-run BLAS and scheduling noise on a ~1x ratio exceeds any tight
percentage; only their floors hold them.  Every ratio row keeps one baseline
schema: ``numerator_s``, ``denominator_s`` and ``ratio``.

Usage::

    python -m pytest benchmarks/bench_kernels.py benchmarks/bench_l3_gridding.py \\
        benchmarks/bench_pyramid.py benchmarks/bench_router.py \\
        benchmarks/bench_ingest.py benchmarks/bench_zero_copy.py \\
        benchmarks/bench_obs.py -q --benchmark-json=bench.json
    python benchmarks/check_regression.py bench.json
    python benchmarks/check_regression.py bench.json --update   # refresh baselines

``--update`` rewrites the baselines only from a run that measured every gate.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import NamedTuple

DEFAULT_BASELINE = Path(__file__).resolve().parent / "results" / "kernel_baselines.json"


class Gate(NamedTuple):
    name: str
    numerator: str
    #: ``None`` gates the numerator's absolute seconds instead of a ratio.
    denominator: str | None
    floor: float | None = None
    ceiling: float | None = None
    #: Allowed fractional drop below the committed ratio.
    tolerance: float | None = None


def _kernel(name: str, floor: float | None = None, tolerance: float | None = 0.25) -> Gate:
    return Gate(name, f"{name}_reference", f"{name}_vectorized", floor, tolerance=tolerance)


BACKENDS = ("reference", "vectorized")

GATES = (
    # Vectorized speedups over the reference kernels.  The cold router and npz
    # decode runs are decode + pyramid bound, so they are kernel speedups too.
    *(
        _kernel(k, floor=3.0)
        for k in (
            "sea_surface_nasa",
            "confidence_binning",
            "l3_gridding",
            "pyramid_reduce",
            "drift",
            "resample",
        )
    ),
    _kernel("router_cold"),
    _kernel("zero_copy_decode_npz"),
    # Near parity: the pruned transforms skip at most half the FFT work.
    _kernel("random_field", floor=1.3, tolerance=None),
    _kernel("lstm_forward", floor=0.5, tolerance=None),
    _kernel("lstm_backward", floor=0.5, tolerance=None),
    *(
        gate
        for b in BACKENDS
        for gate in (
            # Cold (fresh caches) over hot (pre-warmed LRU) serving: a
            # collapsing ratio means cache-path work leaked into requests.
            Gate(f"router_latency_{b}", f"router_cold_{b}", f"router_hot_{b}", 3.0, tolerance=0.5),
            Gate(f"router_hot_{b}", f"router_hot_{b}", None, ceiling=0.25),
            # A full rebuild over one incremental ingest (merge + dirty tiles).
            Gate(
                f"ingest_speedup_{b}",
                f"ingest_full_{b}",
                f"ingest_incremental_{b}",
                3.0,
                tolerance=0.5,
            ),
            # Inflating the archive over a memory-mapped single-tile read.
            Gate(
                f"zero_copy_decode_{b}",
                f"zero_copy_decode_npz_{b}",
                f"zero_copy_decode_raw_{b}",
                3.0,
                tolerance=0.5,
            ),
        )
    ),
    # Pickling arrays through the executor pipe over shared-memory descriptors.
    Gate(
        "zero_copy_fanout", "zero_copy_fanout_pickled", "zero_copy_fanout_shm", 2.0, tolerance=0.5
    ),
    # Telemetry enabled over the null twins, per instrumented hot path.
    *(
        Gate(f"obs_overhead_{p}", f"obs_enabled_{p}", f"obs_disabled_{p}", ceiling=1.05)
        for p in ("query", "campaign", "logging", "propagation")
    ),
)


def load_minima(benchmark_json: Path) -> dict[str, float]:
    """Per-benchmark minimum round times, keyed by bare benchmark name."""
    data = json.loads(benchmark_json.read_text())
    return {
        bench["name"].removeprefix("test_"): float(bench["stats"]["min"])
        for bench in data.get("benchmarks", [])
    }


def measure(gate: Gate, minima: dict[str, float]) -> tuple[float, float | None, float] | None:
    """``(numerator_s, denominator_s, value)``, or ``None`` if the run lacks the gate."""
    numerator = minima.get(gate.numerator)
    if numerator is None:
        return None
    if gate.denominator is None:
        return numerator, None, numerator
    denominator = minima.get(gate.denominator)
    if denominator is None or denominator <= 0:
        return None
    return numerator, denominator, numerator / denominator


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("benchmark_json", type=Path, help="pytest-benchmark JSON output")
    parser.add_argument("--baseline", type=Path, default=DEFAULT_BASELINE)
    parser.add_argument(
        "--update",
        action="store_true",
        help="rewrite the baseline file from this run (which must measure every gate)",
    )
    args = parser.parse_args(argv)

    minima = load_minima(args.benchmark_json)
    measured = {g.name: m for g in GATES if (m := measure(g, minima)) is not None}
    if not measured:
        print("no gated benchmarks found", file=sys.stderr)
        return 2

    if args.update:
        unmeasured = [g.name for g in GATES if g.name not in measured]
        if unmeasured:
            print(f"not updated, unmeasured gates: {', '.join(unmeasured)}", file=sys.stderr)
            return 1
        rows = {
            name: {"numerator_s": num, "denominator_s": den, "ratio": ratio}
            for name, (num, den, ratio) in measured.items()
            if den is not None
        }
        args.baseline.parent.mkdir(parents=True, exist_ok=True)
        args.baseline.write_text(json.dumps(rows, indent=2, sort_keys=True) + "\n")
        print(f"baselines written to {args.baseline}")
        return 0

    baselines = json.loads(args.baseline.read_text()) if args.baseline.exists() else {}
    table, failures = [], []
    for gate in GATES:
        base = baselines.get(gate.name, {}).get("ratio")
        if gate.name not in measured:
            if gate.name in baselines:
                failures.append(f"{gate.name}: present in baselines but not in this run")
            continue
        num, den, value = measured[gate.name]
        unit = "s" if den is None else "x"
        if gate.floor is not None and value < gate.floor:
            failures.append(f"{gate.name}: {value:.3f}{unit} below the {gate.floor}{unit} floor")
        if gate.ceiling is not None and value > gate.ceiling:
            failures.append(
                f"{gate.name}: {value:.3f}{unit} above the {gate.ceiling}{unit} ceiling"
            )
        if gate.tolerance is not None and base is not None and value < base * (1 - gate.tolerance):
            failures.append(
                f"{gate.name}: {value:.3f}{unit} regressed more than "
                f"{gate.tolerance:.0%} from baseline {base:.3f}{unit}"
            )
        # Headroom is printed in the pass case too, so CI logs show each
        # gate's margin trend long before a failure trips it.
        limits = [value / gate.floor] if gate.floor else []
        limits += [gate.ceiling / value] if gate.ceiling else []
        table.append(
            (
                gate.name,
                f"{num * 1e3:.2f}ms",
                "-" if den is None else f"{den * 1e3:.2f}ms",
                f"{value:.3f}{unit}",
                f"{min(limits):.2f}x" if limits else "-",
                f"{100.0 * (value - base) / base:+.1f}%" if base else "-",
            )
        )

    width = max(len(row[0]) for row in table)
    header = ("gate", "numerator", "denominator", "value", "headroom", "vs baseline")
    for name, *cells in (header, *table):
        print(f"{name:<{width}}  " + "  ".join(f"{cell:>11}" for cell in cells))
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(f"all {len(table)} measured gates within their floors, ceilings and tolerances")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
