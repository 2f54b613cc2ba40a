#!/usr/bin/env python
"""Kernel perf-regression gate for CI.

Reads a pytest-benchmark ``--benchmark-json`` file produced by the kernel
benchmark suites (``benchmarks/bench_kernels.py``,
``benchmarks/bench_l3_gridding.py``, ``benchmarks/bench_pyramid.py``,
``benchmarks/bench_router.py``, ``benchmarks/bench_ingest.py`` and
``benchmarks/bench_zero_copy.py``), pairs
each ``*_reference`` benchmark
with its ``*_vectorized`` counterpart, and computes the vectorized speedup
as the ratio of the per-round *minimum* times (the least noisy statistic on
shared CI runners).  The speedups — not the absolute times — are compared
against the committed baselines in
``benchmarks/results/kernel_baselines.json``, so the gate is independent of
how fast the CI machine happens to be.

The router benchmarks additionally feed a serving-tier **latency gate**:
per kernel backend, the cold-start run (fresh caches, full decode) is
ratioed against the hot run (pre-warmed LRU), and the ratio is held above
``LATENCY_RATIO_FLOORS`` and within ``LATENCY_TOLERANCE`` of its committed
baseline — with one generous absolute ceiling on the hot-path time
(``HOT_LATENCY_CEILING_S``) as the backstop for cache-path logic
regressions that scale both numbers together.

The ingest benchmarks feed the **live-ingest gate** the same way: per
kernel backend, one incremental ingest (online mosaic merge + dirty-tile
pyramid rebuild) is ratioed against the full rebuild it replaces, and the
ratio is held above ``INGEST_RATIO_FLOOR`` (>= 3x, an acceptance
criterion) and within ``INGEST_TOLERANCE`` of its committed baseline.

The zero-copy benchmarks (``benchmarks/bench_zero_copy.py``) feed two more
ratio gates: the pickled/shm fan-out time ratio must stay above
``ZERO_COPY_FANOUT_FLOOR`` (>= 2x — the shared-memory executor transport),
and per kernel backend the npz/raw cold single-tile decode ratio must stay
above ``ZERO_COPY_DECODE_FLOOR`` (>= 3x — the memory-mapped product
layout).  ``--emit-json PATH`` additionally writes every section measured
in this run to one committed JSON snapshot (``BENCH_zero_copy.json``).

The telemetry benchmarks (``benchmarks/bench_obs.py``) feed the **obs
overhead gate**: per instrumented hot path (warm router serving, one small
campaign run), the obs-enabled time is ratioed against the same work under
the null no-op twins, and the ratio is held under ``OBS_OVERHEAD_CEILING``
(1.05 — telemetry may cost at most 5 % of either path).

The check fails when a kernel's measured speedup

* regresses by more than ``--tolerance`` (default 25 %) relative to its
  committed baseline — for kernels whose baseline speedup is large enough
  for a ratio to be stable (>= 2x); near-parity kernels (the LSTM pairs)
  instead only fail below ``NEAR_PARITY_FLOOR``, because run-to-run BLAS
  and scheduling noise on a ~1x ratio easily exceeds any tight tolerance —
  or
* falls below the kernel's hard floor (the acceptance criterion: >= 3x for
  the windowed sea-surface, confidence-binning, Level-3 gridding,
  pyramid-reduction, drift-search and 2 m resampling paths; >= 1.3x for the
  random-field filtering, whose pruned transforms skip at most half the
  FFT work).

The hot router, raw mmap decode and ingest benchmarks also carry a backend
suffix, but they are no kernel speedup: each is gated only by its own
family's ratio (``NON_KERNEL_PREFIXES``).  The cold router and npz decode
runs stay paired as speedups, so a slower vectorized decode + pyramid path
fails the gate even though it raises their cold/hot and npz/raw ratios.

Usage::

    python -m pytest benchmarks/bench_kernels.py benchmarks/bench_l3_gridding.py \\
        --benchmark-json=bench.json
    python benchmarks/check_regression.py bench.json
    python benchmarks/check_regression.py bench.json --update   # refresh baselines
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

DEFAULT_BASELINE = Path(__file__).resolve().parent / "results" / "kernel_baselines.json"

#: Hard speedup floors per kernel (acceptance criteria); pairs without an
#: entry only have to stay within tolerance of their committed baseline.
SPEEDUP_FLOORS = {
    "sea_surface_nasa": 3.0,
    "confidence_binning": 3.0,
    "l3_gridding": 3.0,
    "pyramid_reduce": 3.0,
    "drift": 3.0,
    "resample": 3.0,
    "random_field": 1.3,
}

#: Baselines below this speedup are treated as near-parity: the relative
#: tolerance check is replaced by an absolute floor, because noise on a ~1x
#: ratio dwarfs any tight percentage.
NEAR_PARITY_BASELINE = 2.0
NEAR_PARITY_FLOOR = 0.5

REFERENCE_SUFFIX = "_reference"
VECTORIZED_SUFFIX = "_vectorized"

#: Serving-tier latency gate (``benchmarks/bench_router.py``): per kernel
#: backend, the cold (fresh caches, full decode + pyramid build) run must
#: stay at least this many times slower than the hot (pre-warmed LRU) run.
#: A collapsing ratio means cache-path work leaked into the request path —
#: the regression absolute times cannot see, because both runs slow down
#: together on a slow runner.
LATENCY_RATIO_FLOORS = {"router_latency": 3.0}
#: Generous absolute ceiling on the hot-path minimum (seconds): the warmed
#: router serves a whole request batch from memory, so even the slowest CI
#: runner finishing above this is a logic regression, not machine noise.
HOT_LATENCY_CEILING_S = 0.25
#: Latency ratios are noisier than kernel speedups (the hot path is tens of
#: milliseconds, scheduler-sensitive), so the vs-baseline tolerance is wider.
LATENCY_TOLERANCE = 0.5

COLD_PREFIX = "router_cold_"
HOT_PREFIX = "router_hot_"

#: Live-ingest gate (``benchmarks/bench_ingest.py``): per kernel backend,
#: one incremental ingest (online merge + dirty-tile rebuild) must stay at
#: least this many times cheaper than the full rebuild (batch mosaic +
#: from-scratch pyramid) it replaces.  The products are byte-identical by
#: contract, so a collapsing ratio means dirty-cell accounting regressed
#: into full-grid work.
INGEST_RATIO_FLOOR = 3.0
INGEST_TOLERANCE = 0.5

INGEST_INCREMENTAL_PREFIX = "ingest_incremental_"
INGEST_FULL_PREFIX = "ingest_full_"

#: Zero-copy gates (``benchmarks/bench_zero_copy.py``).  The fan-out gate
#: holds the pickled/shm time ratio of one ~48 MB struct-of-arrays
#: map-reduce above an acceptance floor: shipping descriptors through
#: shared memory must stay at least 2x faster than pickling the arrays
#: through the executor pipe.  The decode gate holds the npz/raw cold
#: single-tile ratio per kernel backend above 3x: a memory-mapped window
#: read must beat inflating the archive and building the full pyramid.
ZERO_COPY_FANOUT_FLOOR = 2.0
ZERO_COPY_DECODE_FLOOR = 3.0
ZERO_COPY_TOLERANCE = 0.5

ZERO_COPY_FANOUT_SHM = "zero_copy_fanout_shm"
ZERO_COPY_FANOUT_PICKLED = "zero_copy_fanout_pickled"
ZERO_COPY_DECODE_NPZ_PREFIX = "zero_copy_decode_npz_"
ZERO_COPY_DECODE_RAW_PREFIX = "zero_copy_decode_raw_"

#: Telemetry overhead gate (``benchmarks/bench_obs.py``): the same hot path
#: — warm router serving and one small campaign — timed with obs enabled
#: and with the null twins, ratioed enabled/disabled.  Spans and counters
#: may cost at most 5 % of either path; anything above that means an
#: allocation or a lock leaked into the per-request instrumentation.
OBS_OVERHEAD_CEILING = 1.05

OBS_ENABLED_PREFIX = "obs_enabled_"
OBS_DISABLED_PREFIX = "obs_disabled_"

#: Per-backend benchmarks that share the kernels' ``_reference``/
#: ``_vectorized`` suffixes but are no kernel speedup: the hot router and raw
#: mmap decode runs touch no kernel (their ratio is ~1x noise), and the
#: ingest runs are gated by their incremental/full ratio.  Each stays gated
#: by its own family's loader.  The cold router and npz decode runs are
#: decode + pyramid bound, so they stay paired as kernel speedups
#: (``router_cold``, ``zero_copy_decode_npz``).
NON_KERNEL_PREFIXES = (
    HOT_PREFIX,
    INGEST_INCREMENTAL_PREFIX,
    INGEST_FULL_PREFIX,
    ZERO_COPY_DECODE_RAW_PREFIX,
)


def load_minima(benchmark_json: Path) -> dict[str, float]:
    """Per-benchmark minimum round times, keyed by bare benchmark name."""
    data = json.loads(benchmark_json.read_text())
    minima: dict[str, float] = {}
    for bench in data.get("benchmarks", []):
        name = bench["name"]
        if name.startswith("test_"):
            name = name[len("test_") :]
        # The per-round minimum is the least noisy statistic on shared CI
        # runners; ratios of minima are what the baselines store.
        minima[name] = float(bench["stats"]["min"])
    return minima


def load_speedups(minima: dict[str, float]) -> dict[str, dict[str, float]]:
    """Pair reference/vectorized benchmarks into per-kernel speedups.

    The hot router, raw decode and ingest benchmarks also end in a backend
    suffix; they are gated by their own family's ratio and are skipped here.
    """
    speedups: dict[str, dict[str, float]] = {}
    for name, ref_min in sorted(minima.items()):
        if not name.endswith(REFERENCE_SUFFIX) or name.startswith(NON_KERNEL_PREFIXES):
            continue
        kernel = name[: -len(REFERENCE_SUFFIX)]
        vec_min = minima.get(kernel + VECTORIZED_SUFFIX)
        if vec_min is None or vec_min <= 0:
            continue
        speedups[kernel] = {
            "reference_s": ref_min,
            "vectorized_s": vec_min,
            "speedup": ref_min / vec_min,
        }
    return speedups


def load_latencies(minima: dict[str, float]) -> dict[str, dict[str, float]]:
    """Pair the router's cold/hot runs into per-backend latency ratios."""
    latencies: dict[str, dict[str, float]] = {}
    for name, cold_s in sorted(minima.items()):
        if not name.startswith(COLD_PREFIX):
            continue
        backend = name[len(COLD_PREFIX) :]
        hot_s = minima.get(HOT_PREFIX + backend)
        if hot_s is None or hot_s <= 0:
            continue
        latencies[f"router_latency_{backend}"] = {
            "cold_s": cold_s,
            "hot_s": hot_s,
            "ratio": cold_s / hot_s,
        }
    return latencies


def load_ingest(minima: dict[str, float]) -> dict[str, dict[str, float]]:
    """Pair the incremental/full ingest runs into per-backend speedups."""
    speedups: dict[str, dict[str, float]] = {}
    for name, full_s in sorted(minima.items()):
        if not name.startswith(INGEST_FULL_PREFIX):
            continue
        backend = name[len(INGEST_FULL_PREFIX) :]
        incremental_s = minima.get(INGEST_INCREMENTAL_PREFIX + backend)
        if incremental_s is None or incremental_s <= 0:
            continue
        speedups[f"ingest_speedup_{backend}"] = {
            "full_s": full_s,
            "incremental_s": incremental_s,
            "ratio": full_s / incremental_s,
        }
    return speedups


def load_zero_copy(minima: dict[str, float]) -> dict[str, dict[str, float]]:
    """Pair the zero-copy runs into fan-out and per-backend decode ratios."""
    zero_copy: dict[str, dict[str, float]] = {}
    pickled_s = minima.get(ZERO_COPY_FANOUT_PICKLED)
    shm_s = minima.get(ZERO_COPY_FANOUT_SHM)
    if pickled_s is not None and shm_s is not None and shm_s > 0:
        zero_copy["zero_copy_fanout"] = {
            "pickled_s": pickled_s,
            "shm_s": shm_s,
            "ratio": pickled_s / shm_s,
        }
    for name, npz_s in sorted(minima.items()):
        if not name.startswith(ZERO_COPY_DECODE_NPZ_PREFIX):
            continue
        backend = name[len(ZERO_COPY_DECODE_NPZ_PREFIX) :]
        raw_s = minima.get(ZERO_COPY_DECODE_RAW_PREFIX + backend)
        if raw_s is None or raw_s <= 0:
            continue
        zero_copy[f"zero_copy_decode_{backend}"] = {
            "npz_s": npz_s,
            "raw_s": raw_s,
            "ratio": npz_s / raw_s,
        }
    return zero_copy


def load_obs(minima: dict[str, float]) -> dict[str, dict[str, float]]:
    """Pair the enabled/disabled telemetry runs into per-path overheads."""
    overheads: dict[str, dict[str, float]] = {}
    for name, enabled_s in sorted(minima.items()):
        if not name.startswith(OBS_ENABLED_PREFIX):
            continue
        path = name[len(OBS_ENABLED_PREFIX) :]
        disabled_s = minima.get(OBS_DISABLED_PREFIX + path)
        if disabled_s is None or disabled_s <= 0:
            continue
        overheads[f"obs_overhead_{path}"] = {
            "enabled_s": enabled_s,
            "disabled_s": disabled_s,
            "ratio": enabled_s / disabled_s,
        }
    return overheads


def check_obs(overheads: dict[str, dict[str, float]]) -> list[str]:
    failures: list[str] = []
    for name, row in overheads.items():
        measured = row["ratio"]
        if measured > OBS_OVERHEAD_CEILING:
            failures.append(
                f"{name}: telemetry costs {(measured - 1.0):.1%} of the hot "
                f"path (ceiling {OBS_OVERHEAD_CEILING - 1.0:.0%})"
            )
    return failures


def check_zero_copy(
    zero_copy: dict[str, dict[str, float]],
    baselines: dict[str, dict[str, float]],
) -> list[str]:
    failures: list[str] = []
    for name, row in zero_copy.items():
        measured = row["ratio"]
        if name == "zero_copy_fanout":
            floor, label = ZERO_COPY_FANOUT_FLOOR, "shm fan-out only"
        else:
            floor, label = ZERO_COPY_DECODE_FLOOR, "raw mmap decode only"
        if measured < floor:
            failures.append(
                f"{name}: {label} {measured:.2f}x faster "
                f"(floor {floor:.1f}x)"
            )
        base = baselines.get(name, {}).get("ratio")
        if base is not None and measured < base * (1.0 - ZERO_COPY_TOLERANCE):
            failures.append(
                f"{name}: ratio {measured:.2f}x regressed more than "
                f"{ZERO_COPY_TOLERANCE:.0%} from baseline {base:.2f}x"
            )
    return failures


def check_ingest(
    ingest: dict[str, dict[str, float]],
    baselines: dict[str, dict[str, float]],
) -> list[str]:
    failures: list[str] = []
    for name, row in ingest.items():
        measured = row["ratio"]
        if measured < INGEST_RATIO_FLOOR:
            failures.append(
                f"{name}: incremental ingest only {measured:.2f}x faster than a "
                f"full rebuild (floor {INGEST_RATIO_FLOOR:.1f}x)"
            )
        base = baselines.get(name, {}).get("ratio")
        if base is not None and measured < base * (1.0 - INGEST_TOLERANCE):
            failures.append(
                f"{name}: incremental/full ratio {measured:.2f}x regressed more "
                f"than {INGEST_TOLERANCE:.0%} from baseline {base:.2f}x"
            )
    return failures


def check_latencies(
    latencies: dict[str, dict[str, float]],
    baselines: dict[str, dict[str, float]],
) -> list[str]:
    failures: list[str] = []
    for name, row in latencies.items():
        measured = row["ratio"]
        floor = LATENCY_RATIO_FLOORS.get(name.rsplit("_", 1)[0])
        if floor is not None and measured < floor:
            failures.append(
                f"{name}: cold/hot ratio {measured:.2f}x below the "
                f"{floor:.1f}x acceptance floor"
            )
        if row["hot_s"] > HOT_LATENCY_CEILING_S:
            failures.append(
                f"{name}: hot-path latency {row['hot_s'] * 1e3:.1f}ms above the "
                f"{HOT_LATENCY_CEILING_S * 1e3:.0f}ms ceiling"
            )
        base = baselines.get(name, {}).get("ratio")
        if base is not None and measured < base * (1.0 - LATENCY_TOLERANCE):
            failures.append(
                f"{name}: cold/hot ratio {measured:.2f}x regressed more than "
                f"{LATENCY_TOLERANCE:.0%} from baseline {base:.2f}x"
            )
    return failures


def check(
    speedups: dict[str, dict[str, float]],
    baselines: dict[str, dict[str, float]],
    tolerance: float,
    also_present: set[str] = frozenset(),
) -> list[str]:
    failures: list[str] = []
    for kernel, row in speedups.items():
        measured = row["speedup"]
        floor = SPEEDUP_FLOORS.get(kernel)
        if floor is not None and measured < floor:
            failures.append(
                f"{kernel}: speedup {measured:.2f}x below the {floor:.1f}x acceptance floor"
            )
        base = baselines.get(kernel, {}).get("speedup")
        if base is None:
            continue
        if base < NEAR_PARITY_BASELINE:
            if measured < NEAR_PARITY_FLOOR:
                failures.append(
                    f"{kernel}: near-parity speedup {measured:.2f}x fell below "
                    f"the {NEAR_PARITY_FLOOR:.1f}x noise floor"
                )
        elif measured < base * (1.0 - tolerance):
            failures.append(
                f"{kernel}: speedup {measured:.2f}x regressed more than "
                f"{tolerance:.0%} from baseline {base:.2f}x"
            )
    missing = sorted(set(baselines) - set(speedups) - set(also_present))
    for kernel in missing:
        failures.append(f"{kernel}: present in baselines but not in this run")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("benchmark_json", type=Path, help="pytest-benchmark JSON output")
    parser.add_argument("--baseline", type=Path, default=DEFAULT_BASELINE)
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="allowed fractional speedup regression vs baseline (default 0.25)",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="rewrite the baseline file from this run instead of checking",
    )
    parser.add_argument(
        "--emit-json",
        type=Path,
        default=None,
        metavar="PATH",
        help="also write every section measured in this run to PATH "
        "(the committed BENCH_zero_copy.json snapshot)",
    )
    args = parser.parse_args(argv)

    minima = load_minima(args.benchmark_json)
    speedups = load_speedups(minima)
    latencies = load_latencies(minima)
    ingest = load_ingest(minima)
    zero_copy = load_zero_copy(minima)
    obs = load_obs(minima)
    if not speedups and not latencies and not ingest and not zero_copy and not obs:
        print("no reference/vectorized benchmark pairs found", file=sys.stderr)
        return 2

    baselines = {}
    if args.baseline.exists() and not args.update:
        baselines = json.loads(args.baseline.read_text())

    # Margins are printed in the pass case too, so CI logs show each
    # kernel's headroom trend long before a failure trips the gate.
    if speedups:
        width = max(len(k) for k in speedups)
        print(
            f"{'kernel':<{width}}  {'reference':>11}  {'vectorized':>11}  "
            f"{'speedup':>8}  {'vs floor':>9}  {'vs baseline':>11}"
        )
        for kernel, row in speedups.items():
            measured = row["speedup"]
            floor = SPEEDUP_FLOORS.get(kernel)
            floor_margin = f"{measured / floor:8.2f}x" if floor else f"{'-':>9}"
            base = baselines.get(kernel, {}).get("speedup")
            base_margin = f"{100.0 * (measured - base) / base:+10.1f}%" if base else f"{'-':>11}"
            print(
                f"{kernel:<{width}}  {row['reference_s'] * 1e3:9.2f}ms  "
                f"{row['vectorized_s'] * 1e3:9.2f}ms  {measured:7.2f}x  "
                f"{floor_margin}  {base_margin}"
            )

    if latencies:
        width = max(len(k) for k in latencies)
        print(
            f"\n{'latency':<{width}}  {'cold':>11}  {'hot':>11}  "
            f"{'ratio':>8}  {'vs floor':>9}  {'vs baseline':>11}"
        )
        for name, row in latencies.items():
            measured = row["ratio"]
            floor = LATENCY_RATIO_FLOORS.get(name.rsplit("_", 1)[0])
            floor_margin = f"{measured / floor:8.2f}x" if floor else f"{'-':>9}"
            base = baselines.get(name, {}).get("ratio")
            base_margin = f"{100.0 * (measured - base) / base:+10.1f}%" if base else f"{'-':>11}"
            print(
                f"{name:<{width}}  {row['cold_s'] * 1e3:9.2f}ms  "
                f"{row['hot_s'] * 1e3:9.2f}ms  {measured:7.2f}x  "
                f"{floor_margin}  {base_margin}"
            )

    if ingest:
        width = max(len(k) for k in ingest)
        print(
            f"\n{'ingest':<{width}}  {'full':>11}  {'incremental':>11}  "
            f"{'ratio':>8}  {'vs floor':>9}  {'vs baseline':>11}"
        )
        for name, row in ingest.items():
            measured = row["ratio"]
            floor_margin = f"{measured / INGEST_RATIO_FLOOR:8.2f}x"
            base = baselines.get(name, {}).get("ratio")
            base_margin = f"{100.0 * (measured - base) / base:+10.1f}%" if base else f"{'-':>11}"
            print(
                f"{name:<{width}}  {row['full_s'] * 1e3:9.2f}ms  "
                f"{row['incremental_s'] * 1e3:9.2f}ms  {measured:7.2f}x  "
                f"{floor_margin}  {base_margin}"
            )

    if zero_copy:
        width = max(len(k) for k in zero_copy)
        print(
            f"\n{'zero-copy':<{width}}  {'copied':>11}  {'zero-copy':>11}  "
            f"{'ratio':>8}  {'vs floor':>9}  {'vs baseline':>11}"
        )
        for name, row in zero_copy.items():
            measured = row["ratio"]
            if name == "zero_copy_fanout":
                slow_s, fast_s = row["pickled_s"], row["shm_s"]
                floor = ZERO_COPY_FANOUT_FLOOR
            else:
                slow_s, fast_s = row["npz_s"], row["raw_s"]
                floor = ZERO_COPY_DECODE_FLOOR
            base = baselines.get(name, {}).get("ratio")
            base_margin = f"{100.0 * (measured - base) / base:+10.1f}%" if base else f"{'-':>11}"
            print(
                f"{name:<{width}}  {slow_s * 1e3:9.2f}ms  "
                f"{fast_s * 1e3:9.2f}ms  {measured:7.2f}x  "
                f"{measured / floor:8.2f}x  {base_margin}"
            )

    if obs:
        width = max(len(k) for k in obs)
        print(
            f"\n{'telemetry':<{width}}  {'disabled':>11}  {'enabled':>11}  "
            f"{'ratio':>8}  {'vs ceiling':>10}"
        )
        for name, row in obs.items():
            measured = row["ratio"]
            print(
                f"{name:<{width}}  {row['disabled_s'] * 1e3:9.2f}ms  "
                f"{row['enabled_s'] * 1e3:9.2f}ms  {measured:7.3f}x  "
                f"{OBS_OVERHEAD_CEILING - measured:+9.3f}x"
            )

    if args.emit_json is not None:
        snapshot = {
            "source": str(args.benchmark_json),
            "kernels": speedups,
            "latencies": latencies,
            "ingest": ingest,
            "zero_copy": zero_copy,
            "obs": obs,
        }
        args.emit_json.parent.mkdir(parents=True, exist_ok=True)
        args.emit_json.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
        print(f"measured snapshot written to {args.emit_json}")

    if args.update:
        args.baseline.parent.mkdir(parents=True, exist_ok=True)
        merged = {**speedups, **latencies, **ingest, **zero_copy, **obs}
        args.baseline.write_text(json.dumps(merged, indent=2, sort_keys=True) + "\n")
        print(f"baselines written to {args.baseline}")
        return 0

    failures = check(
        speedups,
        baselines,
        args.tolerance,
        also_present=set(latencies) | set(ingest) | set(zero_copy) | set(obs),
    )
    failures += check_latencies(latencies, baselines)
    failures += check_ingest(ingest, baselines)
    failures += check_zero_copy(zero_copy, baselines)
    failures += check_obs(obs)
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(
        "kernel speedups, serving latencies, ingest, zero-copy and telemetry "
        "ratios within tolerance of committed baselines"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
