"""The perf-regression gate (``benchmarks/check_regression.py``), end to end.

Each test builds a pytest-benchmark JSON in memory from the times committed
in ``benchmarks/results/kernel_baselines.json``, perturbs it, runs the gate's
``main`` against an explicit ``--baseline``, and asserts the exit code and the
names of the gates that fail -- never the message text.
"""

from __future__ import annotations

import importlib.util
import json
import math
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
BASELINE = _ROOT / "benchmarks" / "results" / "kernel_baselines.json"


def _load_gate():
    path = _ROOT / "benchmarks" / "check_regression.py"
    spec = importlib.util.spec_from_file_location("check_regression", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


gate = _load_gate()

BACKENDS = ("reference", "vectorized")
#: Reference/vectorized kernel speedups, named after their benchmarks; the
#: first six hold the 3x acceptance floor.
KERNELS = (
    "sea_surface_nasa",
    "confidence_binning",
    "l3_gridding",
    "pyramid_reduce",
    "drift",
    "resample",
    "random_field",
    "lstm_forward",
    "lstm_backward",
    "router_cold",
    "zero_copy_decode_npz",
)
OBS_PATHS = ("query", "campaign", "logging", "propagation")

#: Baseline row name -> (numerator benchmark, denominator benchmark).
PAIRS = {
    **{k: (f"{k}_reference", f"{k}_vectorized") for k in KERNELS},
    **{f"router_latency_{b}": (f"router_cold_{b}", f"router_hot_{b}") for b in BACKENDS},
    **{f"ingest_speedup_{b}": (f"ingest_full_{b}", f"ingest_incremental_{b}") for b in BACKENDS},
    **{
        f"zero_copy_decode_{b}": (f"zero_copy_decode_npz_{b}", f"zero_copy_decode_raw_{b}")
        for b in BACKENDS
    },
    "zero_copy_fanout": ("zero_copy_fanout_pickled", "zero_copy_fanout_shm"),
    **{f"obs_overhead_{p}": (f"obs_enabled_{p}", f"obs_disabled_{p}") for p in OBS_PATHS},
}

#: Rows measured by ``benchmarks/bench_kernels.py`` alone.
KERNEL_MODULE_ROWS = {
    "sea_surface_nasa",
    "confidence_binning",
    "drift",
    "resample",
    "random_field",
    "lstm_forward",
    "lstm_backward",
}


def _ratio(row: dict) -> float:
    return row["ratio"]


def _committed() -> dict:
    return json.loads(BASELINE.read_text())


def _times(row: dict) -> tuple[float, float]:
    """(numerator, denominator) seconds of a baseline row, ordered by its ratio."""
    a, b = (v for k, v in sorted(row.items()) if k.endswith("_s"))
    return (a, b) if math.isclose(a / b, _ratio(row)) else (b, a)


def baseline_minima() -> dict[str, float]:
    """Benchmark name -> minimum seconds, as the committed baselines measured them."""
    minima: dict[str, float] = {}
    for name, row in _committed().items():
        for bench, seconds in zip(PAIRS[name], _times(row)):
            assert minima.setdefault(bench, seconds) == seconds
    return minima


def set_ratio(minima: dict[str, float], name: str, ratio: float, *, move: str = "den") -> None:
    """Move one side of ``name``'s pair so that its measured ratio is ``ratio``."""
    num, den = PAIRS[name]
    if move == "den":
        minima[den] = minima[num] / ratio
    else:
        minima[num] = minima[den] * ratio


def write_baseline(tmp_path: Path, **ratios: float) -> Path:
    """The committed baselines with some rows' ratios replaced."""
    rows = _committed()
    for name, ratio in ratios.items():
        rows[name]["ratio"] = ratio
    path = tmp_path / "baselines.json"
    path.write_text(json.dumps(rows, indent=2, sort_keys=True) + "\n")
    return path


def run_gate(tmp_path, capsys, minima, *extra, baseline=BASELINE) -> tuple[int, set[str]]:
    """Exit code and failing gate names of one gate run over ``minima``."""
    run = {"benchmarks": [{"name": f"test_{n}", "stats": {"min": s}} for n, s in minima.items()]}
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(run))
    capsys.readouterr()
    code = gate.main([str(path), "--baseline", str(baseline), *extra])
    err = capsys.readouterr().err
    failing = (line for line in err.splitlines() if line.startswith("FAIL: "))
    names = {line[len("FAIL: ") :].split(":")[0] for line in failing}
    return code, names


def test_every_baseline_row_is_paired():
    assert set(_committed()) == set(PAIRS)


def test_run_at_baseline_passes(tmp_path, capsys):
    assert run_gate(tmp_path, capsys, baseline_minima()) == (0, set())


#: (gate, floor) for every floor gate whose denominator no other gate reads.
FLOORS = [
    *[(k, 3.0) for k in KERNELS[:6]],
    ("random_field", 1.3),
    ("lstm_forward", 0.5),
    ("lstm_backward", 0.5),
    ("router_latency_vectorized", 3.0),
    *[(f"ingest_speedup_{b}", 3.0) for b in BACKENDS],
    *[(f"zero_copy_decode_{b}", 3.0) for b in BACKENDS],
    ("zero_copy_fanout", 2.0),
]


@pytest.mark.parametrize("name, floor", FLOORS)
@pytest.mark.parametrize("side, fails", [(0.999, True), (1.001, False)])
def test_floor(tmp_path, capsys, name, floor, side, fails):
    # A baseline at the floor keeps the tolerance check below the floor.
    baseline = write_baseline(tmp_path, **{name: floor})
    minima = baseline_minima()
    set_ratio(minima, name, floor * side)
    expected = (1, {name}) if fails else (0, set())
    assert run_gate(tmp_path, capsys, minima, baseline=baseline) == expected


@pytest.mark.parametrize("path", OBS_PATHS)
@pytest.mark.parametrize("side, fails", [(1.001, True), (0.999, False)])
def test_obs_ceiling(tmp_path, capsys, path, side, fails):
    name = f"obs_overhead_{path}"
    minima = baseline_minima()
    set_ratio(minima, name, 1.05 * side, move="num")
    expected = (1, {name}) if fails else (0, set())
    assert run_gate(tmp_path, capsys, minima) == expected


@pytest.mark.parametrize("side, fails", [(1.001, True), (0.999, False)])
def test_hot_router_ceiling(tmp_path, capsys, side, fails):
    # Scale every router run together, so all router ratios stay at baseline
    # while the slower hot run (reference) crosses 0.25 s.
    minima = baseline_minima()
    scale = 0.25 * side / minima["router_hot_reference"]
    for b in BACKENDS:
        minima[f"router_cold_{b}"] *= scale
        minima[f"router_hot_{b}"] *= scale
    assert minima["router_hot_vectorized"] < 0.25
    code, names = run_gate(tmp_path, capsys, minima)
    if fails:
        # The ceiling is the reference router's: one gate fails, named for it.
        assert code == 1
        assert len(names) == 1
        assert names <= {"router_latency_reference", "router_hot_reference"}
    else:
        assert (code, names) == (0, set())


TOLERANCE_FAILS = [
    *[(k, 0.25) for k in KERNELS[:6]],
    ("router_cold", 0.25),
    ("zero_copy_decode_npz", 0.25),
    ("router_latency_reference", 0.5),
    *[(f"ingest_speedup_{b}", 0.5) for b in BACKENDS],
    *[(f"zero_copy_decode_{b}", 0.5) for b in BACKENDS],
]


@pytest.mark.parametrize("name, tolerance", TOLERANCE_FAILS)
@pytest.mark.parametrize("side, fails", [(0.99, True), (1.01, False)])
def test_tolerance(tmp_path, capsys, name, tolerance, side, fails):
    minima = baseline_minima()
    base = _ratio(_committed()[name])
    set_ratio(minima, name, base * (1.0 - tolerance) * side)
    expected = (1, {name}) if fails else (0, set())
    assert run_gate(tmp_path, capsys, minima) == expected


@pytest.mark.parametrize("name", ["lstm_forward", "lstm_backward", "random_field"])
def test_near_parity_kernels_have_no_tolerance(tmp_path, capsys, name):
    minima = baseline_minima()
    set_ratio(minima, name, _ratio(_committed()[name]) * 0.7)
    assert run_gate(tmp_path, capsys, minima) == (0, set())


@pytest.mark.parametrize(
    "dropped, missing",
    [
        ("drift_vectorized", {"drift"}),
        ("obs_enabled_query", {"obs_overhead_query"}),
        ("router_hot_vectorized", {"router_latency_vectorized"}),
        ("router_cold_reference", {"router_cold", "router_latency_reference"}),
        ("ingest_full_reference", {"ingest_speedup_reference"}),
        ("zero_copy_fanout_shm", {"zero_copy_fanout"}),
        ("zero_copy_decode_raw_vectorized", {"zero_copy_decode_vectorized"}),
    ],
)
def test_baseline_gate_missing_from_run_fails(tmp_path, capsys, dropped, missing):
    minima = baseline_minima()
    del minima[dropped]
    assert run_gate(tmp_path, capsys, minima) == (1, missing)


def test_kernel_module_alone_fails_every_other_baseline(tmp_path, capsys):
    minima = {
        bench: s
        for bench, s in baseline_minima().items()
        if any(bench in PAIRS[k] for k in KERNEL_MODULE_ROWS)
    }
    assert run_gate(tmp_path, capsys, minima) == (1, set(PAIRS) - KERNEL_MODULE_ROWS)


@pytest.mark.parametrize("minima", [{}, {"unrelated_benchmark": 0.1}])
def test_run_without_gated_benchmarks_exits_2(tmp_path, capsys, minima):
    assert run_gate(tmp_path, capsys, minima)[0] == 2


def test_update_round_trips(tmp_path, capsys):
    written = tmp_path / "written.json"
    minima = baseline_minima()
    assert run_gate(tmp_path, capsys, minima, "--update", baseline=written)[0] == 0
    rows = json.loads(written.read_text())
    assert {n: _ratio(r) for n, r in rows.items()} == {
        n: _ratio(r) for n, r in _committed().items()
    }
    assert run_gate(tmp_path, capsys, minima, baseline=written) == (0, set())


def test_update_on_partial_run_leaves_baselines_untouched(tmp_path, capsys):
    baseline = write_baseline(tmp_path)
    before = baseline.read_bytes()
    minima = baseline_minima()
    del minima["obs_enabled_query"]
    code, _ = run_gate(tmp_path, capsys, minima, "--update", baseline=baseline)
    assert code != 0
    assert baseline.read_bytes() == before
