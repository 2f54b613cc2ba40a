"""Science-equivalence gate: a change to scene synthesis must keep the science.

The scenes are random, so a change to how they are drawn (a new random-field
algorithm, another draw order) changes every scene's bits and every
fixed-seed number downstream.  What must not change is the *distribution* of
the science.  This gate measures, over the seeds in ``SEEDS``:

* per field, for each correlation length ``L`` the scene generator uses on an
  800 x 800 grid: the isotropic sample autocorrelation at ``0.5 L``, ``L``
  and ``2 L`` (the filter's target is ``exp(-r² / 2L²)``, shown in the row
  name; the field is periodic, so lags wrap);
* per run of the end-to-end workflow on ``GATE_CONFIG``: classifier accuracy,
  macro F1, truth agreement of the first track, class fractions, ice
  freeboard mean and std, and the error of the recovered drift against the
  injected one.

Each statistic's seed mean must lie inside its band.  The bands derive from
``science_gate_parent.json``: the per-seed values of every statistic over
its ``seeds`` (more than ``SEEDS``), measured on the synthesis the gate was
calibrated on.  The band is the calibration mean ± ``BAND_SIGMA`` standard
deviations of the difference between a ``len(SEEDS)``-seed mean and that
mean, ``s * sqrt(1 / len(SEEDS) + 1 / n)`` for the calibration's sample
standard deviation ``s`` over ``n`` seeds.  A 3.5-sigma check fails a
faithful synthesis on any of the ~25 statistics less than 1 % of the time
(for near-normal seed means).  The per-run statistics are heavy-tailed (a
run whose training collapses scores an accuracy near 0.3), so ten seeds do
not estimate their spread: hence the larger calibration set.

A change that moves scene bits must pass this file unedited.  Re-calibrate
(``python tests/test_science_gate.py "<what the synthesis is>"`` rewrites the
JSON) only in its own commit, on the code before the change, never to let a
change pass.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from repro.config import CLASS_NAMES, N_CLASSES
from repro.surface.fields import gaussian_random_field
from repro.surface.scene import SceneConfig
from repro.workflow.end_to_end import ExperimentConfig, run_end_to_end

SEEDS = tuple(range(10))
BAND_SIGMA = 3.5
CALIBRATION = Path(__file__).with_name("science_gate_parent.json")

#: The scene generator's random fields: concentration (``L``), cloud
#: optical depth, freeboard texture (``L / 4``) and ridges (``L / 10``) at the
#: default 250 px concentration length on an 800 x 800 grid.
FIELD_SHAPE = (800, 800)
FIELD_LENGTHS_PX = (250.0, 62.5, 25.0, 120.0)
LAG_FACTORS = (0.5, 1.0, 2.0)

#: The end-to-end test configuration, run once per seed.
GATE_CONFIG = ExperimentConfig(
    scene=SceneConfig(
        width_m=10_000.0,
        height_m=10_000.0,
        open_water_fraction=0.12,
        thin_ice_fraction=0.18,
        thick_ice_fraction=0.70,
        n_leads=8,
    ),
    epochs=3,
    drift_m=(120.0, 180.0),
)


def _lag_name(length_px: float, factor: float) -> str:
    target = np.exp(-0.5 * factor**2)
    return f"acf L={length_px:g} r={factor:g}L (target {target:.3f})"


def _wrapped_lag_radius(shape: tuple[int, int]) -> np.ndarray:
    """Euclidean length of every periodic lag of a ``shape`` field."""
    dy, dx = (np.minimum(np.arange(n), n - np.arange(n)) for n in shape)
    return np.hypot(dy[:, None], dx[None, :])


def field_statistics(seed: int) -> dict[str, float]:
    """Ring-averaged sample autocorrelations of one field per correlation length."""
    radius = _wrapped_lag_radius(FIELD_SHAPE)
    stats = {}
    for length_px in FIELD_LENGTHS_PX:
        field = gaussian_random_field(FIELD_SHAPE, length_px, rng=seed)
        power = np.abs(np.fft.rfft2(field)) ** 2
        acf = np.fft.irfft2(power, s=FIELD_SHAPE) / field.size
        for factor in LAG_FACTORS:
            ring = np.abs(radius - factor * length_px) < 0.5
            stats[_lag_name(length_px, factor)] = float(acf[ring].mean())
    return stats


def _macro_f1(confusion: np.ndarray) -> float:
    """Mean over classes of F1 = 2 TP / (2 TP + FP + FN); 0 for a class never seen."""
    cm = confusion.astype(float)
    with np.errstate(divide="ignore", invalid="ignore"):
        f1 = 2.0 * np.diag(cm) / (cm.sum(axis=0) + cm.sum(axis=1))
    return float(np.nan_to_num(f1).mean())


def run_statistics(seed: int) -> dict[str, float]:
    """Science of one end-to-end run of ``GATE_CONFIG`` under ``seed``."""
    out = run_end_to_end(dataclasses.replace(GATE_CONFIG, seed=seed))
    first = out.classified[sorted(out.classified)[0]]
    truth = first.segments.truth_class
    valid = truth >= 0
    labels = np.concatenate([track.labels for track in out.classified.values()])
    fractions = np.bincount(labels[labels >= 0], minlength=N_CLASSES) / np.sum(labels >= 0)
    ice = np.concatenate([fb.freeboard_m[fb.ice_mask()] for fb in out.freeboard.values()])
    drift = out.data.drift
    stats = {
        "classifier accuracy": out.classifier.accuracy,
        "classifier macro F1": _macro_f1(out.classifier.report.confusion),
        "truth agreement, first track": float((first.labels[valid] == truth[valid]).mean()),
    }
    for name, fraction in zip(CLASS_NAMES, fractions):
        stats[f"class fraction {name}"] = float(fraction)
    stats["ice freeboard mean (m)"] = float(ice.mean())
    stats["ice freeboard std (m)"] = float(ice.std())
    # The correcting shift recovers the drift when it is its negative.
    error = np.hypot(drift.dx_m + GATE_CONFIG.drift_m[0], drift.dy_m + GATE_CONFIG.drift_m[1])
    stats["drift-recovery error (m)"] = float(error)
    return stats


def measure(seeds=SEEDS) -> dict[str, list[float]]:
    """Statistic name -> its value on every seed of ``seeds``."""
    per_seed = [{**field_statistics(seed), **run_statistics(seed)} for seed in seeds]
    return {name: [stats[name] for stats in per_seed] for name in per_seed[0]}


def band(values) -> tuple[float, float]:
    """The derivation rule: calibration mean ± ``BAND_SIGMA`` sigma of a seed-mean difference."""
    values = np.asarray(values, dtype=float)
    half = BAND_SIGMA * values.std(ddof=1) * np.sqrt(1.0 / len(SEEDS) + 1.0 / values.size)
    return float(values.mean() - half), float(values.mean() + half)


def test_calibration_covers_every_statistic():
    values = json.loads(CALIBRATION.read_text())["values"]
    names = [_lag_name(length, factor) for length in FIELD_LENGTHS_PX for factor in LAG_FACTORS]
    assert set(names) < set(values)
    assert all(len(v) > len(SEEDS) >= 8 for v in values.values())


def assert_seed_means_inside_parent_bands(measured, names=None):
    """Fail, with the table of seed means and bands, if a statistic of ``names`` leaves its band."""
    parent = json.loads(CALIBRATION.read_text())["values"]
    rows, failed = [], []
    for name in parent if names is None else names:
        parent_values = parent[name]
        mean = float(np.mean(measured[name]))
        low, high = band(parent_values)
        ok = low <= mean <= high
        failed += [] if ok else [name]
        rows.append(
            f"{'' if ok else '!! '}{name:<40} {mean:>10.4f}   [{low:.4f}, {high:.4f}]"
            f"   {np.mean(parent_values):>10.4f}"
        )
    header = f"{'statistic':<40} {'seed mean':>10}   {'band':<20}   {'parent mean':>10}"
    table = "\n".join([header, *rows])
    assert not failed, f"{len(failed)} statistic(s) outside the parent's band:\n{table}"


def test_seed_means_inside_parent_bands(science_gate_measurement):
    parent = json.loads(CALIBRATION.read_text())["values"]
    assert set(science_gate_measurement) == set(parent)
    assert_seed_means_inside_parent_bands(science_gate_measurement)


if __name__ == "__main__":
    # Re-measure the calibration on the code as it is (80 seeds, ~2 min):
    # python tests/test_science_gate.py "<what the synthesis is>"
    from repro.kernels import get_backend

    if len(sys.argv) != 2:
        sys.exit('usage: python tests/test_science_gate.py "<what the synthesis is>"')
    seeds = list(range(80))
    header = {"calibrated_on": sys.argv[1], "kernel_backend": get_backend(), "seeds": seeds}
    lines = [f"    {json.dumps(name)}: {json.dumps(v)}" for name, v in measure(seeds).items()]
    head = ",\n".join(f"  {json.dumps(key)}: {json.dumps(v)}" for key, v in header.items())
    CALIBRATION.write_text(f'{{\n{head},\n  "values": {{\n' + ",\n".join(lines) + "\n  }\n}\n")
