"""Campaign configuration: a scenario grid expanded into per-granule experiments.

A *campaign* runs the full Fig. 1 pipeline over a fleet of granules, one per
point of a scenario grid.  Each grid axis perturbs one knob of the base
:class:`~repro.workflow.end_to_end.ExperimentConfig` — scene size, season-like
surface composition, cloud fraction, S2 drift magnitude, beam count, … — and
the cartesian product of the axes (times ``replicates``) yields the granule
fleet.  Every granule gets its own deterministic seed derived from the
campaign seed and the granule index, so campaign results are reproducible and
independent of worker scheduling.

Axes are addressed either by a short alias (``"cloud_fraction"``,
``"season"``, ``"drift_m"``, ...) or by a dotted path into the nested
experiment config (``"s2.cloud.thin_cloud_fraction"``,
``"atl03.solar_elevation_deg"``) — any field of any nested frozen dataclass
is sweepable without campaign-layer changes, except the campaign-wide
training knobs (:data:`CAMPAIGN_LEVEL_FIELDS`), which the shared classifier
reads from ``base`` and which are therefore rejected as axes.

:func:`CampaignConfig.fingerprint` gives a stable content hash of everything
that affects the science output (base config, grid, replicates, seed), which
names the campaign in results and dashboards.  It deliberately excludes
execution knobs (worker count, executor kind, cache location), so the same
science has one name whatever the parallelism.  Cache entries are keyed by
per-stage content fingerprints instead (:mod:`repro.pipeline`), which ignore
the execution knobs too.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field, is_dataclass, replace
from typing import Any, Mapping, Sequence

import numpy as np

from repro.config import SEASON_PRESETS
from repro.distributed.mapreduce import EXECUTORS
from repro.pipeline.fingerprint import canonical as _canonical
from repro.workflow.end_to_end import ExperimentConfig

#: Short names for commonly swept knobs, mapped to dotted config paths.
#: ``"season"``, ``"open_water_fraction"`` and scalar ``"drift_m"`` get
#: special handling in :func:`apply_scenario` instead of a plain path.
AXIS_ALIASES: dict[str, str] = {
    "scene_width_m": "scene.width_m",
    "scene_height_m": "scene.height_m",
    "n_leads": "scene.n_leads",
    "cloud_fraction": "s2.cloud.thin_cloud_fraction",
    "shadow_fraction": "s2.cloud.shadow_fraction",
    "solar_elevation_deg": "atl03.solar_elevation_deg",
}

#: ExperimentConfig fields that are campaign-wide by construction: one
#: classifier is trained on the pooled segments of every granule, so these
#: knobs are read from ``base`` only.  Sweeping them per granule would be
#: silently ignored (``model_kind``, ``epochs``, ``training``/``lstm``/
#: ``mlp``), break pooled concatenation (``window_length_m``), be
#: overwritten by the derived per-granule seed (``seed``), break the
#: Level-3 mosaic, which needs every granule on one shared grid (``l3``), or
#: break the serving layer, which builds one tile pyramid per fleet mosaic
#: (``serve``) — so they are rejected as grid axes.
CAMPAIGN_LEVEL_FIELDS = (
    "model_kind",
    "epochs",
    "training",
    "lstm",
    "mlp",
    "window_length_m",
    "seed",
    "l3",
    "serve",
)


def _replace_path(obj: Any, path: str, value: Any):
    """Return ``obj`` with the dataclass field at dotted ``path`` replaced."""
    head, _, rest = path.partition(".")
    if not is_dataclass(obj) or not hasattr(obj, head):
        raise ValueError(f"unknown scenario axis {path!r} for {type(obj).__name__}")
    if rest:
        return replace(obj, **{head: _replace_path(getattr(obj, head), rest, value)})
    if isinstance(value, list):
        value = tuple(value)
    return replace(obj, **{head: value})


def apply_scenario(base: ExperimentConfig, scenario: Mapping[str, Any]) -> ExperimentConfig:
    """Apply one scenario point (axis name -> value) to the base experiment.

    ``"season"`` maps through :data:`repro.config.SEASON_PRESETS` and sets all
    three surface-class fractions at once (they must sum to one, so sweeping
    one of them alone would always fail SceneConfig's validation).
    ``"open_water_fraction"`` likewise sets the requested open-water fraction
    and rescales the two ice fractions proportionally to keep the sum at one.
    A scalar ``"drift_m"`` is interpreted as the drift *magnitude* and
    decomposed into a fixed-ratio (0.6, 0.8) x/y offset whose Euclidean norm
    equals the requested value.
    """
    cfg = base
    for name, value in scenario.items():
        if name == "season":
            if value not in SEASON_PRESETS:
                raise ValueError(
                    f"unknown season {value!r}; expected one of {sorted(SEASON_PRESETS)}"
                )
            cfg = replace(cfg, scene=replace(cfg.scene, **SEASON_PRESETS[value]))
            continue
        if name == "open_water_fraction":
            value = float(value)
            if not 0.0 <= value < 1.0:
                raise ValueError("open_water_fraction must be in [0, 1)")
            scene = cfg.scene
            ice = scene.thick_ice_fraction + scene.thin_ice_fraction
            if ice <= 0.0:
                raise ValueError(
                    "cannot sweep open_water_fraction when the base scene has no ice"
                )
            scale = (1.0 - value) / ice
            cfg = replace(
                cfg,
                scene=replace(
                    scene,
                    open_water_fraction=value,
                    thick_ice_fraction=scene.thick_ice_fraction * scale,
                    thin_ice_fraction=scene.thin_ice_fraction * scale,
                ),
            )
            continue
        if name == "drift_m" and isinstance(value, (int, float)) and not isinstance(value, bool):
            value = (0.6 * float(value), 0.8 * float(value))
        cfg = _replace_path(cfg, AXIS_ALIASES.get(name, name), value)
    return cfg


def granule_seed(campaign_seed: int, index: int) -> int:
    """Deterministic per-granule seed: stable in (campaign seed, index) only."""
    seq = np.random.SeedSequence(entropy=campaign_seed, spawn_key=(index,))
    return int(seq.generate_state(1, dtype=np.uint32)[0])


def _format_value(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:g}"
    if isinstance(value, (tuple, list)):
        return "x".join(_format_value(v) for v in value)
    return str(value)


@dataclass(frozen=True)
class GranuleSpec:
    """One granule of a campaign: its identity, scenario point and experiment."""

    granule_id: str
    index: int
    replicate: int
    scenario: tuple[tuple[str, Any], ...]
    config: ExperimentConfig

    def scenario_dict(self) -> dict[str, Any]:
        return dict(self.scenario)


@dataclass(frozen=True)
class CampaignConfig:
    """A scenario grid over a base experiment, plus execution knobs.

    Parameters
    ----------
    base:
        The experiment every scenario point perturbs.
    grid:
        Mapping of axis name to the values it sweeps (also accepted in the
        canonical ``((name, (values...)), ...)`` tuple form).  An empty grid
        yields a single-granule campaign of the base config.
    replicates:
        Independent granules per grid point (distinct seeds).
    seed:
        Campaign seed; per-granule seeds and the pooled-training seed derive
        from it deterministically.
    n_workers / executor:
        Parallel fan-out width and executor kind for the curation and
        inference stages (``n_workers=1`` always runs serially).
    use_shm:
        Route process-executor fan-out payloads through shared memory
        (zero-copy array transport); execution knob only, excluded from the
        fingerprint like ``n_workers``/``executor``.
    cache_dir:
        Root of the resumable on-disk stage cache (``<cache_dir>/stages/``);
        ``None`` disables caching.
    """

    base: ExperimentConfig = field(default_factory=ExperimentConfig)
    grid: tuple[tuple[str, tuple[Any, ...]], ...] = ()
    replicates: int = 1
    seed: int = 0
    n_workers: int = 1
    executor: str = "process"
    use_shm: bool = True
    cache_dir: str | None = None

    def __post_init__(self) -> None:
        grid = self.grid
        if isinstance(grid, Mapping):
            grid = tuple((str(name), tuple(values)) for name, values in grid.items())
        else:
            grid = tuple((str(name), tuple(values)) for name, values in grid)
        for name, values in grid:
            if not values:
                raise ValueError(f"scenario axis {name!r} must have at least one value")
            if name != "season":
                head = AXIS_ALIASES.get(name, name).partition(".")[0]
                if head in CAMPAIGN_LEVEL_FIELDS:
                    raise ValueError(
                        f"scenario axis {name!r} targets the campaign-wide field "
                        f"{head!r}: the campaign trains one shared classifier, so "
                        "set it on `base` (use `replicates` to vary seeds)"
                    )
        object.__setattr__(self, "grid", grid)
        if self.replicates <= 0:
            raise ValueError("replicates must be positive")
        if self.n_workers <= 0:
            raise ValueError("n_workers must be positive")
        if self.executor not in EXECUTORS:
            raise ValueError(f"executor must be one of {EXECUTORS}, got {self.executor!r}")
        if self.cache_dir is not None:
            object.__setattr__(self, "cache_dir", str(self.cache_dir))

    # -- expansion -----------------------------------------------------------

    @property
    def axis_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.grid)

    @property
    def n_granules(self) -> int:
        n = self.replicates
        for _, values in self.grid:
            n *= len(values)
        return n

    def scenarios(self) -> list[tuple[tuple[str, Any], ...]]:
        """All grid points in deterministic (row-major) order."""
        names = self.axis_names
        combos = itertools.product(*(values for _, values in self.grid))
        return [tuple(zip(names, combo)) for combo in combos]

    def expand(self) -> list[GranuleSpec]:
        """Expand the grid into per-granule specs with derived seeds.

        The expansion order (scenario-major, replicate-minor) defines the
        canonical granule order used for pooled training, so results are
        bit-for-bit identical however the fleet is scheduled.  The index in
        each granule id is zero-padded to one width across the fleet (at
        least three digits), so sorted ids keep that canonical order.
        """
        width = max(3, len(str(self.n_granules - 1)))
        specs: list[GranuleSpec] = []
        index = 0
        for scenario in self.scenarios():
            for replicate in range(self.replicates):
                cfg = apply_scenario(self.base, dict(scenario))
                cfg = replace(cfg, seed=granule_seed(self.seed, index))
                parts = [f"{name}={_format_value(value)}" for name, value in scenario]
                if self.replicates > 1:
                    parts.append(f"r{replicate}")
                suffix = ("-" + "-".join(parts)) if parts else ""
                specs.append(
                    GranuleSpec(
                        granule_id=f"g{index:0{width}d}{suffix}",
                        index=index,
                        replicate=replicate,
                        scenario=scenario,
                        config=cfg,
                    )
                )
                index += 1
        _ensure_unique_granule_ids(specs)
        return specs

    # -- identity ------------------------------------------------------------

    def fingerprint(self) -> str:
        """Stable hash of the science-relevant configuration.

        Covers ``base``, ``grid``, ``replicates`` and ``seed``; excludes
        ``n_workers``/``executor``/``cache_dir``, which never change the
        science output.
        """
        payload = {
            "version": "campaign-v1",
            "base": _canonical(self.base),
            "grid": _canonical(self.grid),
            "replicates": self.replicates,
            "seed": self.seed,
        }
        digest = hashlib.sha256(
            json.dumps(payload, sort_keys=True, default=str).encode("utf-8")
        )
        return digest.hexdigest()[:16]


def _ensure_unique_granule_ids(specs: Sequence[GranuleSpec]) -> None:
    """Reject duplicate granule ids with a clear error.

    Granule ids key the result lookup and feed every per-granule cache
    fingerprint, so a collision would silently mix two granules' results.  Ids
    embed the expansion index, so duplicates cannot arise from a well-formed
    expansion — this guards custom spec construction and future id schemes.
    """
    seen: dict[str, int] = {}
    for spec in specs:
        if spec.granule_id in seen:
            raise ValueError(
                f"duplicate granule_id {spec.granule_id!r} (indices "
                f"{seen[spec.granule_id]} and {spec.index}): granule ids key "
                "the campaign's results and cache entries, so they must be unique"
            )
        seen[spec.granule_id] = spec.index
