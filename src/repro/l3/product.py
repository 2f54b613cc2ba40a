"""The Level-3 gridded product container.

A :class:`Level3Grid` is one gridded composite: a
:class:`~repro.geodesy.grid.GridDefinition` plus named 2-D variables of the
grid's shape, per-variable attributes (units, long names) and free-form
provenance metadata (granule ids, content fingerprint).
Both per-granule grids (``kind="granule"``) and multi-granule mosaics
(``kind="mosaic"``) use this container; they differ only in their variable
sets and metadata.  The on-disk form is written/read by :mod:`repro.l3.writer`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.geodesy.grid import GridDefinition

#: Attributes of every variable a Level-3 product may carry (CF-style
#: units/long_name pairs; the writer embeds them in the JSON metadata).
VARIABLE_ATTRS: dict[str, dict[str, str]] = {
    "n_segments": {"units": "1", "long_name": "classified segments per cell"},
    "n_freeboard_segments": {
        "units": "1",
        "long_name": "ice segments contributing to the freeboard statistics",
    },
    "freeboard_mean": {"units": "m", "long_name": "mean sea-ice freeboard"},
    "freeboard_median": {"units": "m", "long_name": "median sea-ice freeboard"},
    "freeboard_std": {"units": "m", "long_name": "freeboard standard deviation"},
    "freeboard_mad": {"units": "m", "long_name": "freeboard median absolute deviation"},
    "thickness_mean": {"units": "m", "long_name": "mean hydrostatic sea-ice thickness"},
    "thickness_std": {"units": "m", "long_name": "thickness standard deviation"},
    "class_fraction_thick_ice": {"units": "1", "long_name": "thick/snow-ice fraction"},
    "class_fraction_thin_ice": {"units": "1", "long_name": "thin-ice fraction"},
    "class_fraction_open_water": {"units": "1", "long_name": "open-water fraction"},
    "n_granules": {"units": "1", "long_name": "granules contributing to the cell"},
    "coverage_fraction": {
        "units": "1",
        "long_name": "fraction of the fleet's granules covering the cell",
    },
}


@dataclass
class Level3Grid:
    """One gridded Level-3 composite (per-granule grid or mosaic).

    ``variables`` maps variable name to a ``(ny, nx)`` array; ``attrs``
    carries per-variable attributes (defaults from :data:`VARIABLE_ATTRS`);
    ``metadata`` is free-form JSON-serialisable provenance (``kind``,
    ``granule_id``/``granule_ids``, ``fingerprint``).
    """

    grid: GridDefinition
    variables: dict[str, np.ndarray]
    attrs: dict[str, dict[str, str]] = field(default_factory=dict)
    metadata: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name, value in self.variables.items():
            value = np.asarray(value)
            if value.shape != self.grid.shape:
                raise ValueError(
                    f"variable {name!r} has shape {value.shape}, "
                    f"expected the grid shape {self.grid.shape}"
                )
            self.variables[name] = value
        for name in self.variables:
            self.attrs.setdefault(name, dict(VARIABLE_ATTRS.get(name, {})))

    @property
    def kind(self) -> str:
        """``"granule"`` or ``"mosaic"``."""
        return str(self.metadata.get("kind", "granule"))

    def variable(self, name: str) -> np.ndarray:
        try:
            return self.variables[name]
        except KeyError:
            raise KeyError(
                f"no variable {name!r} in this product; available: "
                f"{sorted(self.variables)}"
            ) from None

    def covered_mask(self) -> np.ndarray:
        """Boolean (ny, nx) mask of cells with at least one segment."""
        return np.asarray(self.variable("n_segments")) > 0

    def coverage_fraction(self) -> float:
        """Fraction of grid cells containing at least one segment."""
        return float(np.count_nonzero(self.covered_mask())) / float(self.grid.n_cells)

    def summary_row(self) -> dict[str, object]:
        """One table row describing this product (see ``l3_coverage_table``)."""
        covered = int(np.count_nonzero(self.covered_mask()))
        freeboard = self.variables.get("freeboard_mean")
        thickness = self.variables.get("thickness_mean")
        return {
            "product": self.metadata.get(
                "granule_id", self.metadata.get("kind", "granule")
            ),
            "kind": self.kind,
            "cells": int(self.grid.n_cells),
            "covered": covered,
            "coverage_percent": round(100.0 * self.coverage_fraction(), 2),
            "n_segments": int(np.asarray(self.variable("n_segments")).sum()),
            "mean_freeboard_m": _finite_mean(freeboard),
            "mean_thickness_m": _finite_mean(thickness),
        }


def _finite_mean(values: np.ndarray | None) -> float:
    if values is None:
        return float("nan")
    finite = np.isfinite(values)
    if not finite.any():
        return float("nan")
    return float(np.asarray(values)[finite].mean())
