"""Shared utilities: random-number handling and validation."""

from repro.utils.random import default_rng, derive_rng, spawn_rngs
from repro.utils.validation import (
    ensure_1d,
    ensure_2d,
    ensure_finite,
    ensure_in_range,
    ensure_monotonic,
    ensure_positive,
    ensure_same_length,
)

__all__ = [
    "default_rng",
    "derive_rng",
    "spawn_rngs",
    "ensure_1d",
    "ensure_2d",
    "ensure_finite",
    "ensure_in_range",
    "ensure_monotonic",
    "ensure_positive",
    "ensure_same_length",
]
