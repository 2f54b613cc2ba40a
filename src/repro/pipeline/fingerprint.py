"""Content fingerprints for pipeline stages and campaign configs.

A *fingerprint* is a short stable hash of everything that determines an
artifact's value: the producing stage's name and version, the slice of the
experiment config the stage reads, and the fingerprints of its upstream
artifacts.  Because upstream fingerprints are part of the payload, a change
anywhere in the config invalidates exactly the stages downstream of it and
nothing else — the property the stage-granular cache is built on.

:func:`canonical` converts nested (frozen) dataclasses, mappings and
sequences into a JSON-stable structure; it is shared with
:meth:`repro.campaign.config.CampaignConfig.fingerprint` so the campaign
and stage tiers hash configs identically.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields, is_dataclass
from typing import Any, Mapping

import numpy as np

#: Length of the hex digest prefix used everywhere a fingerprint is stored.
FINGERPRINT_LENGTH = 16


def canonical(obj: Any) -> Any:
    """Convert nested dataclasses/sequences to a JSON-stable structure."""
    if is_dataclass(obj) and not isinstance(obj, type):
        out: dict[str, Any] = {"__type__": type(obj).__name__}
        for f in fields(obj):
            out[f.name] = canonical(getattr(obj, f.name))
        return out
    if isinstance(obj, Mapping):
        return {str(k): canonical(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def digest(payload: Any) -> str:
    """Stable hex digest of a JSON-serialisable payload."""
    encoded = json.dumps(canonical(payload), sort_keys=True, default=str).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()[:FINGERPRINT_LENGTH]


def config_slice(config: Any, paths: tuple[str, ...]) -> dict[str, Any]:
    """Extract the declared dotted-path slice of a (nested) dataclass config.

    ``paths`` name exactly the fields a stage reads (``"sea_surface"``,
    ``"s2.cloud.thin_cloud_fraction"``, ...).  Narrow declarations are what
    make fingerprints precise: a stage that declares ``("sea_surface",)``
    is untouched by a change to ``scene`` or ``training``.
    """
    out: dict[str, Any] = {}
    for path in paths:
        value = config
        for part in path.split("."):
            if not hasattr(value, part):
                raise ValueError(
                    f"config path {path!r} does not resolve on {type(config).__name__}"
                )
            value = getattr(value, part)
        out[path] = canonical(value)
    return out


def stage_fingerprint(
    name: str,
    version: str,
    config_payload: Mapping[str, Any],
    context_payload: Mapping[str, Any],
    input_fingerprints: Mapping[str, str | list[str]],
) -> str:
    """Fingerprint of one stage execution (and of every artifact it outputs).

    A pooled stage's inputs are lists of its members' fingerprints, in
    canonical granule order, so any member or any reordering changes it.
    """
    return digest(
        {
            "stage": name,
            "version": version,
            "config": dict(config_payload),
            "context": dict(context_payload),
            "inputs": dict(input_fingerprints),
        }
    )
