"""The on-disk, content-addressed cache of the pipeline and campaign layers.

:class:`ArtifactStore` is the generic namespaced pickle store: one directory
per namespace, one atomically-written file per key, corrupt entries treated
as misses (and moved aside, counted and logged, never silently dropped).
:class:`StageCache` wraps it with content-addressed per-stage
keys (``<stage>-<fingerprint>``) under ``<root>/stages/``, shared by every
campaign and workflow run under the same cache root.  It is the only cache
tier: because every key is a content fingerprint, an entry can never be
served for a config or stage version it was not made under.

Misses are reported with the :data:`MISS` sentinel (when asked for), so a
legitimately cached ``None`` is distinguishable from an absent entry.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from pathlib import Path
from typing import Any, Mapping

from repro.obs.core import Obs, default_obs

#: Pickle protocol used for cached artifacts.  Protocol 5 pickles NumPy
#: arrays from their own buffers, without an intermediate ``tobytes`` copy.
_PICKLE_PROTOCOL = 5

#: Sentinel distinguishing "no cached entry" from a cached ``None``.
#: ``load(key, MISS) is MISS`` is the canonical miss test.
MISS = object()

#: Namespace of the content-addressed stage tier under a cache root.
STAGE_NAMESPACE = "stages"


class ArtifactStore:
    """Pickle store for one namespace, keyed by (namespace, artifact key).

    Writes are atomic (temp file + ``os.replace``) so an interrupted run
    never leaves a truncated artifact behind; unreadable entries are treated
    as misses and recomputed, after being moved aside to ``<key>.corrupt``,
    counted in ``cache_corrupt_total{namespace}`` and logged as a
    ``cache.corrupt`` warning on ``obs`` (``None``: the process default).
    """

    def __init__(self, root: str | Path, namespace: str, obs: Obs | None = None) -> None:
        if not namespace:
            raise ValueError("namespace must be a non-empty string")
        self.root = Path(root)
        self.namespace = namespace
        self.dir = self.root / namespace
        self.obs = obs if obs is not None else default_obs()

    def path(self, key: str) -> Path:
        """Filesystem path of one artifact."""
        if not key or "/" in key or key.startswith("."):
            raise ValueError(f"invalid cache key {key!r}")
        return self.dir / f"{key}.pkl"

    def has(self, key: str) -> bool:
        return self.path(key).is_file()

    def load(self, key: str, default: Any = None) -> Any:
        """Return the cached artifact, or ``default`` on a miss.

        A corrupt or unreadable entry (interrupted write under a pre-atomic
        layout, disk error, unpicklable future version) counts as a miss,
        and is set aside (:meth:`_set_aside`) so the recomputed artifact
        replaces it.  Pass :data:`MISS` as the default to distinguish a
        cached ``None`` from an absent entry.
        """
        path = self.path(key)
        if not path.is_file():
            return default
        try:
            with open(path, "rb") as fh:
                return pickle.load(fh)
        except FileNotFoundError:
            return default  # removed since the is_file() check: a plain miss
        except Exception as exc:
            self._set_aside(key, path, exc)
            return default

    def _set_aside(self, key: str, path: Path, exc: Exception) -> None:
        """Move a corrupt entry to ``<key>.corrupt``, count it and log it."""
        aside = path.with_suffix(".corrupt")
        try:
            os.replace(path, aside)
        except OSError:
            aside = None  # another reader moved it first, or the disk refused
        obs = self.obs
        obs.counter("cache_corrupt_total", namespace=self.namespace).inc()
        obs.log.warning(
            "cache.corrupt",
            namespace=self.namespace,
            key=key,
            error=type(exc).__name__,
            moved_to=str(aside) if aside is not None else None,
        )

    def store(self, key: str, value: Any) -> Path:
        """Atomically persist one artifact and return its path."""
        path = self.path(key)
        self.dir.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=self.dir, prefix=f".{key}.", suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(value, fh, protocol=_PICKLE_PROTOCOL)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return path

    def keys(self) -> list[str]:
        """Keys of all readable-looking artifacts currently on disk."""
        if not self.dir.is_dir():
            return []
        return sorted(
            p.name[: -len(".pkl")]
            for p in self.dir.iterdir()
            if p.suffix == ".pkl" and not p.name.startswith(".")
        )

    def clear(self) -> int:
        """Delete every artifact of this namespace; returns the number removed."""
        removed = 0
        if not self.dir.is_dir():
            return removed
        for p in list(self.dir.iterdir()):
            if p.suffix in (".pkl", ".tmp") or p.name.startswith("."):
                try:
                    p.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed


class StageCache:
    """Content-addressed store of per-stage output bundles.

    Keys are ``<stage>-<fingerprint>``; a bundle holds the stage's outputs
    and the seconds its original computation took (so resumed runs rebuild
    timing reports faithfully).  Because keys are content fingerprints, the
    tier is shared across campaign fingerprints: two campaigns differing
    only in their sea-surface config hit the same curated-stage entries.
    """

    def __init__(self, root: str | Path, obs: Obs | None = None) -> None:
        self.store = ArtifactStore(root, STAGE_NAMESPACE, obs=obs)

    def key(self, stage: str, fingerprint: str) -> str:
        return f"{stage}-{fingerprint}"

    def load_stage(self, stage: str, fingerprint: str) -> Any:
        """Return the ``{"outputs": ..., "seconds": ...}`` bundle, or :data:`MISS`.

        A readable entry that is not a well-formed bundle (e.g. written by a
        different code version) is treated as a miss rather than trusted.
        """
        bundle = self.store.load(self.key(stage, fingerprint), MISS)
        if (
            not isinstance(bundle, Mapping)
            or "outputs" not in bundle
            or "seconds" not in bundle
        ):
            return MISS
        return bundle

    def store_stage(
        self, stage: str, fingerprint: str, outputs: Mapping[str, Any], seconds: float
    ) -> None:
        self.store.store(
            self.key(stage, fingerprint),
            {"outputs": dict(outputs), "seconds": float(seconds)},
        )
