"""Self-describing on-disk Level-3 products (npz or raw arrays + JSON metadata).

A written product is a pair of sibling files sharing one base path:

* ``<base>.npz`` (``format="npz"``, the default) — the grid variables, one
  named float/int array each, stored verbatim (``allow_pickle=False``); or
  ``<base>.raw`` (``format="raw"``) — the same arrays concatenated into one
  flat blob at 64-byte-aligned offsets, so readers can ``np.memmap`` the
  file and touch only the bytes they serve.  Either way a round trip is
  **byte-identical**;
* ``<base>.json`` — everything needed to interpret the arrays without the
  library that wrote them: the format version, the full grid definition
  (extent, cell size, projection incl. ellipsoid), per-variable attributes
  (units, long name, dtype, shape), the provenance metadata (granule ids,
  config fingerprint), and — for raw products — a ``storage`` section with
  per-variable byte offsets into the blob.

This turns L3 products into shareable, versioned artifacts: two products
with the same fingerprint are interchangeable, and a product written by an
older code version announces itself through the ``format`` field instead of
failing obscurely.  The raw layout is what the serve tier's zero-copy read
path builds on: ``read_level3`` of a raw product returns lazy read-only
memmap views whose base chain pins the mapping, so decoding one tile reads
one tile's pages — not the whole archive.
"""

from __future__ import annotations

import json
import zipfile
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from repro.geodesy.grid import GridDefinition
from repro.l3.product import Level3Grid

#: Format tag embedded in (and required from) every product's JSON sidecar.
L3_FORMAT = "repro-l3/1"

#: Array-container layouts write_level3 can produce.
PRODUCT_FORMATS = ("npz", "raw")

#: Per-variable alignment inside a raw blob (cache-line / SIMD friendly).
_RAW_ALIGN = 64

#: Keys of the per-variable JSON entries that describe the array itself
#: (everything else is a free-form attribute such as units/long_name).
_ARRAY_KEYS = ("dtype", "shape")


class Level3ProductError(ValueError):
    """An on-disk Level-3 product that cannot be interpreted.

    Raised for every way a product pair can fail to announce itself — a
    sidecar that is not JSON, lacks the ``format`` tag, or carries an
    unknown format version, and an array container (npz or raw blob) that is
    truncated, corrupt, or out of sync with its sidecar's declarations.  The
    message always says which file is at fault and what to do about it,
    honouring the module promise that products announce themselves instead
    of failing obscurely.
    """


def _base_path(path: str | Path) -> Path:
    """Normalise a product path: accept the base or any sibling file."""
    base = Path(path)
    if base.suffix in (".npz", ".json", ".raw"):
        base = base.with_suffix("")
    return base


def load_sidecar(path: str | Path) -> dict[str, Any]:
    """Parse and validate a product's JSON sidecar (without touching arrays).

    This is the catalog's fast path — everything needed to index a product
    (grid extent, variables, provenance) lives in the sidecar.  Raises
    :class:`Level3ProductError` when the sidecar is not valid JSON, is not a
    JSON object, lacks the ``format`` tag, or declares an unknown format.
    """
    base = _base_path(path)
    json_path = base.with_name(base.name + ".json")
    if not json_path.is_file():
        raise FileNotFoundError(f"no Level-3 metadata sidecar at {json_path}")
    try:
        payload = json.loads(json_path.read_text())
    except json.JSONDecodeError as exc:
        raise Level3ProductError(
            f"sidecar {json_path} is not valid JSON ({exc}); the write was "
            "likely interrupted — regenerate the product with write_level3"
        ) from exc
    if not isinstance(payload, dict) or "format" not in payload:
        raise Level3ProductError(
            f"sidecar {json_path} has no 'format' tag, so it is not a "
            "repro Level-3 product sidecar; products written by write_level3 "
            f"always declare format={L3_FORMAT!r}"
        )
    fmt = payload["format"]
    if fmt != L3_FORMAT:
        raise Level3ProductError(
            f"sidecar {json_path} declares unsupported Level-3 format {fmt!r} "
            f"(this library reads {L3_FORMAT!r}); it was written by an "
            "incompatible version — rewrite the product or upgrade the reader"
        )
    return payload


def parse_sidecar_description(
    payload: Mapping[str, Any], source: str | Path
) -> tuple[GridDefinition, dict[str, Mapping[str, Any]]]:
    """The validated ``(grid, variables)`` description of a sidecar payload.

    One parser for every consumer of the description — the reader and the
    serving catalog — so a format-valid sidecar whose grid/variable section
    is missing or malformed fails identically everywhere: with a
    :class:`Level3ProductError` naming ``source``, never a bare ``KeyError``.
    """
    try:
        grid = GridDefinition.from_dict(payload["grid"])
        declared = payload["variables"]
        if not isinstance(declared, Mapping) or not all(
            isinstance(spec, Mapping) for spec in declared.values()
        ):
            raise TypeError("'variables' must map names to attribute objects")
    except (KeyError, TypeError, ValueError) as exc:
        raise Level3ProductError(
            f"sidecar {source} declares the right format but its grid/"
            f"variable description is malformed ({exc!r}); regenerate the "
            "product with write_level3"
        ) from exc
    return grid, {str(name): spec for name, spec in declared.items()}


def parse_sidecar_storage(
    payload: Mapping[str, Any], source: str | Path
) -> dict[str, Any] | None:
    """The validated ``storage`` section of a sidecar, or ``None`` for npz.

    Raw-format sidecars carry ``{"layout": "raw", "file": <name>, "arrays":
    {name: {"offset": int, "nbytes": int}}}``.  A sidecar without the
    section (every pre-raw product ever written) is an npz product.
    """
    storage = payload.get("storage")
    if storage is None:
        return None
    try:
        if not isinstance(storage, Mapping):
            raise TypeError("'storage' must be an object")
        layout = storage["layout"]
        if layout != "raw":
            raise ValueError(f"unknown storage layout {layout!r}")
        arrays = storage["arrays"]
        if not isinstance(arrays, Mapping):
            raise TypeError("'storage.arrays' must map names to offsets")
        parsed = {
            str(name): {"offset": int(spec["offset"]), "nbytes": int(spec["nbytes"])}
            for name, spec in arrays.items()
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise Level3ProductError(
            f"sidecar {source} has a malformed 'storage' section ({exc!r}); "
            "regenerate the product with write_level3"
        ) from exc
    return {"layout": "raw", "file": str(storage.get("file", "")), "arrays": parsed}


def _write_raw(raw_path: Path, variables: Mapping[str, np.ndarray]) -> dict[str, Any]:
    """Write the flat blob; return the sidecar ``storage`` section."""
    arrays: dict[str, dict[str, int]] = {}
    cursor = 0
    contiguous: list[tuple[str, np.ndarray, int]] = []
    for name, value in variables.items():
        arr = np.ascontiguousarray(value)
        cursor = -(-cursor // _RAW_ALIGN) * _RAW_ALIGN
        arrays[str(name)] = {"offset": cursor, "nbytes": int(arr.nbytes)}
        contiguous.append((str(name), arr, cursor))
        cursor += arr.nbytes
    with open(raw_path, "wb") as fh:
        fh.truncate(cursor)
        for _, arr, offset in contiguous:
            fh.seek(offset)
            fh.write(arr.tobytes())
    return {"layout": "raw", "file": raw_path.name, "arrays": arrays}


def write_level3(
    product: Level3Grid, path: str | Path, format: str = "npz"
) -> tuple[Path, Path]:
    """Write one product; returns the ``(array_path, json_path)`` pair.

    ``format="npz"`` writes the classic zip archive; ``format="raw"`` writes
    the flat memmap-able blob with per-variable offsets recorded in the
    sidecar's ``storage`` section.  Both round-trip byte-identically through
    :func:`read_level3`.
    """
    if format not in PRODUCT_FORMATS:
        raise ValueError(f"format must be one of {PRODUCT_FORMATS}, got {format!r}")
    base = _base_path(path)
    base.parent.mkdir(parents=True, exist_ok=True)
    array_path = base.with_name(base.name + ("." + format))
    json_path = base.with_name(base.name + ".json")

    variables: dict[str, Any] = {}
    for name, value in product.variables.items():
        variables[name] = {
            "dtype": str(value.dtype),
            "shape": list(value.shape),
            **{str(k): str(v) for k, v in product.attrs.get(name, {}).items()},
        }
    payload = {
        "format": L3_FORMAT,
        "grid": product.grid.as_dict(),
        "variables": variables,
        "metadata": dict(product.metadata),
    }
    if format == "raw":
        # Blob first: the offsets land in the sidecar, and an interrupted
        # write leaves no sidecar pointing at a half-written blob.
        payload["storage"] = _write_raw(array_path, product.variables)
    # Serialise the metadata first so an unserialisable entry fails before
    # the sidecar file is touched.
    encoded = json.dumps(payload, indent=2, sort_keys=True)

    if format == "npz":
        _write_npz(array_path, product.variables)
    json_path.write_text(encoded + "\n")
    return array_path, json_path


def _write_npz(path: Path, arrays: Mapping[str, np.ndarray]) -> None:
    """Write ``arrays`` as an uncompressed ``.npz`` archive, one ``<name>.npy`` each.

    The same layout as ``np.savez(path, **arrays)``, which cannot take a
    variable named ``file`` or ``allow_pickle`` (they collide with its own
    parameters).
    """
    with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_STORED, allowZip64=True) as archive:
        for name, value in arrays.items():
            with archive.open(name + ".npy", "w", force_zip64=True) as member:
                np.lib.format.write_array(member, np.asanyarray(value), allow_pickle=False)


def _read_raw(
    base: Path,
    storage: Mapping[str, Any],
    declared: Mapping[str, Mapping[str, Any]],
) -> dict[str, np.ndarray]:
    """Lazy read-only views into the raw blob, validated against the sidecar.

    The returned arrays are zero-copy windows of one shared ``np.memmap``;
    the mapping lives exactly as long as any view's base chain does, and
    the OS pages in only what is actually read — a one-tile decode touches
    one tile's worth of pages.
    """
    raw_path = base.with_name(storage["file"] or base.name + ".raw")
    if not raw_path.is_file():
        raise FileNotFoundError(f"no Level-3 arrays at {raw_path}")
    entries = storage["arrays"]
    missing = sorted(set(declared) - set(entries))
    if missing:
        raise Level3ProductError(
            f"product arrays missing from {raw_path}: {missing}; the blob "
            "does not match its sidecar — regenerate with write_level3"
        )
    size = raw_path.stat().st_size
    needed = max(
        (entry["offset"] + entry["nbytes"] for entry in entries.values()), default=0
    )
    if size < needed:
        raise Level3ProductError(
            f"raw blob {raw_path} is truncated ({size} bytes, sidecar "
            f"declares {needed}); regenerate the product with write_level3"
        )
    variables: dict[str, np.ndarray] = {}
    mm = np.memmap(raw_path, dtype=np.uint8, mode="r") if size else None
    for name, spec in declared.items():
        entry = entries[name]
        dtype = np.dtype(spec["dtype"])
        shape = tuple(int(n) for n in spec["shape"])
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        if nbytes != entry["nbytes"]:
            raise Level3ProductError(
                f"variable {name!r} in {raw_path} does not match its sidecar "
                f"declaration: storage says {entry['nbytes']} bytes, "
                f"dtype/shape imply {nbytes}"
            )
        if nbytes == 0:
            value = np.empty(shape, dtype=dtype)
        else:
            value = np.ndarray(shape, dtype=dtype, buffer=mm, offset=entry["offset"])
        value.flags.writeable = False
        variables[name] = value
    return variables


def read_level3(path: str | Path) -> Level3Grid:
    """Reload a written product bit-identically (arrays byte-equal).

    The container format is discovered from the sidecar: npz products load
    eagerly as before; raw products come back as lazy **read-only** memmap
    views (copy at mutation sites if you need scratch space).  Raises
    :class:`Level3ProductError` (a ``ValueError``) whenever the pair cannot
    be interpreted: a bad or version-incompatible sidecar, a truncated or
    corrupt container, or arrays out of sync with their declarations.  A
    missing file raises ``FileNotFoundError`` as usual.
    """
    base = _base_path(path)
    payload = load_sidecar(base)
    grid, declared = parse_sidecar_description(payload, f"{base}.json")
    storage = parse_sidecar_storage(payload, f"{base}.json")

    if storage is not None:
        try:
            variables = _read_raw(base, storage, declared)
        except (Level3ProductError, FileNotFoundError):
            raise
        except Exception as exc:
            raw_name = storage["file"] or base.name + ".raw"
            raise Level3ProductError(
                f"cannot map product arrays from {base.with_name(raw_name)} "
                f"({exc}); the blob is truncated or corrupt — regenerate the "
                "product with write_level3"
            ) from exc
    else:
        npz_path = base.with_name(base.name + ".npz")
        variables = {}
        if not npz_path.is_file():
            raise FileNotFoundError(f"no Level-3 arrays at {npz_path}")
        try:
            with np.load(npz_path, allow_pickle=False) as archive:
                missing = sorted(set(declared) - set(archive.files))
                if missing:
                    raise Level3ProductError(
                        f"product arrays missing from {npz_path}: {missing}; the npz "
                        "does not match its sidecar — regenerate with write_level3"
                    )
                for name, spec in declared.items():
                    value = archive[name]
                    if str(value.dtype) != spec["dtype"] or list(value.shape) != list(
                        spec["shape"]
                    ):
                        raise Level3ProductError(
                            f"variable {name!r} in {npz_path} does not match its "
                            f"sidecar declaration: {value.dtype}{value.shape} vs "
                            f"{spec['dtype']}{tuple(spec['shape'])}"
                        )
                    variables[name] = value
        except Level3ProductError:
            raise
        except Exception as exc:
            # zipfile.BadZipFile for a truncated archive, OSError/ValueError for
            # corrupt members — one actionable error type for all of them.
            raise Level3ProductError(
                f"cannot read product arrays from {npz_path} ({exc}); the npz is "
                "truncated or corrupt — regenerate the product with write_level3"
            ) from exc

    attrs = {
        name: {k: v for k, v in spec.items() if k not in _ARRAY_KEYS}
        for name, spec in declared.items()
    }
    return Level3Grid(
        grid=grid,
        variables=variables,
        attrs=attrs,
        metadata=dict(payload.get("metadata", {})),
    )
