"""On-disk Level-3 products: strict self-description and the round trip.

Two satellite guarantees live here: products that cannot announce
themselves (bad sidecar, unknown format, truncated/corrupt npz) fail with
one actionable error type (`Level3ProductError`), and a written product
reloads **byte-identically** — property-tested over random variable sets,
dtypes and attrs with hypothesis.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geodesy.grid import GridDefinition
from repro.l3.product import Level3Grid
from repro.l3.writer import (
    L3_FORMAT,
    PRODUCT_FORMATS,
    Level3ProductError,
    load_sidecar,
    read_level3,
    write_level3,
)

HYPOTHESIS_SETTINGS = dict(max_examples=25, deadline=None)


def make_product(variables=None, attrs=None, ny=4, nx=6, seed=0):
    rng = np.random.default_rng(seed)
    grid = GridDefinition(x_min_m=0.0, y_min_m=0.0, cell_size_m=500.0, nx=nx, ny=ny)
    if variables is None:
        variables = {
            "n_segments": rng.integers(0, 5, grid.shape).astype(np.int64),
            "freeboard_mean": rng.normal(0.3, 0.1, grid.shape),
        }
    return Level3Grid(
        grid=grid,
        variables=variables,
        attrs=dict(attrs) if attrs else {},
        metadata={"kind": "granule", "granule_id": "g000", "fingerprint": "fp"},
    )


class TestSelfDescriptionErrors:
    def test_missing_sidecar_is_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="sidecar"):
            read_level3(tmp_path / "nope")

    def test_unparsable_sidecar(self, tmp_path):
        write_level3(make_product(), tmp_path / "p")
        (tmp_path / "p.json").write_text("{ truncated")
        with pytest.raises(Level3ProductError, match="not valid JSON"):
            read_level3(tmp_path / "p")

    def test_sidecar_without_format_tag(self, tmp_path):
        write_level3(make_product(), tmp_path / "p")
        payload = json.loads((tmp_path / "p.json").read_text())
        del payload["format"]
        (tmp_path / "p.json").write_text(json.dumps(payload))
        with pytest.raises(Level3ProductError, match="no 'format' tag"):
            read_level3(tmp_path / "p")

    def test_sidecar_that_is_not_an_object(self, tmp_path):
        write_level3(make_product(), tmp_path / "p")
        (tmp_path / "p.json").write_text(json.dumps(["not", "an", "object"]))
        with pytest.raises(Level3ProductError, match="no 'format' tag"):
            read_level3(tmp_path / "p")

    def test_unknown_format_version(self, tmp_path):
        write_level3(make_product(), tmp_path / "p")
        payload = json.loads((tmp_path / "p.json").read_text())
        payload["format"] = "repro-l3/999"
        (tmp_path / "p.json").write_text(json.dumps(payload))
        with pytest.raises(Level3ProductError, match="repro-l3/999"):
            read_level3(tmp_path / "p")

    def test_truncated_npz(self, tmp_path):
        npz_path, _ = write_level3(make_product(), tmp_path / "p")
        raw = npz_path.read_bytes()
        npz_path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(Level3ProductError, match="truncated or corrupt"):
            read_level3(tmp_path / "p")

    def test_npz_that_is_not_a_zip(self, tmp_path):
        npz_path, _ = write_level3(make_product(), tmp_path / "p")
        npz_path.write_bytes(b"this is not a zip archive")
        with pytest.raises(Level3ProductError, match="truncated or corrupt"):
            read_level3(tmp_path / "p")

    def test_missing_npz_is_file_not_found(self, tmp_path):
        npz_path, _ = write_level3(make_product(), tmp_path / "p")
        npz_path.unlink()
        with pytest.raises(FileNotFoundError, match="arrays"):
            read_level3(tmp_path / "p")

    def test_arrays_out_of_sync_with_sidecar(self, tmp_path):
        write_level3(make_product(), tmp_path / "p")
        payload = json.loads((tmp_path / "p.json").read_text())
        payload["variables"]["phantom"] = {"dtype": "float64", "shape": [4, 6]}
        (tmp_path / "p.json").write_text(json.dumps(payload))
        with pytest.raises(Level3ProductError, match="missing"):
            read_level3(tmp_path / "p")

    def test_declaration_mismatch(self, tmp_path):
        write_level3(make_product(), tmp_path / "p")
        payload = json.loads((tmp_path / "p.json").read_text())
        payload["variables"]["freeboard_mean"]["dtype"] = "int8"
        (tmp_path / "p.json").write_text(json.dumps(payload))
        with pytest.raises(Level3ProductError, match="does not match"):
            read_level3(tmp_path / "p")

    def test_format_valid_sidecar_with_missing_sections(self, tmp_path):
        # A sidecar with the right format tag but no grid/variable
        # description must still raise the one actionable type, not KeyError.
        write_level3(make_product(), tmp_path / "p")
        (tmp_path / "p.json").write_text(json.dumps({"format": L3_FORMAT}))
        with pytest.raises(Level3ProductError, match="malformed"):
            read_level3(tmp_path / "p")

    def test_format_valid_sidecar_with_degenerate_grid(self, tmp_path):
        write_level3(make_product(), tmp_path / "p")
        payload = json.loads((tmp_path / "p.json").read_text())
        payload["grid"]["cell_size_m"] = 0.0
        (tmp_path / "p.json").write_text(json.dumps(payload))
        with pytest.raises(Level3ProductError, match="malformed"):
            read_level3(tmp_path / "p")

    def test_error_type_is_a_value_error(self):
        # Callers that caught ValueError before the dedicated type keep working.
        assert issubclass(Level3ProductError, ValueError)

    def test_load_sidecar_happy_path(self, tmp_path):
        write_level3(make_product(), tmp_path / "p")
        payload = load_sidecar(tmp_path / "p")
        assert payload["format"] == L3_FORMAT
        assert "grid" in payload and "variables" in payload


# -- hypothesis round trip ---------------------------------------------------

_DTYPES = ("float64", "float32", "int64", "int32", "int16", "uint8", "bool")

_names = st.lists(
    st.text(
        alphabet=st.sampled_from("abcdefghijklmnopqrstuvwxyz_0123456789"),
        min_size=1,
        max_size=12,
    ).filter(lambda s: not s[0].isdigit()),
    min_size=1,
    max_size=5,
    unique=True,
)

_attr_text = st.text(
    alphabet=st.characters(codec="utf-8", exclude_categories=("Cs",)),
    max_size=20,
)


@st.composite
def products(draw):
    ny = draw(st.integers(min_value=1, max_value=5))
    nx = draw(st.integers(min_value=1, max_value=5))
    names = draw(_names)
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    grid = GridDefinition(
        x_min_m=float(draw(st.integers(-10_000, 10_000))),
        y_min_m=float(draw(st.integers(-10_000, 10_000))),
        cell_size_m=float(draw(st.integers(1, 5_000))),
        nx=nx,
        ny=ny,
    )
    variables = {}
    attrs = {}
    for name in names:
        dtype = draw(st.sampled_from(_DTYPES))
        if dtype.startswith("float"):
            layer = rng.normal(0.0, 1.0, grid.shape).astype(dtype)
            # Exercise non-finite payloads too: NaN/inf must survive verbatim.
            layer.flat[:: max(layer.size // 3, 1)] = draw(
                st.sampled_from([np.nan, np.inf, -np.inf, 0.0])
            )
        elif dtype == "bool":
            layer = rng.random(grid.shape) < 0.5
        else:
            layer = rng.integers(0, 100, grid.shape).astype(dtype)
        variables[name] = layer
        attrs[name] = {
            "units": draw(_attr_text),
            "long_name": draw(_attr_text),
        }
    return Level3Grid(grid=grid, variables=variables, attrs=attrs, metadata={"kind": "granule"})


class TestRoundTrip:
    @pytest.mark.parametrize("format", PRODUCT_FORMATS)
    def test_variables_named_like_savez_parameters(self, tmp_path, format):
        product = make_product(
            variables={"file": np.arange(24.0).reshape(4, 6), "allow_pickle": np.ones((4, 6))}
        )
        write_level3(product, tmp_path / "product", format=format)
        reloaded = read_level3(tmp_path / "product")
        for name, original in product.variables.items():
            np.testing.assert_array_equal(reloaded.variables[name], original)

    @given(product=products(), format=st.sampled_from(PRODUCT_FORMATS))
    @settings(**HYPOTHESIS_SETTINGS)
    def test_round_trip_is_byte_identical(self, product, format, tmp_path_factory):
        base = tmp_path_factory.mktemp("l3rt") / "product"
        write_level3(product, base, format=format)
        reloaded = read_level3(base)

        assert set(reloaded.variables) == set(product.variables)
        for name, original in product.variables.items():
            value = reloaded.variables[name]
            assert value.dtype == original.dtype
            assert value.shape == original.shape
            assert value.tobytes() == original.tobytes()

        assert reloaded.grid == product.grid
        assert reloaded.metadata == product.metadata
        # The writer stringifies attr values; keys and text survive exactly.
        for name, original_attrs in product.attrs.items():
            assert reloaded.attrs[name] == {
                str(k): str(v) for k, v in original_attrs.items()
            }

    def test_round_trip_accepts_either_sibling_path(self, tmp_path):
        product = make_product()
        write_level3(product, tmp_path / "p")
        for path in (tmp_path / "p", tmp_path / "p.json", tmp_path / "p.npz"):
            reloaded = read_level3(path)
            assert set(reloaded.variables) == set(product.variables)

    def test_raw_accepts_either_sibling_path(self, tmp_path):
        product = make_product()
        write_level3(product, tmp_path / "p", format="raw")
        for path in (tmp_path / "p", tmp_path / "p.json", tmp_path / "p.raw"):
            reloaded = read_level3(path)
            assert set(reloaded.variables) == set(product.variables)


class TestRawFormat:
    def test_raw_equals_npz_byte_for_byte(self, tmp_path):
        product = make_product(seed=42)
        write_level3(product, tmp_path / "npz_p", format="npz")
        write_level3(product, tmp_path / "raw_p", format="raw")
        from_npz = read_level3(tmp_path / "npz_p")
        from_raw = read_level3(tmp_path / "raw_p")
        assert set(from_raw.variables) == set(from_npz.variables)
        for name, expected in from_npz.variables.items():
            value = from_raw.variables[name]
            assert value.dtype == expected.dtype
            assert value.tobytes() == expected.tobytes()
        assert from_raw.grid == from_npz.grid
        assert from_raw.metadata == from_npz.metadata
        assert from_raw.attrs == from_npz.attrs

    def test_raw_variables_are_lazy_read_only_views(self, tmp_path):
        product = make_product(seed=3)
        write_level3(product, tmp_path / "p", format="raw")
        reloaded = read_level3(tmp_path / "p")
        for value in reloaded.variables.values():
            assert not value.flags.writeable
            assert not value.flags.owndata  # memmap-backed, not a copy
            with pytest.raises(ValueError):
                value[...] = 0

    def test_raw_views_survive_product_garbage_collection(self, tmp_path):
        product = make_product(seed=4)
        write_level3(product, tmp_path / "p", format="raw")
        reloaded = read_level3(tmp_path / "p")
        view = reloaded.variables["freeboard_mean"]
        expected = product.variables["freeboard_mean"]
        del reloaded  # the view's base chain pins the mapping
        assert view.tobytes() == expected.tobytes()

    def test_invalid_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="format"):
            write_level3(make_product(), tmp_path / "p", format="parquet")

    def test_truncated_blob(self, tmp_path):
        write_level3(make_product(), tmp_path / "p", format="raw")
        raw_path = tmp_path / "p.raw"
        blob = raw_path.read_bytes()
        raw_path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(Level3ProductError, match="truncat"):
            read_level3(tmp_path / "p")

    def test_missing_blob_is_file_not_found(self, tmp_path):
        write_level3(make_product(), tmp_path / "p", format="raw")
        (tmp_path / "p.raw").unlink()
        with pytest.raises(FileNotFoundError):
            read_level3(tmp_path / "p")

    def test_storage_section_missing_variable(self, tmp_path):
        write_level3(make_product(), tmp_path / "p", format="raw")
        payload = json.loads((tmp_path / "p.json").read_text())
        del payload["storage"]["arrays"]["freeboard_mean"]
        (tmp_path / "p.json").write_text(json.dumps(payload))
        with pytest.raises(Level3ProductError, match="freeboard_mean"):
            read_level3(tmp_path / "p")

    def test_malformed_storage_section(self, tmp_path):
        write_level3(make_product(), tmp_path / "p", format="raw")
        payload = json.loads((tmp_path / "p.json").read_text())
        payload["storage"] = {"layout": "raw"}  # no file / arrays
        (tmp_path / "p.json").write_text(json.dumps(payload))
        with pytest.raises(Level3ProductError, match="storage"):
            read_level3(tmp_path / "p")

    def test_storage_nbytes_inconsistent_with_declaration(self, tmp_path):
        write_level3(make_product(), tmp_path / "p", format="raw")
        payload = json.loads((tmp_path / "p.json").read_text())
        payload["storage"]["arrays"]["freeboard_mean"]["nbytes"] = 1
        (tmp_path / "p.json").write_text(json.dumps(payload))
        with pytest.raises(Level3ProductError):
            read_level3(tmp_path / "p")
