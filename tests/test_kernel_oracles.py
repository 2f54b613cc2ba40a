"""The oracle boundary: reference loops stay out of the library, and
:func:`repro.kernels.reference.oracles` swaps exactly the kernel entry points.

The library runs one implementation per kernel.  Its reference loops are
test oracles: only tests and benchmarks import :mod:`repro.kernels.reference`,
and ``oracles()`` is how they run a whole path on them.  These tests pin that
no library module imports the oracle module, that ``oracles()`` replaces
every entry point that has an oracle and nothing else, restoring them even
when the block raises, and that the paths the reference-side benchmarks time
(``build_pyramid``, ``IncrementalPyramidBuilder.update``,
``Level3Processor.grid_granule``) really reach the oracles under it.
"""

from __future__ import annotations

import ast
import inspect
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro.config import CLASS_OPEN_WATER, CLASS_THICK_ICE
from repro.geodesy.grid import GridDefinition
from repro.kernels import (
    confidence,
    drift,
    gridding,
    lstm,
    pyramid,
    random_field,
    resampling,
    sea_surface,
)
from repro.kernels import reference as kref
from repro.kernels.reference import ORACLES, oracles
from repro.l3 import Level3Processor
from repro.l3.merge import MosaicAccumulator
from repro.serve import build_pyramid
from repro.serve.live import IncrementalPyramidBuilder
from tests.test_ingest_service import GRID, SERVE, localized_granule
from tests.test_l3_processor import make_beam

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
KERNEL_MODULES = (
    confidence,
    drift,
    gridding,
    lstm,
    pyramid,
    random_field,
    resampling,
    sea_surface,
)
ORACLE_MODULE = "repro.kernels.reference"


def imports_the_oracles(tree: ast.AST) -> bool:
    """Whether a module imports ``repro.kernels.reference`` in any spelling."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(alias.name == ORACLE_MODULE for alias in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            if node.module == ORACLE_MODULE:
                return True
            if node.module == "repro.kernels" and any(
                alias.name == "reference" for alias in node.names
            ):
                return True
    return False


def public_functions(module) -> dict[str, object]:
    return {
        name: value
        for name, value in vars(module).items()
        if inspect.isfunction(value) and not name.startswith("_")
    }


def test_the_scan_sees_every_import_spelling():
    for source in (
        "import repro.kernels.reference",
        "from repro.kernels.reference import oracles",
        "from repro.kernels import reference",
        "from repro.kernels import drift, reference as kref",
    ):
        assert imports_the_oracles(ast.parse(source)), source
    assert not imports_the_oracles(ast.parse("from repro.kernels import drift as kdrift"))


def test_no_library_module_imports_the_oracles():
    offenders = [
        str(path.relative_to(SRC))
        for path in sorted(SRC.rglob("*.py"))
        if path != SRC / "kernels" / "reference.py"
        and imports_the_oracles(ast.parse(path.read_text()))
    ]
    assert offenders == []


def test_every_oracle_names_a_kernel_entry_point():
    assert {module for module, _ in ORACLES} == set(KERNEL_MODULES)
    for (module, name), oracle in ORACLES.items():
        kernel = getattr(module, name)
        assert kernel.__module__ == module.__name__, name
        assert oracle.__module__ == ORACLE_MODULE, name
        assert oracle.__name__ == f"{name}_reference", name
    # Every reference loop of the oracle module is installed by oracles().
    loops = {name for name in public_functions(kref) if name.endswith("_reference")}
    assert loops == {oracle.__name__ for oracle in ORACLES.values()}


def test_oracles_replace_exactly_the_entry_points_that_have_one():
    before = {module: public_functions(module) for module in KERNEL_MODULES}
    with oracles():
        for module in KERNEL_MODULES:
            for name, value in public_functions(module).items():
                oracle = ORACLES.get((module, name))
                if oracle is None:
                    assert value is before[module][name], f"{module.__name__}.{name}"
                else:
                    assert value is oracle, f"{module.__name__}.{name}"
    for module in KERNEL_MODULES:
        assert public_functions(module) == before[module], module.__name__


def test_oracles_restore_the_kernels_after_an_exception():
    before = {key: getattr(*key) for key in ORACLES}
    with pytest.raises(RuntimeError, match="boom"):
        with oracles():
            raise RuntimeError("boom")
    assert {key: getattr(*key) for key in ORACLES} == before


def test_nested_oracles_restore_the_kernels():
    before = {key: getattr(*key) for key in ORACLES}
    with oracles():
        with oracles():
            pass
        assert all(getattr(*key) is oracle for key, oracle in ORACLES.items())
    assert {key: getattr(*key) for key in ORACLES} == before


@pytest.fixture()
def spies(monkeypatch):
    """Counting wrappers around the pyramid and gridding oracles."""
    calls: Counter[str] = Counter()

    def spy(key):
        oracle = ORACLES[key]

        def counted(*args, **kwargs):
            calls[key[1]] += 1
            return oracle(*args, **kwargs)

        monkeypatch.setitem(ORACLES, key, counted)

    for key in (
        (pyramid, "reduce_mean"),
        (pyramid, "reduce_coverage"),
        (gridding, "cell_statistics"),
        (gridding, "cell_class_counts"),
    ):
        spy(key)
    return calls


def test_build_pyramid_reaches_the_oracles(spies):
    accumulator = MosaicAccumulator(GRID)
    accumulator.add(localized_granule("g000", slice(0, 16), slice(0, 16), seed=1))
    snapshot = accumulator.snapshot()
    with oracles():
        built = build_pyramid(snapshot, serve=SERVE)
    assert built.n_levels > 1
    assert spies["reduce_mean"] > 0 and spies["reduce_coverage"] > 0
    # The oracle-built pyramid equals the kernel-built one, byte for byte.
    kernel_built = build_pyramid(snapshot, serve=SERVE)
    for a, b in zip(built.levels, kernel_built.levels):
        assert a.coverage.tobytes() == b.coverage.tobytes()
        for name in b.variables:
            assert a.variables[name].tobytes() == b.variables[name].tobytes()


def test_incremental_update_reaches_the_oracles(spies):
    accumulator = MosaicAccumulator(GRID)
    accumulator.add(localized_granule("g000", slice(0, 16), slice(0, 16), seed=1))
    builder = IncrementalPyramidBuilder(
        build_pyramid(accumulator.snapshot(), serve=SERVE), serve=SERVE
    )
    dirty = accumulator.add(localized_granule("g001", slice(0, 2), slice(0, 2), seed=2))
    with oracles():
        rebuilt = builder.update(accumulator.snapshot(), dirty)
    assert rebuilt
    assert spies["reduce_mean"] > 0 and spies["reduce_coverage"] > 0


def test_grid_granule_reaches_the_oracles(spies):
    grid = GridDefinition(x_min_m=0.0, y_min_m=0.0, cell_size_m=100.0, nx=4, ny=3)
    track, fb = make_beam(
        [10.0, 20.0, 30.0, 150.0],
        [10.0, 20.0, 30.0, 50.0],
        [CLASS_THICK_ICE, CLASS_THICK_ICE, CLASS_THICK_ICE, CLASS_OPEN_WATER],
        [0.2, 0.4, 0.6, np.nan],
    )
    with oracles():
        product = Level3Processor(grid).grid_granule({"b": track}, {"b": fb})
    assert spies["cell_statistics"] == 2 and spies["cell_class_counts"] == 1
    assert product.variables["n_segments"].sum() == 4
