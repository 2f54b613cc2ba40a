"""Layering guard: the serve and ingest tiers import nothing from
``repro.distributed``, and no module of the package starts an event loop.

The paper fans work out at two levels only, the segment jobs and the
granules of a fleet, and both live in ``repro.distributed``.  The serve tier
decodes on the calling thread, so a ``repro.distributed`` import under
``repro.serve`` or ``repro.ingest`` means a third fan-out level has crept
back in.  Nothing in the package runs on an event loop: the router serves
every request on the calling thread and the health monitor ticks when its
caller ticks it, so an ``asyncio`` import anywhere under ``src/repro`` means
a second, event-loop path has come back.  The scan reads every module's
AST, so imports inside functions and ``TYPE_CHECKING`` blocks count too.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
FORBIDDEN = "repro.distributed"
GUARDED = ("repro/serve", "repro/ingest")
#: Imports that would give the package an event loop.
EVENT_LOOP = ("asyncio", "repro.clock.run_sync")


def imported_modules(tree: ast.AST) -> list[tuple[int, str]]:
    """``(line, dotted name)`` of every absolute import in one module.

    ``from repro import distributed`` yields ``repro.distributed``, so a
    package-level import is caught as well as a submodule one.
    """
    found: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.extend((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            found.append((node.lineno, node.module))
            found.extend((node.lineno, f"{node.module}.{alias.name}") for alias in node.names)
    return found


def forbidden_imports(path: Path, forbidden: tuple[str, ...] = (FORBIDDEN,)) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        f"{path.relative_to(SRC)}:{line} imports {name}"
        for line, name in imported_modules(tree)
        if any(name == f or name.startswith(f + ".") for f in forbidden)
    ]


def guarded_modules() -> list[Path]:
    return sorted(path for tier in GUARDED for path in (SRC / tier).rglob("*.py"))


def test_every_guarded_tier_has_modules():
    for tier in GUARDED:
        assert list((SRC / tier).rglob("*.py")), f"no modules under {tier}"


@pytest.mark.parametrize(
    "source",
    [
        "import repro.distributed",
        "import repro.distributed.mapreduce as mr",
        "from repro.distributed.mapreduce import MapReduceEngine",
        "from repro import distributed",
        "def f():\n    from repro.distributed import cluster",
    ],
)
def test_scan_catches_each_import_spelling(source):
    names = [name for _, name in imported_modules(ast.parse(source))]
    assert any(n == FORBIDDEN or n.startswith(FORBIDDEN + ".") for n in names)


def test_scan_ignores_lookalike_names():
    source = "import repro.distributed_extra\nfrom repro.serve import distributed_view"
    names = [name for _, name in imported_modules(ast.parse(source))]
    assert not any(n == FORBIDDEN or n.startswith(FORBIDDEN + ".") for n in names)


def test_serve_and_ingest_import_nothing_from_distributed():
    offenders = [hit for path in guarded_modules() for hit in forbidden_imports(path)]
    assert offenders == []


def test_serve_and_ingest_start_no_event_loop():
    """Every module under ``src/repro``, not only the serve and ingest tiers."""
    modules = sorted((SRC / "repro").rglob("*.py"))
    assert SRC / "repro" / "clock.py" in modules
    offenders = [hit for path in modules for hit in forbidden_imports(path, EVENT_LOOP)]
    assert offenders == []
