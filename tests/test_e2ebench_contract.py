"""Contract guard: the names the end-to-end benchmark reads from the program.

``e2ebench/`` is frozen between benchmark changes, so the program must keep
every name it reaches for, even when no test of the program itself uses
that name.  Two places read names:

* ``LayerTracer.__init__`` resolves every ``LAYER_TARGETS`` entry with
  ``_resolve`` and ``inspect.getattr_static``, on every run, traced or not.
  A target that no longer resolves makes every benchmark run fail.
* ``ServeLive._router_counts`` reads attributes off a routed
  ``ServeHandle``'s ``router.stats`` and its shards' ``engine.stats``.

This file reads ``e2ebench/`` and edits nothing there.
"""

from __future__ import annotations

import ast
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from repro.config import RouterConfig, ServeConfig
from repro.serve.catalog import ProductCatalog
from repro.serve.handle import ServeHandle

E2EBENCH = Path(__file__).resolve().parents[1] / "e2ebench"


def load_layertrace():
    """``e2ebench/layertrace.py`` as a module (it imports only the stdlib)."""
    spec = importlib.util.spec_from_file_location("e2ebench_layertrace", E2EBENCH / "layertrace.py")
    module = importlib.util.module_from_spec(spec)
    # Registered before it runs: its dataclasses look their module up.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


layertrace = load_layertrace()
TARGETS = [target for names in layertrace.LAYER_TARGETS.values() for target in names]


@pytest.mark.parametrize("target", TARGETS)
def test_every_layer_target_resolves(target):
    owner, attr = layertrace._resolve(target)
    assert inspect.getattr_static(owner, attr, None) is not None, target


def test_the_tracer_builds_as_every_run_builds_it():
    tracer = layertrace.LayerTracer()
    assert len(tracer._patches) == len(TARGETS)


def router_count_reads() -> dict[str, set[str]]:
    """Attributes ``ServeLive._router_counts`` reads, by the local name read from.

    ``rstats`` is the router's stats, ``s`` each shard engine's stats.
    """
    tree = ast.parse((E2EBENCH / "workloads.py").read_text())
    (method,) = [
        node
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) and cls.name == "ServeLive"
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and node.name == "_router_counts"
    ]
    reads: dict[str, set[str]] = {}
    for node in ast.walk(method):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            reads.setdefault(node.value.id, set()).add(node.attr)
    return reads


def test_serve_live_reads_exist_on_a_routed_handle():
    reads = router_count_reads()
    assert {"shed", "coalesced", "errors"} <= reads["rstats"]
    assert {"tile_hits", "tile_misses", "loads"} <= reads["s"]
    handle = ServeHandle(ProductCatalog(), serve=ServeConfig(router=RouterConfig(n_shards=2)))
    router = handle.with_router().router
    for name in reads["rstats"]:
        assert isinstance(getattr(router.stats, name), int), name
    for shard in router.shards:
        for name in reads["s"]:
            assert isinstance(getattr(shard.engine.stats, name), int), name
