"""The router serves on the calling thread.

``RequestRouter.serve`` runs each request to completion, in order, with no
event loop: nothing is in flight when the next request arrives, so a loop
would add cost and no behaviour.  ``query`` serves one request the same
way.  Each request is resolved once and planned once, and the plan goes
straight to the shard engine.  The archive is the two-mosaic one of the
pinned session test.
"""

from __future__ import annotations

import asyncio
from collections import Counter

import repro.serve.query as query_module
import repro.serve.router as router_module
from repro.clock import VirtualClock
from repro.obs.core import Obs
from repro.serve.router import RequestRouter
from repro.serve.shard import ShardedCatalog

from tests import test_serve_session_pinned as pinned

archive = pinned.archive  # the module-scoped fixture, shared
WEST = pinned.WEST
BATCH = [WEST, pinned.EAST, WEST, WEST, pinned.EAST]


def make_router(catalog) -> RequestRouter:
    return RequestRouter(
        ShardedCatalog.from_catalog(catalog, pinned.CONFIG.n_shards),
        serve=pinned.SERVE,
        config=pinned.CONFIG,
        obs=Obs(clock=VirtualClock()),
    )


def test_a_hook_less_batch_creates_no_event_loop(archive, monkeypatch):
    def no_loop(*args, **kwargs):
        for arg in args:
            close = getattr(arg, "close", None)
            if close is not None:
                close()  # the coroutine will never run
        raise AssertionError("the router started an event loop")

    for name in ("run", "new_event_loop", "get_event_loop"):
        monkeypatch.setattr(asyncio, name, no_loop)
    router = make_router(archive)
    cold = router.serve(BATCH)
    warm = router.serve(BATCH)
    assert [r.request for r in cold] == BATCH
    assert all(r.from_cache for r in warm)
    assert router.stats.executions == 2 * len(BATCH)


def test_each_request_is_resolved_and_planned_once(archive, monkeypatch):
    calls: Counter = Counter()

    def spy(name, original):
        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return counted

    # Both modules bind both names; count every call, whoever makes it.
    for name in ("plan_request", "select_entry"):
        counted = spy(name, getattr(query_module, name))
        monkeypatch.setattr(query_module, name, counted)
        monkeypatch.setattr(router_module, name, counted)
    router = make_router(archive)
    router.serve(BATCH)
    router.serve(BATCH[:1])
    assert calls == {"plan_request": len(BATCH) + 1, "select_entry": len(BATCH) + 1}


def test_query_serves_each_request_at_once(archive):
    router = make_router(archive)
    responses = [router.query(WEST) for _ in range(4)]
    assert [r.shard for r in responses] == [1] * 4
    assert [r.from_cache for r in responses] == [False, True, True, True]
    stats = router.stats
    assert (stats.requests, stats.executions, stats.coalesced) == (4, 4, 0)
