"""Deterministic cost of a warm routed request: its Python-level call count.

``tests/test_obs_call_budget.py`` pins the calls that telemetry adds to one
warm routed request.  This file pins the whole request under
``Obs.disabled()``, counted the same way (``sys.setprofile`` ``"call"``
events) on the same archive and request.  Resolution reads the variable's
entries from the catalog index and the tile geometry of a repeated request
is memoized, so what is left is the answer's own work: one cache probe and
one provenance fingerprint per tile, the response, and the counters.  A
change that puts per-request work back on the path (a catalog scan, a
geometry recomputation) fails here as a count, whatever the host does.

List, dict and set comprehensions are not counted: Python 3.12 inlines them
(PEP 709) and reports no call for them, while 3.10 and 3.11 report one each,
and the pinned count must not depend on the interpreter.
"""

from __future__ import annotations

import gc
import sys
import threading
from collections import Counter

import test_obs_call_budget as budget

from repro.obs.core import Obs
from repro.serve.router import RequestRouter
from repro.serve.shard import ShardedCatalog

#: The product archive of the telemetry budget (one 256 x 192 mosaic).
archive = budget.archive

#: Python-level calls of one warm routed request of 4 tiles under
#: ``Obs.disabled()``, comprehensions excepted.
WARM_REQUEST_CALLS = 39

_INLINED = frozenset({"<listcomp>", "<dictcomp>", "<setcomp>"})


def warm_request_profile(archive) -> Counter:
    """``file:function -> calls`` of one routed request whose tiles are cached."""
    router = RequestRouter(
        ShardedCatalog.from_catalog(archive, budget.CONFIG.n_shards),
        serve=budget.SERVE,
        config=budget.CONFIG,
        obs=Obs.disabled(),
    )
    assert router.serve([budget.REQUEST])[0].n_computed > 0
    calls: Counter = Counter()

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_name not in _INLINED:
            calls[f"{code.co_filename.rsplit('/', 1)[-1]}:{code.co_name}"] += 1

    gc.collect()
    gc.disable()
    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        (response,) = router.serve([budget.REQUEST])
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
        gc.enable()
    assert response.from_cache and response.n_tiles == 4
    return calls


def test_warm_request_call_count_is_reproducible(archive):
    assert warm_request_profile(archive) == warm_request_profile(archive)


def test_a_warm_routed_request_makes_a_pinned_number_of_calls(archive):
    calls = warm_request_profile(archive)
    assert sum(calls.values()) == WARM_REQUEST_CALLS, sorted(calls.items())


def test_resolution_scans_no_catalog_and_plans_from_the_memo(archive):
    calls = warm_request_profile(archive)
    # Resolution: one index lookup, no per-entry bbox test.
    assert calls["catalog.py:intersects"] == 0
    assert calls["catalog.py:_variable_entries"] == 1
    # Planning: the geometry comes from the memo, not from the pyramid math.
    assert calls["query.py:plan_request"] == 1
    assert calls["pyramid.py:n_levels_for"] == 0
    assert calls["pyramid.py:tiles_for_bbox"] == 0
