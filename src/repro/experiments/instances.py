"""Shared, cached problem instances for sweeps.

A sweep cell is identified by ``(n, seed)``; every algorithm in the cell
runs on the *same* point set (the paper measures all algorithms on the
same random instances).  The serial sweep used to rebuild that array once
per algorithm and the parallel workers once per task; :func:`get_points`
builds each instance exactly once per process and hands out a read-only
view, so a cache hit can never be corrupted by a caller mutating the
array in place.

The cache is a small LRU (instances are cheap to rebuild; the win is
skipping redundant builds *within* a sweep, not pinning memory forever).
Worker processes share the cache automatically because it is module-level
state: with cell-major task ordering and a chunk per cell, one worker
sees all algorithms of a cell back to back.

Graph-shaped instances additionally key on the **instance layout**
(``dense`` vs ``chunked`` CSR — see :data:`repro.rgg.LAYOUTS`): kernel
backends declare the layout they expect through the kernel registry, and
a mixed-kernel sweep must never be served a cached instance assembled
for a different backend's layout.  Point sets are layout-independent, so
:func:`get_points` stays keyed on ``(n, seed)`` alone.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.geometry.points import uniform_points

#: Maximum number of cached (n, seed) instances per process.
_CACHE_SIZE = 64

#: Maximum number of cached built graphs (heavier than point sets).
_GRAPH_CACHE_SIZE = 8

_cache: OrderedDict[tuple[int, int], np.ndarray] = OrderedDict()
_graph_cache: OrderedDict[tuple[int, int, float, str], object] = OrderedDict()
_hits = 0
_misses = 0


def get_points(n: int, seed: int) -> np.ndarray:
    """The uniform instance for sweep cell ``(n, seed)``, cached.

    Returns a **read-only** float64 array of shape ``(n, 2)`` — callers
    that need to mutate it must copy.  Identical to
    ``uniform_points(n, seed=seed)`` in values.
    """
    global _hits, _misses
    key = (int(n), int(seed))
    pts = _cache.get(key)
    if pts is not None:
        _hits += 1
        _cache.move_to_end(key)
        return pts
    _misses += 1
    pts = uniform_points(key[0], seed=key[1])
    pts.setflags(write=False)
    _cache[key] = pts
    while len(_cache) > _CACHE_SIZE:
        _cache.popitem(last=False)
    return pts


def adopt_points(n: int, seed: int, pts: np.ndarray) -> np.ndarray:
    """Install an externally built instance for ``(n, seed)`` in the cache.

    The shared-memory instance fabric attaches the parent's published
    array in each worker and adopts it here, so every later
    :func:`get_points` call serves the attached view instead of
    rebuilding.  The array must hold exactly ``uniform_points(n,
    seed=seed)`` — adoption trusts the caller (the fabric publishes from
    the same builder) and only enforces shape and read-only-ness.
    Neither a hit nor a miss is counted: nothing was requested yet.
    """
    pts = np.asarray(pts, dtype=float)
    if pts.shape != (int(n), 2):
        from repro.errors import ExperimentError

        raise ExperimentError(
            f"adopted instance for (n={n}) has shape {pts.shape}, wanted ({n}, 2)"
        )
    if pts.flags.writeable:
        pts = pts.view()
        pts.setflags(write=False)
    key = (int(n), int(seed))
    _cache[key] = pts
    _cache.move_to_end(key)
    while len(_cache) > _CACHE_SIZE:
        _cache.popitem(last=False)
    return pts


def evict_points(n: int, seed: int, *, only: np.ndarray | None = None) -> None:
    """Drop the cached instance for ``(n, seed)``, if present.

    With ``only``, the entry is dropped just when it *is* that array
    (identity, not equality) — the instance fabric uses this to retire
    exactly the shared-memory view it adopted without disturbing an
    entry something else has since installed.  The next
    :func:`get_points` call rebuilds from the seed.
    """
    key = (int(n), int(seed))
    cur = _cache.get(key)
    if cur is None:
        return
    if only is not None and cur is not only:
        return
    del _cache[key]


def get_graph(n: int, seed: int, radius: float, *, layout: str = "dense"):
    """The built RGG for ``(n, seed, radius)`` under ``layout``, cached.

    The cache key includes the layout: a ``chunked`` instance (memmap-
    backed CSR for builds at scale) is a different object from the
    ``dense`` one even though the arrays hold equal values, and serving
    one where the other was requested would silently change the memory
    profile the caller asked for.
    """
    global _hits, _misses
    from repro.rgg import LAYOUTS, build_rgg_layout

    if layout not in LAYOUTS:
        from repro.errors import GraphError

        raise GraphError(
            f"unknown instance layout {layout!r}; expected one of {', '.join(LAYOUTS)}"
        )
    key = (int(n), int(seed), float(radius), layout)
    g = _graph_cache.get(key)
    if g is not None:
        _hits += 1
        _graph_cache.move_to_end(key)
        return g
    _misses += 1
    g = build_rgg_layout(get_points(n, seed), float(radius), layout)
    _graph_cache[key] = g
    while len(_graph_cache) > _GRAPH_CACHE_SIZE:
        _graph_cache.popitem(last=False)
    return g


def cache_info() -> dict:
    """Hit/miss/size counters for the per-process instance cache."""
    return {
        "hits": _hits,
        "misses": _misses,
        "size": len(_cache),
        "max_size": _CACHE_SIZE,
        "graph_size": len(_graph_cache),
        "graph_max_size": _GRAPH_CACHE_SIZE,
    }


def clear_cache() -> None:
    """Drop every cached instance and reset the counters."""
    global _hits, _misses
    _cache.clear()
    _graph_cache.clear()
    _hits = 0
    _misses = 0
