"""Shared-memory instance fabric for the process-pool batch path.

Without it, every pool worker re-derives each instance from ``(n,
seed)``: the point set through ``uniform_points`` and — far more
expensively for GHS-family runs — the kernel's CSR neighbor table
through a fresh ``cKDTree.query_pairs``.  With cell-major chunking one
worker pays that once per cell, but every *worker* that ever touches the
cell pays it again, and at the whole-round engine's scale (``n`` up to
``10^6``) the duplicated CSR arrays dominate the fleet's resident
footprint.

The fabric removes the duplication: the **parent** builds each needed
array exactly once per ``(n, seed)`` (points) and ``(n, seed, radius)``
(neighbor-table CSR for GHS-family runs), copies it into a
:class:`multiprocessing.shared_memory.SharedMemory` segment, and ships a
small JSON manifest with each task.  **Workers** attach the segments
read-only, adopt the points view into the per-process instance cache
(:func:`repro.experiments.instances.adopt_points`) and register the
rehydrated tables with the kernel's table-provider hook
(:func:`repro.sim.kernel.set_table_provider`), so the arrays are mapped,
never rebuilt and never copied.

Lifecycle — and why segments are never closed mid-process
---------------------------------------------------------

``np.ndarray(..., buffer=shm.buf)`` does *not* pin the mapping: numpy
releases the Py_buffer immediately and keeps only an object reference,
so ``shm.close()`` happily unmaps memory that live arrays still point
into and the next read is a use-after-unmap crash — in this process or,
via fork-inherited caches, in a worker.  The fabric therefore splits the
two halves of cleanup:

* **unlink** (releasing the OS name, so ``/dev/shm`` shows nothing) runs
  eagerly — on LRU eviction past the byte budget and on
  :func:`release`; the fabric also retires the adopted cache entries
  and provider registrations it created, so later lookups rebuild
  instead of dereferencing a retired view;
* **close** (unmapping) is deferred: the ``SharedMemory`` object moves
  to a graveyard that keeps it referenced until interpreter exit, when
  unmapping can no longer break a live array.  POSIX keeps unlinked
  memory alive until the last map goes away, so readers race nothing.

:func:`release` is called by :func:`repro.runspec.engine.shutdown` and
from an ``atexit`` hook.  Worker attachments live for the worker's
lifetime; pool shutdown recycles the processes and with them the maps.

Any failure — segment creation denied (sandboxed CI), attach racing an
eviction, the ``REPRO_NO_SHM=1`` kill switch — degrades to per-worker
rebuilds.  The fabric is a pure accelerator: attached and rebuilt arrays
are bit-identical by construction, so reports cannot differ.
"""

from __future__ import annotations

import atexit
import os
from collections import OrderedDict

import numpy as np

__all__ = [
    "attach_manifest",
    "manifest_for_specs",
    "release",
    "shm_available",
    "stats",
]

#: Upper bound on the bytes the parent pins in live segments; the LRU
#: evicts (unlink + retire) past it.
_MAX_FABRIC_BYTES = int(os.environ.get("REPRO_SHM_MAX_BYTES", 1 << 30))

#: Set False after the first failed segment creation: a host that cannot
#: create one segment will not create the next either.
_creation_ok = True

#: Parent-side published segments: key -> _Published/_TableSet (LRU
#: order).  Keys: ("points", n, seed) and ("table", n, seed, radius).
_published: "OrderedDict[tuple, object]" = OrderedDict()

#: Unlinked-but-possibly-still-viewed SharedMemory objects, kept
#: referenced so nothing unmaps under a live array (see module docs).
_graveyard: list = []

#: Worker-side attachments, keyed like the manifest entries; values hold
#: the SharedMemory objects (kept mapped for process life) and the
#: adopted arrays/tables.
_attached: dict[tuple, object] = {}

#: Table registry behind the kernel provider hook: id(points array) ->
#: {radius: _NeighborTable}.  The keying array is held strongly by the
#: instance cache / _attached, pinning the id.
_tables_by_points_id: dict[int, dict] = {}
_provider_installed = False

_hits = 0
_misses = 0


def shm_available() -> bool:
    """Whether the fabric may publish segments in this process."""
    if os.environ.get("REPRO_NO_SHM"):
        return False
    if not _creation_ok:
        return False
    try:
        from multiprocessing import shared_memory  # noqa: F401
    except ImportError:
        return False
    return True


class _Published:
    """One parent-side shared segment holding one array."""

    def __init__(self, shm, array: np.ndarray) -> None:
        self.shm = shm
        self.array = array
        self.nbytes = shm.size

    def retire(self) -> None:
        """Unlink the OS name and defer the unmap (see module docs)."""
        try:
            self.shm.unlink()
        except (OSError, FileNotFoundError):
            pass
        _graveyard.append(self.shm)


def _create_segment(array: np.ndarray) -> "_Published | None":
    """Copy ``array`` into a fresh segment; None when SHM is unusable."""
    global _creation_ok
    if not shm_available():
        return None
    from multiprocessing import shared_memory

    arr = np.ascontiguousarray(array)
    try:
        shm = shared_memory.SharedMemory(create=True, size=max(1, arr.nbytes))
    except (OSError, ValueError):
        _creation_ok = False
        return None
    view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf)
    view[:] = arr
    view.setflags(write=False)
    return _Published(shm, view)


class _PointsEntry(_Published):
    """Published points: also retires its instance-cache adoption."""

    def __init__(self, shm, array, n: int, seed: int) -> None:
        super().__init__(shm, array)
        self.n = n
        self.seed = seed

    def retire(self) -> None:
        from repro.experiments.instances import evict_points

        evict_points(self.n, self.seed, only=self.array)
        _tables_by_points_id.pop(id(self.array), None)
        super().retire()


class _TableSet:
    """The four CSR segments (indptr, ids, dists, rev) of one published table."""

    def __init__(self, segments, points: np.ndarray, radius: float) -> None:
        self.segments = segments
        self.nbytes = sum(s.nbytes for s in segments)
        self.points_id = id(points)
        self.radius = float(radius)

    def retire(self) -> None:
        tables = _tables_by_points_id.get(self.points_id)
        if tables is not None:
            tables.pop(self.radius, None)
            if not tables:
                _tables_by_points_id.pop(self.points_id, None)
        for s in self.segments:
            s.retire()


def _evict_to_budget(keep: set | None = None) -> None:
    """LRU-evict past the byte budget, sparing ``keep`` (the live batch)."""
    total = sum(p.nbytes for p in _published.values())
    for key in list(_published):
        if total <= _MAX_FABRIC_BYTES:
            break
        if keep and key in keep:
            continue
        pub = _published.pop(key)
        total -= pub.nbytes
        pub.retire()


def _register_table(points: np.ndarray, radius: float, table) -> None:
    """Make ``table`` servable for ``(points, radius)`` via the provider."""
    global _provider_installed
    _tables_by_points_id.setdefault(id(points), {})[float(radius)] = table
    if not _provider_installed:
        from repro.sim.kernel import set_table_provider

        set_table_provider(_provider)
        _provider_installed = True


def _provider(points: np.ndarray, radius: float):
    """Kernel table-provider hook: serve a registered prebuilt table."""
    global _hits, _misses
    tables = _tables_by_points_id.get(id(points))
    table = tables.get(float(radius)) if tables else None
    if table is not None:
        _hits += 1
    else:
        _misses += 1
    return table


# -- parent side -------------------------------------------------------------


def _table_specs(specs) -> "OrderedDict[tuple, None]":
    """The ``(n, seed, radius)`` CSR builds worth staging for ``specs``.

    GHS-family runs on the optimized kernel at the paper's connectivity
    radius; anything with a dynamic radius schedule (EOPT's step
    transitions) or on the per-message reference kernel rebuilds locally.
    """
    from repro.geometry.radius import connectivity_radius
    from repro.sim.backends import get_kernel
    from repro.sim.kernel import table_within_budget

    wanted: OrderedDict[tuple, None] = OrderedDict()
    for spec in specs:
        if spec.algorithm not in ("GHS", "MGHS"):
            continue
        if get_kernel(spec.kernel).reference:
            continue
        r = connectivity_radius(spec.n, spec.ghs_radius_const)
        if not table_within_budget(spec.n, r):
            continue
        wanted.setdefault(("table", int(spec.n), int(spec.seed), float(r)))
    return wanted


def manifest_for_specs(specs) -> list | None:
    """Publish (or reuse) segments for ``specs``; returns manifest entries.

    Returns ``None`` when shared memory is unavailable or disabled —
    the caller fans out without a manifest and workers rebuild locally.
    The parent also adopts its own published views (instance cache +
    table provider), so a serial fallback reuses the same arrays.
    """
    from repro.experiments.instances import adopt_points, get_points
    from repro.sim.kernel import make_neighbor_table, neighbor_csr_arrays

    if not shm_available():
        return None
    manifest: list = []
    live: set = set()
    cells = OrderedDict(((int(s.n), int(s.seed)), None) for s in specs)
    for n, seed in cells:
        key = ("points", n, seed)
        pub = _published.get(key)
        if pub is None:
            seg = _create_segment(get_points(n, seed))
            if seg is None:
                return None
            pub = _PointsEntry(seg.shm, seg.array, n, seed)
            _published[key] = pub
            # Serve the shared view locally too (values are identical).
            adopt_points(n, seed, pub.array)
        _published.move_to_end(key)
        live.add(key)
        manifest.append(
            {"kind": "points", "n": n, "seed": seed, "shm": pub.shm.name}
        )
    for key in _table_specs(specs):
        _, n, seed, r = key
        tset = _published.get(key)
        if tset is None:
            pts = _published[("points", n, seed)].array
            segs = tuple(map(_create_segment, neighbor_csr_arrays(pts, r)))
            if any(s is None for s in segs):
                for s in segs:
                    if s is not None:
                        s.retire()
                return None
            tset = _TableSet(segs, pts, r)
            _published[key] = tset
            _register_table(
                pts, r, make_neighbor_table(r, *(s.array for s in segs))
            )
        _published.move_to_end(key)
        live.add(key)
        ip, ids_seg, d_seg, rev_seg = tset.segments
        manifest.append(
            {
                "kind": "table",
                "n": n,
                "seed": seed,
                "radius": r,
                "shm_indptr": ip.shm.name,
                "shm_ids": ids_seg.shm.name,
                "shm_dists": d_seg.shm.name,
                "shm_rev": rev_seg.shm.name,
                "m": int(len(ids_seg.array)),
            }
        )
    _evict_to_budget(keep=live)
    return manifest


def release() -> None:
    """Unlink every parent-side segment and retire its adoptions.

    Idempotent.  The OS names disappear immediately; the mappings are
    parked in the graveyard until interpreter exit so no live view can
    dangle (see module docs).
    """
    while _published:
        _, pub = _published.popitem(last=False)
        pub.retire()


atexit.register(release)


# -- worker side -------------------------------------------------------------


def _attach_array(name: str, shape, dtype) -> "np.ndarray | None":
    """Attach one segment read-only; None when it is gone or unusable.

    No resource-tracker gymnastics: pool workers are descendants of the
    publishing parent and share its tracker, where the attach-time
    re-registration is a set no-op and the parent's unlink performs the
    one unregister.
    """
    from multiprocessing import shared_memory

    try:
        shm = shared_memory.SharedMemory(name=name)
    except (OSError, ValueError):
        return None
    arr = np.ndarray(shape, dtype=dtype, buffer=shm.buf)
    arr.setflags(write=False)
    _attached[("seg", name)] = shm  # keep mapped for process life
    return arr


def attach_manifest(manifest) -> None:
    """Worker: attach every not-yet-seen manifest entry.

    Idempotent per ``(kind, coordinates)`` key — repeated tasks carrying
    the same manifest cost two dict probes.  Any entry that fails to
    attach is skipped; the worker rebuilds that instance locally.
    """
    if not manifest or os.environ.get("REPRO_NO_SHM"):
        return
    from repro.experiments.instances import adopt_points
    from repro.sim.kernel import make_neighbor_table

    for entry in manifest:
        if entry["kind"] == "points":
            key = ("points", entry["n"], entry["seed"])
            if key in _attached:
                continue
            arr = _attach_array(entry["shm"], (entry["n"], 2), np.float64)
            if arr is None:
                continue
            _attached[key] = adopt_points(entry["n"], entry["seed"], arr)
        elif entry["kind"] == "table":
            key = ("table", entry["n"], entry["seed"], float(entry["radius"]))
            if key in _attached:
                continue
            pts = _attached.get(("points", entry["n"], entry["seed"]))
            if pts is None:
                continue  # table is only useful keyed to shared points
            n, m = entry["n"], entry["m"]
            arrays = (
                _attach_array(entry["shm_indptr"], (n + 1,), np.int64),
                _attach_array(entry["shm_ids"], (m,), np.int64),
                _attach_array(entry["shm_dists"], (m,), np.float64),
                _attach_array(entry["shm_rev"], (m,), np.intp),
            )
            if any(a is None for a in arrays):
                continue
            table = make_neighbor_table(entry["radius"], *arrays)
            _attached[key] = table
            _register_table(pts, entry["radius"], table)


def stats() -> dict:
    """Fabric observability: live segments, bytes, provider hit/misses."""
    return {
        "enabled": shm_available(),
        "published_segments": len(_published),
        "published_bytes": sum(p.nbytes for p in _published.values()),
        "retired_segments": len(_graveyard),
        "attached_segments": sum(1 for k in _attached if k[0] == "seg"),
        "provider_hits": _hits,
        "provider_misses": _misses,
        "max_bytes": _MAX_FABRIC_BYTES,
    }
