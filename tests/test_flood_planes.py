"""Flood-plane machinery: CSR helpers, cache delivery, MOE batch, gates.

Complements ``test_hotpath_equivalence.py`` (which pins end-to-end
bit-identity of the plane path against the legacy kernel) with unit
coverage of the moving parts: ``concat_ranges``, the reverse-edge
permutation, plane registration/delivery semantics (zero-recipient
sends, round accounting, flat-kernel refusal, a cap raised after a send
that reached nobody), the one flood cache filled alike by planes and by
per-message floods on either kernel, the density gate at its exact
threshold, and the batched MOE search against a brute-force oracle.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.algorithms.ghs import plane
from repro.algorithms.ghs.driver import hello_round, search_moe
from repro.algorithms.ghs.node import NO_EDGE, GHSNode
from repro.algorithms.ghs.plane import FloodCache
from repro.errors import ProtocolError, SimulationError
from repro.geometry.points import uniform_points
from repro.sim import LegacyKernel, NodeProcess, SynchronousKernel
from repro.sim.kernel import _NO_TABLE, concat_ranges
from tests.conftest import per_message_floods


class _Recorder(NodeProcess):
    """Logs every delivery; never replies."""

    def __init__(self, node_id, ctx):
        super().__init__(node_id, ctx)
        self.heard = []

    def on_message(self, msg, distance):
        self.heard.append((msg.kind, msg.src, distance))

    def on_wake(self, signal, payload=()):
        if signal == "bcast":
            self.ctx.local_broadcast(payload[0], "PING", self.id)


# ---------------------------------------------------------------- helpers


def test_concat_ranges_matches_manual_aranges():
    starts = np.array([0, 5, 5, 9, 20], dtype=np.intp)
    ends = np.array([3, 5, 8, 9, 23], dtype=np.intp)  # two empty ranges
    expected = np.concatenate(
        [np.arange(s, e) for s, e in zip(starts, ends)]
    ).astype(np.intp)
    np.testing.assert_array_equal(concat_ranges(starts, ends), expected)


def _aranges(starts, ends):
    parts = [np.arange(s, e, dtype=np.intp) for s, e in zip(starts, ends)]
    return np.concatenate(parts) if parts else np.empty(0, dtype=np.intp)


@pytest.mark.parametrize(
    "starts, ends",
    [
        ([3, 0, 7], [3, 4, 9]),  # leading empty range
        ([0, 5, 8], [2, 7, 8]),  # trailing empty range
        ([10, 4, 4, 0], [12, 4, 6, 3]),  # interior empty range, descending
        ([6], [11]),  # a single range
        ([0, 100, 40], [3, 104, 41]),  # non-adjacent, jumping back
        ([2, 0, 3, 3], [6, 5, 4, 9]),  # overlapping
        ([5, 5, 0], [5, 6, 0]),  # empties around a one-element range
    ],
)
def test_concat_ranges_edge_cases(starts, ends):
    starts = np.array(starts, dtype=np.int64)
    ends = np.array(ends, dtype=np.int64)
    out = concat_ranges(starts, ends)
    assert out.dtype == np.intp
    np.testing.assert_array_equal(out, _aranges(starts, ends))


def test_concat_ranges_all_empty():
    starts = np.array([4, 7], dtype=np.intp)
    ends = np.array([4, 7], dtype=np.intp)
    out = concat_ranges(starts, ends)
    assert out.shape == (0,)
    assert out.dtype == np.intp


def test_reverse_permutation_is_involution_and_pairs_edges():
    pts = uniform_points(120, seed=2)
    kernel = SynchronousKernel(pts, max_radius=0.25)
    tbl = kernel.neighbor_table()
    assert tbl is not None
    rev = tbl.rev
    m = len(tbl.ids)
    src = np.repeat(np.arange(kernel.n), np.diff(tbl.indptr_arr))
    # Involution: reversing twice is the identity.
    np.testing.assert_array_equal(rev[rev], np.arange(m))
    # Pairing: entry j is (src[j] -> ids[j]); its reverse must be the
    # opposite ordered pair at the same distance.
    np.testing.assert_array_equal(src[rev], tbl.ids)
    np.testing.assert_array_equal(tbl.ids[rev], src)
    np.testing.assert_array_equal(tbl.dists[rev], tbl.dists)


# ------------------------------------------------------- plane registration


def _ghs_kernel(pts, r, kernel_cls=SynchronousKernel, *, use_tests=False):
    kernel = kernel_cls(pts, max_radius=r)
    kernel.add_nodes(
        lambda i, ctx: GHSNode(i, ctx, use_tests=use_tests, announce=not use_tests)
    )
    kernel.start()
    return kernel


def test_zero_recipient_plane_charges_but_adds_no_round():
    # One far-away corner node: its broadcast at a tiny radius reaches
    # nobody.  Legacy semantics: the send is charged, no delivery round
    # happens.
    pts = np.array([[0.0, 0.0], [0.01, 0.0], [0.9, 0.9]])
    kernel = _ghs_kernel(pts, 0.05)
    cache = FloodCache.ensure(kernel)
    kernel.set_plane_handler(cache.on_plane)
    for nd in kernel.nodes:
        cache.attach(nd)
    assert kernel.nodes[2].ctx.plane_broadcast(0.05, "HELLO", 2)
    assert kernel.in_flight == 0
    before = kernel.rounds
    kernel.run_until_quiescent()
    assert kernel.rounds == before
    stats = kernel.stats()
    assert stats.messages_by_kind == {"HELLO": 1}
    assert stats.energy_total == pytest.approx(0.05**2)


def test_plane_refused_without_handler_or_on_flat_kernels():
    pts = uniform_points(40, seed=0)
    kernel = _ghs_kernel(pts, 0.3)
    # No handler registered: refuse (and charge nothing).
    assert not kernel.nodes[0].ctx.plane_broadcast(0.3, "HELLO", 0)
    assert kernel.stats().messages_total == 0
    # Flat-delivery kernels never take the plane path, and registering a
    # handler on one is a caller bug that fails loudly (the handler
    # would silently never fire otherwise).  Their nodes still keep the
    # one flood cache, over the kernel's table, filled per message.
    legacy = _ghs_kernel(pts, 0.3, LegacyKernel)
    assert plane.flood_table(legacy) is None
    assert FloodCache.ensure(legacy).table is legacy.neighbor_table()
    with pytest.raises(SimulationError):
        legacy.set_plane_handler(lambda *a: None)
    assert not legacy.nodes[0].ctx.plane_broadcast(0.3, "HELLO", 0)


def test_plane_hello_fills_cache_like_messages():
    pts = uniform_points(80, seed=5)
    r = 0.2
    # Plane path: the driver's hello round attaches a cache to every node
    # and registers its plane handler.
    k1 = _ghs_kernel(pts, r)
    hello_round(k1, r)
    assert k1._plane_handler is not None
    s1 = k1.stats()
    # Per-message floods, on either kernel, fill the same cache slot by slot.
    for kernel_cls in (SynchronousKernel, LegacyKernel):
        k2 = _ghs_kernel(pts, r, kernel_cls)
        with per_message_floods():
            hello_round(k2, r)
        assert k2._plane_handler is None
        for a, b in zip(k1.nodes, k2.nodes):
            assert dict(a.fragment_cache_items()) == dict(b.fragment_cache_items())
        s2 = k2.stats()
        assert s1.energy_total == s2.energy_total
        assert s1.messages_by_kind == s2.messages_by_kind
        assert s1.rounds == s2.rounds


# ------------------------------------------------------- density gate edge


def test_density_gate_threshold_paths_identical():
    # n=300: budget = max(65536, 128*300) = 65536 expected entries, so the
    # gate flips at r_eq = sqrt(65536 / (300*299*pi)).  A cap just under
    # builds the CSR table; just over falls back to per-call KD queries.
    n, budget = 300, 65536
    pts = uniform_points(n, seed=8)
    r_eq = math.sqrt(budget / (n * (n - 1) * math.pi))
    caps = {"table": r_eq * 0.999, "fallback": r_eq * 1.001}
    rb = 0.9 * caps["table"]  # same broadcast radius under both caps

    def drive(cap):
        kernel = SynchronousKernel(pts, max_radius=cap)
        kernel.add_nodes(lambda i, ctx: _Recorder(i, ctx))
        kernel.start()
        kernel.wake([0, 17, 101, 299], "bcast", (rb,))
        kernel.run_until_quiescent()
        return kernel, [nd.heard for nd in kernel.nodes], kernel.stats()

    k_tbl, logs_tbl, stats_tbl = drive(caps["table"])
    k_fb, logs_fb, stats_fb = drive(caps["fallback"])
    # The two runs really took different paths...
    assert k_tbl._nbr_table is not None and k_tbl._nbr_table is not _NO_TABLE
    assert k_fb._nbr_table is _NO_TABLE
    # ...and still agree on recipients, distances, energy, rounds.
    assert logs_tbl == logs_fb
    assert stats_tbl.energy_total == stats_fb.energy_total
    assert stats_tbl.messages_total == stats_fb.messages_total
    assert stats_tbl.rounds == stats_fb.rounds


# --------------------------------------------------------------- MOE batch


def _brute_moe(node, fid):
    """Oracle: scan the node's cache views one slot at a time."""
    best_nb, best_key = -1, NO_EDGE
    for j in range(len(node.nb_ids)):
        if not node.nb_known[j] or node.nb_fid[j] == fid:
            continue
        key = node._edge_key(int(node.nb_ids[j]), float(node.nb_dist[j]))
        if key < best_key:
            best_key, best_nb = key, int(node.nb_ids[j])
    return best_nb, best_key


def test_moe_batch_matches_bruteforce():
    pts = uniform_points(150, seed=13)
    kernel = _ghs_kernel(pts, 0.25)
    cache = FloodCache.ensure(kernel)
    for nd in kernel.nodes:
        cache.attach(nd)
    # Random-ish cache state: nodes spread over 7 fragments, a sprinkle
    # of unheard entries.
    rng = np.random.default_rng(99)
    cache.fid[:] = rng.integers(0, 7, size=len(cache.fid))
    cache.known[:] = rng.random(len(cache.known)) < 0.85
    node_ids = np.arange(kernel.n, dtype=np.intp)
    fids = rng.integers(0, 7, size=kernel.n).astype(np.int64)
    cand, kd, klo, khi = cache.moe_batch(node_ids, fids)
    for i in range(kernel.n):
        nb, key = _brute_moe(kernel.nodes[i], int(fids[i]))
        assert int(cand[i]) == nb
        if nb >= 0:
            assert (float(kd[i]), int(klo[i]), int(khi[i])) == key
        else:
            assert math.isinf(kd[i])


def test_moe_tie_broken_by_edge_ids():
    # Unit square: node 0 sees 1 and 2 at exactly distance 1.  The edge
    # key (1.0, 0, 1) < (1.0, 0, 2) must pick neighbour 1 in the batch,
    # in the driver's search over a cache per-message HELLOs filled, and
    # first in an original-mode node's TEST queue.
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    kernel = _ghs_kernel(pts, 1.45)
    cache = FloodCache.ensure(kernel)
    for nd in kernel.nodes:
        cache.attach(nd)
    cache.known[:] = True
    cache.fid[:] = 9  # everyone reports a foreign fragment
    cand, kd, klo, khi = cache.moe_batch(
        np.array([0], dtype=np.intp), np.array([0], dtype=np.int64)
    )
    assert (int(cand[0]), float(kd[0]), int(klo[0]), int(khi[0])) == (1, 1.0, 0, 1)
    legacy = _ghs_kernel(pts, 1.45, LegacyKernel)
    hello_round(legacy, 1.45)
    nd = legacy.nodes[0]
    nd.nb_fid[:] = 9
    search_moe(legacy, legacy.nodes, [0], nd.cur_phase)
    assert (nd._cand_nb, nd._cand_key) == (1, (1.0, 0, 1))
    probing = _ghs_kernel(pts, 1.45, LegacyKernel, use_tests=True)
    hello_round(probing, 1.45)
    nd = probing.nodes[0]
    nd._start_search()
    assert nd._test_queue == [1, 2, 3]


def test_find_moe_wake_in_cache_mode_raises():
    # Modified-mode searches run batched in the driver (driver.search_moe);
    # a node has no per-node scan over the cache to fall back to.
    kernel = _ghs_kernel(uniform_points(30, seed=1), 0.4)
    hello_round(kernel, 0.4)
    with pytest.raises(ProtocolError, match="modified mode"):
        kernel.wake([0], "find_moe", (0,))


def test_plane_send_after_cap_raise_uses_the_new_table():
    # A HELLO that reaches nobody leaves nothing pending; after the cap
    # rises (a new table), the next plane round slices the new table.
    pts = np.array([[0.0, 0.0], [0.2, 0.0], [0.9, 0.9]])
    kernel = _ghs_kernel(pts, 0.5)
    hello_round(kernel, 0.05)
    assert kernel.rounds == 0
    kernel.set_max_radius(0.6)
    hello_round(kernel, 0.3)
    assert kernel.rounds == 1
    assert dict(kernel.nodes[0].fragment_cache_items()) == {1: 1}
    assert dict(kernel.nodes[1].fragment_cache_items()) == {0: 0}
