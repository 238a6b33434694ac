"""Output checks: golden statistics and an independent tree oracle.

Every executed spec is checked outside the timed region:

* **golden** — ``(energy, messages, rounds)`` must equal the value
  recorded in ``goldens.json`` for the same workload seed and spec label
  (energy bit for bit: the simulated statistics never move for speed).
  A spec with no recorded golden, e.g. on a held-out seed, is counted
  as unchecked, never as passed;
* **oracle** — for any seed: the GHS, MGHS and EOPT tree must be the
  exact minimum spanning tree of the random geometric graph at the run's
  radius (computed here with scipy, not with the program), Co-NNT and
  Rand-NNT trees must span all nodes, and MAINT's tree must be a
  spanning forest of the random geometric graph over the survivors'
  final positions (replayed here from the scenario) at the connectivity
  radius of their count.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components, minimum_spanning_tree
from scipy.spatial import cKDTree

GOLDENS = Path(__file__).resolve().with_name("goldens.json")


def load_goldens() -> dict:
    if not GOLDENS.exists():
        return {}
    return json.loads(GOLDENS.read_text())


def headline(report) -> list:
    return [float(report.energy), int(report.messages), int(report.rounds)]


def _canon(edges) -> np.ndarray:
    e = np.sort(np.asarray(edges, dtype=np.int64).reshape(-1, 2), axis=1)
    return e[np.lexsort((e[:, 1], e[:, 0]))]


def _graph(n: int, edges: np.ndarray, weights=None):
    w = np.ones(len(edges)) if weights is None else weights
    return coo_matrix((w, (edges[:, 0], edges[:, 1])), shape=(n, n)).tocsr()


def exact_mst(points: np.ndarray, radius: float) -> np.ndarray:
    """Canonical edge list of the MST (forest) of RGG(points, radius)."""
    pairs = cKDTree(points).query_pairs(radius, output_type="ndarray")
    w = np.hypot(*(points[pairs[:, 0]] - points[pairs[:, 1]]).T)
    tree = minimum_spanning_tree(_graph(len(points), pairs, w)).tocoo()
    return _canon(np.c_[tree.row, tree.col])


def oracle_failure(report) -> str | None:
    """Why ``report``'s tree is wrong, or ``None`` when it checks out."""
    from repro.geometry.points import uniform_points

    spec, res = report.spec, report.result
    edges = _canon(res.tree_edges)
    if spec.algorithm in ("GHS", "MGHS", "EOPT"):
        radius = res.extras["r2" if spec.algorithm == "EOPT" else "radius"]
        pts = uniform_points(spec.n, seed=spec.seed)
        want = exact_mst(pts, radius)
        if not np.array_equal(edges, want):
            got_w = float(np.hypot(*(pts[edges[:, 0]] - pts[edges[:, 1]]).T).sum())
            want_w = float(np.hypot(*(pts[want[:, 0]] - pts[want[:, 1]]).T).sum())
            return (f"tree is not the exact MST at r={radius!r}: "
                    f"{len(edges)} edges weight {got_w!r} vs {len(want)} "
                    f"edges weight {want_w!r}")
        return None
    if spec.algorithm in ("Co-NNT", "Rand-NNT"):
        n = spec.n
        parts = connected_components(_graph(n, edges), directed=False)[0]
        if len(edges) != n - 1 or parts != 1:
            return f"tree does not span: {len(edges)} edges, {parts} components"
        return None
    if spec.algorithm == "MAINT":
        return _maint_failure(spec, edges, res.extras["survivor_ids"])
    return f"no oracle for {spec.algorithm}"


def final_world(spec) -> tuple[np.ndarray, np.ndarray]:
    """``(positions, alive mask)`` after replaying the spec's scenario.

    Joins append a node, moves relocate one, leaves and permanent
    crashes remove one; a transient crash leaves the node alive.
    """
    from repro.geometry.points import uniform_points

    pos = [tuple(p) for p in uniform_points(spec.n, seed=spec.seed)]
    alive = [True] * len(pos)
    for ev in spec.scenario.events if spec.scenario is not None else ():
        if ev.kind == "join":
            pos.append((ev.x, ev.y))
            alive.append(True)
        elif ev.kind == "move":
            pos[ev.node] = (ev.x, ev.y)
        elif ev.kind == "leave" or (ev.kind == "crash" and ev.duration is None):
            alive[ev.node] = False
    return np.asarray(pos, dtype=float), np.asarray(alive)


def _maint_failure(spec, edges: np.ndarray, survivor_ids) -> str | None:
    """MAINT's tree must be a spanning forest of the survivors' final RGG.

    The radius is the connectivity radius of the survivor count, as the
    scheduler uses for every cycle: each tree edge must be an RGG edge
    and the tree must have exactly the RGG's components.
    """
    from repro.geometry.radius import connectivity_radius

    pos, alive = final_world(spec)
    ids = np.flatnonzero(alive)
    if not np.array_equal(ids, np.asarray(survivor_ids, dtype=np.int64)):
        return f"survivors differ from the replayed scenario: {len(survivor_ids)} vs {len(ids)}"
    m = len(ids)
    if len(edges) and (edges.max() >= len(alive) or not alive[edges].all()):
        return "tree names a node that is not a survivor"
    radius = connectivity_radius(max(m, 2), spec.ghs_radius_const)
    if len(edges):
        longest = float(np.hypot(*(pos[edges[:, 0]] - pos[edges[:, 1]]).T).max())
        if longest > radius * (1 + 1e-12):
            return f"tree edge of length {longest!r} exceeds the radius {radius!r}"
    dense = np.searchsorted(ids, edges)
    pairs = cKDTree(pos[ids]).query_pairs(radius, output_type="ndarray")
    want = connected_components(_graph(m, pairs), directed=False)[0]
    parts = connected_components(_graph(m, dense), directed=False)[0]
    if len(edges) != m - want or parts != want:
        return (f"tree is not a spanning forest of the final RGG: {len(edges)} "
                f"edges, {parts} components vs {want} RGG components")
    return None


class Checker:
    """Accumulates check outcomes for one run of one workload seed."""

    def __init__(self, workload: str, seed: int) -> None:
        self.goldens = load_goldens().get(workload, {}).get(str(seed), {})
        self.observed: dict[str, list] = {}
        self.failures: list[str] = []
        self.failed_ops = 0
        self.golden_checked = 0
        self.golden_missing = 0

    def check(self, label: str, report) -> bool:
        """Check one executed spec; returns whether it passed."""
        got = self.observed[label] = headline(report)
        problems = [oracle_failure(report)]
        want = self.goldens.get(label)
        if want is None:
            self.golden_missing += 1
        else:
            self.golden_checked += 1
            if want != got:
                problems.append(f"stats {got} differ from golden {want}")
        problems = [p for p in problems if p]
        self.failures += [f"{label}: {p}" for p in problems]
        self.failed_ops += bool(problems)
        return not problems

    def summary(self) -> dict:
        return {
            "failures": self.failures,
            "failed_ops": self.failed_ops,
            "golden_checked": self.golden_checked,
            "golden_missing": self.golden_missing,
            "observed": self.observed,
        }
