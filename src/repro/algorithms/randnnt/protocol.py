"""Rand-NNT: nearest-neighbour tree under *random* ranks, no coordinates.

This is the predecessor scheme of Khan–Pandurangan(–Kumar) ([14, 15] in
the paper's reference list) that the paper's Related Work positions
itself against: it needs only O(log n) energy but returns an
O(log n)-*approximate* MST, whereas EOPT gets the exact MST for the same
energy order and Co-NNT gets a constant-factor tree with coordinates.

It is the Co-NNT protocol (:mod:`repro.algorithms.connt`) under another
rank rule, :func:`~repro.algorithms.connt.node.id_rank`: every node's
rank is its unique id and its cutoff is the square's diameter, on a
kernel built without ``expose_coordinates``.  The single highest-ranked
node runs out of radius and terminates unconnected; every other edge
points strictly uphill in rank, so the result is a spanning tree.

Unlike Co-NNT there is no potential-distance cutoff — without
coordinates a node cannot bound where its higher-ranked nodes live, which
is precisely why a few unlucky high-ranked nodes must pay long edges and
the tree is only O(log n)-approximate.  There is no fault-recovery layer
either: the registry rejects fault plans for Rand-NNT.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import AlgorithmResult
from repro.algorithms.connt.node import id_rank
from repro.algorithms.connt.runner import run_nnt
from repro.runspec.registry import register_algorithm
from repro.sim.power import PathLossModel


def run_randnnt(
    points: np.ndarray,
    *,
    power: PathLossModel | None = None,
    rx_cost: float = 0.0,
) -> AlgorithmResult:
    """Run Rand-NNT on ``points``; returns the random-rank NNT.

    O(log n) expected energy, O(log n)-approximate tree — the paper's
    Related-Work baseline between GHS (exact, log² n energy) and EOPT
    (exact, log n energy).
    """
    return run_nnt(points, "Rand-NNT", id_rank, power=power, rx_cost=rx_cost)


# -- runspec registration -----------------------------------------------------

def _randnnt_adapter(points, spec):
    return run_randnnt(points, rx_cost=spec.rx_cost)


register_algorithm(
    "Rand-NNT",
    runner=run_randnnt,
    adapter=_randnnt_adapter,
    order=4,
    summary="random-rank NNT baseline [15] - O(log n) energy, no recovery layer",
    supports_faults=False,
    supports_kernel_mode=False,
)
