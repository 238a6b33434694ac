"""Synchronous message-passing simulator with energy accounting.

This implements the paper's model (Sec. II) directly:

* communication happens in discrete synchronous rounds;
* a node transmits at an adaptive power level; a **unicast** to a neighbour
  at distance ``d`` costs ``a d^alpha`` energy, a **local broadcast** to
  radius ``R`` costs ``a R^alpha`` and is received by every node within
  ``R`` (the radio/wireless local-broadcast feature);
* there are no collisions (each message succeeds in one attempt) unless a
  seeded :class:`~repro.sim.faults.FaultPlan` injects message loss,
  duplication, or node crash windows at delivery time;
* the receiver of a message learns the distance to the sender (the RSSI
  assumption implicit in the modified GHS's per-neighbour distance lists);
* the **energy complexity** of a run is the sum of per-message energies,
  which the kernel's ledger tracks per node / per message kind / per stage.

Algorithm code sees only a per-node :class:`~repro.sim.kernel.Context`
facade; coordinates are exposed to a node only when the algorithm is
declared coordinate-aware (Co-NNT), mirroring the paper's information
model.
"""

from repro.sim.power import PathLossModel
from repro.sim.message import Message
from repro.sim.energy import EnergyLedger, SimStats
from repro.sim.node import NodeProcess
from repro.sim.faults import FaultPlan, FaultPlane, RetryBuffer
from repro.sim.kernel import (
    Context,
    SynchronousKernel,
    neighbor_csr_arrays,
    table_within_budget,
)
from repro.sim.legacy import LegacyKernel
from repro.sim.backends import (
    KernelEntry,
    get_kernel,
    kernel_class,
    kernel_entries,
    kernel_names,
    register_kernel,
)

__all__ = [
    "KernelEntry",
    "get_kernel",
    "kernel_class",
    "kernel_entries",
    "kernel_names",
    "register_kernel",
    "PathLossModel",
    "Message",
    "EnergyLedger",
    "SimStats",
    "NodeProcess",
    "FaultPlan",
    "FaultPlane",
    "RetryBuffer",
    "SynchronousKernel",
    "LegacyKernel",
    "Context",
    "neighbor_csr_arrays",
    "table_within_budget",
]
