"""The NNT protocols: Co-NNT (Sec. VI) and the Rand-NNT baseline.

One node class (:class:`~repro.algorithms.connt.node.NNTNode`) and one
driver (:class:`~repro.algorithms.connt.runner.NNTRun`) serve both; the
algorithm only picks the rank rule and its cutoff.  Co-NNT is the
coordinate-aware constant-energy protocol; Rand-NNT lives in
:mod:`repro.algorithms.randnnt`.
"""

from repro.algorithms.connt.node import NNTNode, diagonal_key
from repro.algorithms.connt.runner import run_connt

__all__ = ["NNTNode", "diagonal_key", "run_connt"]
