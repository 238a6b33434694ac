"""Rand-NNT — the Khan–Pandurangan baseline ([14, 15] in the paper)."""

from repro.algorithms.randnnt.protocol import run_randnnt

__all__ = ["run_randnnt"]
