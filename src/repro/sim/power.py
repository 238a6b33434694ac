"""Radio path-loss / energy model.

The paper assumes the radiation energy to send one message over distance
``d`` is ``w = a * d**alpha`` with path-loss exponent ``alpha`` (Sec. II).
Energy complexity is always computed with ``alpha = 2``; the model is kept
parametric so the ABL-A bench can sweep the exponent.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import GeometryError


@dataclass(frozen=True)
class PathLossModel:
    """Transmission-energy model ``w(d) = a * d**alpha``.

    Attributes
    ----------
    a:
        Proportionality constant (paper: unspecified constant; we use 1).
    alpha:
        Path-loss exponent (paper: 2 for all energy accounting; 2-4 covers
        realistic fading environments).
    """

    a: float = 1.0
    alpha: float = 2.0

    def __post_init__(self) -> None:
        if self.a <= 0:
            raise GeometryError(f"path-loss constant a must be positive, got {self.a}")
        if self.alpha <= 0:
            raise GeometryError(f"path-loss exponent must be positive, got {self.alpha}")

    def energy(self, distance: float) -> float:
        """Energy to transmit one message to ``distance``."""
        if distance < 0:
            raise GeometryError(f"distance must be non-negative, got {distance}")
        if self.alpha == 2.0:  # hot path: avoid pow()
            return self.a * distance * distance
        return self.a * distance**self.alpha

    def energy_array(self, distances):
        """Vectorized :meth:`energy` over a float64 array.

        Bit-identical per element to the scalar path: for ``alpha == 2``
        the same ``a*d*d`` expression vectorizes exactly; for other
        exponents numpy's pow can differ from Python's in the last ulp,
        so the general case loops the scalar expression.
        """
        import numpy as np

        distances = np.asarray(distances, dtype=np.float64)
        if distances.size and float(distances.min()) < 0:
            raise GeometryError("distances must be non-negative")
        if self.alpha == 2.0:
            return self.a * distances * distances
        return np.array(
            [self.a * d**self.alpha for d in distances.tolist()], dtype=np.float64
        )
