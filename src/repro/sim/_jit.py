"""Optional Numba acceleration shim.

The whole-round phase engine is pure numpy by policy: Numba is an *optional*
accelerator, never a dependency.  This shim resolves the policy in one
place — ``njit`` is Numba's decorator when the package is importable
(and not disabled via ``REPRO_NO_NUMBA=1``), and an identity decorator
otherwise, so decorated kernels run unchanged as plain Python/numpy.

Nothing else in the codebase may import ``numba`` directly; gating the
import here keeps the fallback path tested on hosts without Numba (CI
images bake in only the numpy/scipy toolchain).
"""

from __future__ import annotations

import os

__all__ = ["njit", "HAVE_NUMBA"]


def _identity_njit(*args, **kwargs):
    """Signature-compatible stand-in for ``numba.njit``."""
    if len(args) == 1 and callable(args[0]) and not kwargs:
        return args[0]

    def wrap(fn):
        return fn

    return wrap


HAVE_NUMBA = False
njit = _identity_njit

if not os.environ.get("REPRO_NO_NUMBA"):
    try:  # pragma: no cover - exercised only where numba is installed
        from numba import njit as _numba_njit

        njit = _numba_njit
        HAVE_NUMBA = True
    except ImportError:
        pass
