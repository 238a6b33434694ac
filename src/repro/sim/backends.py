"""The kernel-backend registry: one canonical name -> kernel class.

Mirrors :mod:`repro.runspec.registry` (the algorithm registry): each
kernel module self-registers a :class:`KernelEntry` at import time, and
lookups lazily import the built-in kernel modules so ``kernel_class("fast")``
works without the caller importing :mod:`repro.sim` first.  The registry
is the single source of truth for:

* which kernel modes exist (:func:`kernel_names`, canonical order): the
  one optimized kernel ``fast`` and the frozen reference ``legacy``;
* how a mode label resolves to a kernel class (:func:`kernel_class`),
  including the accepted aliases in :data:`KERNEL_ALIASES` (``turbo``
  names ``fast``: the whole-round phase engine it once selected is now
  the default kernel's behaviour);
* backend properties other layers key on — ``reference`` marks the
  frozen pre-optimization baseline that capability checks single out.

``repro.runspec.spec.KERNEL_MODES`` and ``kernel_class`` are thin views
over this registry; the hardcoded tuple + if-chain they replaced lives
only in git history now.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Callable

from repro.errors import ExperimentError

__all__ = [
    "KernelEntry",
    "register_kernel",
    "get_kernel",
    "kernel_names",
    "kernel_entries",
    "kernel_class",
    "canonical_kernel",
    "KERNEL_ALIASES",
]


@dataclass(frozen=True)
class KernelEntry:
    """One registered kernel backend.

    Attributes
    ----------
    name:
        Canonical mode label (``"fast"``, ``"legacy"``).
    cls:
        The kernel class (a :class:`~repro.sim.kernel.SynchronousKernel`
        subclass, or the base class itself).
    order:
        Sort key for the canonical listing.
    summary:
        One-line description for ``repro kernels``.
    reference:
        True for the frozen pre-optimization baseline; algorithms whose
        runners cannot take ``kernel_cls`` reject every non-default mode.
    """

    name: str
    cls: type
    order: int
    summary: str = ""
    reference: bool = False


#: Modules whose import registers the built-in kernels.
_KERNEL_MODULES = (
    "repro.sim.kernel",
    "repro.sim.legacy",
)

#: Accepted alternate labels -> canonical mode.  Aliases resolve at
#: parse time (``RunSpec`` stores the canonical label), so an aliased and
#: a canonical spec share one ``spec_hash`` and one store entry.
KERNEL_ALIASES = {"turbo": "fast"}

_REGISTRY: dict[str, KernelEntry] = {}
_loaded = False


def register_kernel(
    name: str,
    *,
    cls: Callable,
    order: int,
    summary: str = "",
    reference: bool = False,
) -> KernelEntry:
    """Register one kernel backend; called by kernel modules at import time.

    Re-registering the same ``(name, cls)`` pair is a no-op (module
    reloads); registering a different class under a taken name raises.
    """
    entry = KernelEntry(
        name=name,
        cls=cls,
        order=order,
        summary=summary,
        reference=reference,
    )
    existing = _REGISTRY.get(name)
    if existing is not None and existing.cls is not cls:
        raise ExperimentError(
            f"kernel mode {name!r} is already registered to "
            f"{existing.cls.__module__}.{existing.cls.__qualname__}"
        )
    _REGISTRY[name] = entry
    return entry


def _ensure_loaded() -> None:
    """Import the built-in kernel modules once so they self-register."""
    global _loaded
    if _loaded:
        return
    for module in _KERNEL_MODULES:
        importlib.import_module(module)
    _loaded = True


def kernel_names() -> tuple[str, ...]:
    """All registered mode labels, in canonical order."""
    _ensure_loaded()
    return tuple(
        e.name for e in sorted(_REGISTRY.values(), key=lambda e: (e.order, e.name))
    )


def kernel_entries() -> tuple[KernelEntry, ...]:
    """All registered entries, in canonical order."""
    _ensure_loaded()
    return tuple(sorted(_REGISTRY.values(), key=lambda e: (e.order, e.name)))


def canonical_kernel(name: str) -> str:
    """``name`` with any alias resolved (unknown labels pass through)."""
    return KERNEL_ALIASES.get(name, name)


def get_kernel(name: str) -> KernelEntry:
    """The entry for ``name`` (or its alias target); unknown labels list
    what *is* registered."""
    _ensure_loaded()
    entry = _REGISTRY.get(canonical_kernel(name))
    if entry is None:
        raise ExperimentError(
            f"unknown kernel mode {name!r}; registered kernels: "
            + ", ".join(kernel_names())
        )
    return entry


def kernel_class(name: str) -> type:
    """Resolve a kernel-mode label to its kernel class."""
    return get_kernel(name).cls
