"""Run-service layer: declarative specs, the algorithm registry, and the
one execution engine under the CLI, sweeps and benchmarks.

The layer stack (see ``docs/architecture.md``)::

    geometry/rgg  ->  sim kernel  ->  algorithms  ->  runspec engine
                                                          |
                                      experiments / CLI / benchmarks

* :class:`RunSpec` — a frozen, JSON-round-trippable run description
  (algorithm, instance seed, radii constants, kernel flags, fault plan,
  instrumentation switches).
* the registry (:func:`algorithm_names`, :func:`algorithm_entries`,
  :func:`get_algorithm`) — runner modules self-register; one canonical
  label ordering for the CLI, tables and error messages.
* :func:`execute` / :func:`execute_batch` — one engine owning kernel
  construction, registry dispatch and the perf/trace snapshot lifecycle;
  the batch form is the single fan-out path for sweeps (serial or
  process-pool, with graceful serial fallback).
* :class:`RunReport` — the result plus perf/trace snapshots and the
  fault table, JSON-round-trippable like the spec.
"""

from repro.runspec.engine import dispatch, execute, execute_batch, shutdown
from repro.runspec.registry import AlgorithmEntry, register_algorithm
from repro.runspec.registry import entries as algorithm_entries
from repro.runspec.registry import get as get_algorithm
from repro.runspec.registry import names as algorithm_names
from repro.runspec.report import RunReport, result_from_dict, result_to_dict
from repro.runspec.spec import (
    KERNEL_ALIASES,
    KERNEL_MODES,
    KERNELS,
    SCHEMA_VERSION,
    RunSpec,
    faultplan_from_dict,
    faultplan_to_dict,
    jsonable,
    kernel_class,
    scenarioplan_from_dict,
    scenarioplan_to_dict,
)

__all__ = [
    "AlgorithmEntry",
    "KERNEL_ALIASES",
    "KERNEL_MODES",
    "KERNELS",
    "RunReport",
    "RunSpec",
    "SCHEMA_VERSION",
    "algorithm_entries",
    "algorithm_names",
    "dispatch",
    "execute",
    "execute_batch",
    "faultplan_from_dict",
    "faultplan_to_dict",
    "get_algorithm",
    "jsonable",
    "kernel_class",
    "register_algorithm",
    "result_from_dict",
    "result_to_dict",
    "scenarioplan_from_dict",
    "scenarioplan_to_dict",
    "shutdown",
]
