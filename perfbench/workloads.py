"""The benchmark's workloads: which specs a run executes, derived from its seed.

Everything here is plain data (standard library only).  A spec is a
``RunSpec`` payload dict; the optional ``"scenario": "mixed"`` marker is
replaced by ``mixed_plan(n, seed=seed)`` inside the worker, which is the
only place the program is imported.  The program never sees the
workload seed, only the spec seeds derived from it.

``--seconds`` sets the amount of work, not a wall-clock deadline: a run
executes ``max(min_units, round(seconds / unit_s))`` units, so two
commits measured with the same ``--seconds`` do identical work whatever
their speed.  ``unit_s`` is the nominal duration of one unit on a 2-core
x86 host.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Spec seeds of workload seed ``s`` start at ``s * SEED_STRIDE``.
SEED_STRIDE = 100_000

#: Seed of the warm-up specs run during set-up (fixed: warm-up output is
#: never measured or checked).
WARMUP_SEED = 999_999_937

SMALL_MIX_ALGORITHMS = ("GHS", "MGHS", "EOPT", "Co-NNT", "Rand-NNT", "MAINT")
SERVE_ALGORITHMS = ("MGHS", "EOPT", "Co-NNT")
SERVE_NS = (400, 700, 1000)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "compute" | "serve"
    unit_s: float
    min_units: int
    #: Report times adjusted to nominal host speed (``hostref.py``).  Only
    #: where a run makes many short calls: two references around one
    #: 12 s call track the host worse than the call itself does.
    adjusted: bool


#: Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("mghs-large", "compute", unit_s=13.0, min_units=1, adjusted=False),
        Workload("eopt-large", "compute", unit_s=12.0, min_units=1, adjusted=False),
        Workload("small-mix", "compute", unit_s=4.5, min_units=6, adjusted=True),
        Workload("serve-mix", "serve", unit_s=0.13, min_units=120, adjusted=True),
    )
}


def units(workload: Workload, seconds: float) -> int:
    return max(workload.min_units, round(seconds / workload.unit_s))


def label(spec: dict) -> str:
    """Stable golden key of a spec (independent of the RunSpec schema)."""
    text = f"{spec['algorithm']}:n{spec['n']}:s{spec['seed']}:{spec.get('kernel', 'fast')}"
    if spec.get("scenario"):
        text += f":{spec['scenario']}"
    return text


def _spec(algorithm: str, n: int, seed: int, kernel: str | None = None) -> dict:
    spec = {"algorithm": algorithm, "n": n, "seed": seed}
    if kernel is not None:
        spec["kernel"] = kernel
    if algorithm == "MAINT":
        spec["scenario"] = "mixed"
    return spec


def compute_specs(workload: Workload, seed: int, seconds: float) -> list[dict]:
    """The measured spec list of a compute workload."""
    base = seed * SEED_STRIDE
    count = units(workload, seconds)
    if workload.name == "mghs-large":
        return [_spec("MGHS", 50_000, base + k, "turbo") for k in range(count)]
    if workload.name == "eopt-large":
        return [_spec("EOPT", 50_000, base + k, "turbo") for k in range(count)]
    if workload.name == "small-mix":
        return [
            _spec(alg, 2000, base + k)
            for k in range(count)
            for alg in SMALL_MIX_ALGORITHMS
        ]
    raise ValueError(f"{workload.name} is not a compute workload")


def warmup_specs(specs: list[dict]) -> list[dict]:
    """One small run per distinct (algorithm, kernel) of ``specs``."""
    seen: dict[tuple, dict] = {}
    for s in specs:
        key = (s["algorithm"], s.get("kernel"))
        seen.setdefault(key, _spec(s["algorithm"], 300, WARMUP_SEED, s.get("kernel")))
    return list(seen.values())


def _serve_spec(seed: int, j: int, hit: bool) -> dict:
    """Request ``j`` of one class: cycles every (algorithm, n) pair."""
    alg = SERVE_ALGORITHMS[j % len(SERVE_ALGORITHMS)]
    n = SERVE_NS[(j // len(SERVE_ALGORITHMS)) % len(SERVE_NS)]
    return _spec(alg, n, seed * SEED_STRIDE + 2 * j + (0 if hit else 1))


def serve_sets(seed: int, seconds: float, sets: int):
    """``(setup_spec, request sets)`` of serve-mix.

    Each set holds ``units`` hits and ``units`` misses in a seeded
    shuffled order, as ``("hit" | "miss", spec)`` pairs; the sets are
    disjoint.  The set-up spec is one more miss, outside every set.
    """
    import random

    per_class = units(WORKLOADS["serve-mix"], seconds)
    out = []
    for k in range(sets):
        js = range(k * per_class, (k + 1) * per_class)
        reqs = [("hit", _serve_spec(seed, j, True)) for j in js]
        reqs += [("miss", _serve_spec(seed, j, False)) for j in js]
        random.Random(seed * 1009 + k).shuffle(reqs)
        out.append(reqs)
    return _serve_spec(seed, sets * per_class, False), out
