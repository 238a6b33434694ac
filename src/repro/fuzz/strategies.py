"""Shared hypothesis strategies for the fuzz machines.

Kept separate from :mod:`repro.fuzz.machine` so the value distributions
— which double as documentation of the explored envelope — are in one
place.  Rates are drawn from small curated grids rather than continuous
floats: the fault model quantizes probabilities into 64-bit thresholds
anyway, and grid values shrink to readable scenarios.
"""

from __future__ import annotations

from hypothesis import strategies as st

__all__ = [
    "drop_rates",
    "dup_rates",
    "link_loss_entries",
    "ghs_instances",
    "retry_instances",
    "connt_instances",
]

#: Loss/duplication grids: off, light, heavy (p=1.0 only on single links —
#: a global drop_rate of 1.0 can never terminate).
drop_rates = st.sampled_from([0.0, 0.05, 0.15, 0.25])
dup_rates = st.sampled_from([0.0, 0.1, 0.2])


def link_loss_entries(n_max: int):
    """Up to two lossy pair entries.

    Capped at p=0.5 — fuzz invariants must be deterministic truths, and
    the reliable layer's guarantee over a lossy link is only
    probabilistic: link loss applies to both directions, so one
    DATA+ACK round trip succeeds with probability (1-p)^2 per retry.
    At p=0.5 that is >=0.25, and exhausting the retry budget has odds
    ~0.75^400 = 1e-50 — never observed.  At p=0.9 it is ~0.01, and a
    *legitimate* retry exhaustion fires roughly once per 50 examples
    (the fuzzer found exactly this); p=1.0 is a permanently dead link
    the recovery contract excludes outright.  The p=1.0 threshold
    quantization itself is pinned by the unit fate tests.
    """
    pair = st.tuples(
        st.integers(0, n_max - 1), st.integers(0, n_max - 1)
    ).filter(lambda uv: uv[0] != uv[1])
    entry = st.tuples(pair, st.sampled_from([0.3, 0.5]))
    return st.lists(entry, max_size=2, unique_by=lambda e: e[0])


#: GHS-world constructor draws.  n stays small: every example runs the
#: full protocol once per kernel mode.
ghs_instances = st.fixed_dictionaries(
    {
        "n": st.integers(12, 28),
        "seed": st.integers(0, 5),
        "algorithm": st.sampled_from(["MGHS", "MGHS", "MGHS", "GHS"]),
        "fault_seed": st.integers(0, 99),
        "drop_rate": drop_rates,
        "dup_rate": dup_rates,
        "link_loss": link_loss_entries(8),
        "dead_nodes": st.lists(st.integers(0, 9), max_size=2, unique=True),
        "cap_slack": st.sampled_from([1.0, 1.25]),
    }
)

#: Co-NNT-world constructor draws: a small unit-square instance whose
#: REPLY/CONNECTION traffic rides the reliable layer.  Same crash
#: envelope as the retry world minus mid-run permanent deaths (reliable
#: traffic to a gone-forever peer exhausts its retry budget by design —
#: the documented out-of-scope case).
connt_instances = st.fixed_dictionaries(
    {
        "n": st.integers(5, 9),
        "seed": st.integers(0, 5),
        "fault_seed": st.integers(0, 99),
        "drop_rate": st.sampled_from([0.0, 0.1, 0.25]),
        "dup_rate": st.sampled_from([0.0, 0.2]),
        "link_loss": link_loss_entries(5),
        "dead_node": st.one_of(st.none(), st.integers(0, 4)),
        "window": st.one_of(
            st.none(),
            st.tuples(st.integers(0, 4), st.integers(0, 6), st.integers(1, 8)),
        ),
    }
)

#: Retry-world constructor draws: a short line of echo nodes.  Initial
#: crashes are either never-started (start=0, forever) or one finite
#: window; mid-run permanent deaths come from the crash_forever rule.
retry_instances = st.fixed_dictionaries(
    {
        "n": st.integers(4, 8),
        "fault_seed": st.integers(0, 99),
        "drop_rate": st.sampled_from([0.0, 0.15, 0.3]),
        "dup_rate": st.sampled_from([0.0, 0.2]),
        "link_loss": link_loss_entries(4),
        "dead_node": st.one_of(st.none(), st.integers(0, 3)),
        "window": st.one_of(
            st.none(),
            st.tuples(st.integers(0, 3), st.integers(0, 6), st.integers(1, 8)),
        ),
    }
)
