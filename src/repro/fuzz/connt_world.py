"""Co-NNT reliable-layer fuzzing world.

The retry world fuzzes :class:`~repro.sim.faults.RetryBuffer` bare; this
world fuzzes it *embedded* — the REPLY/CONNECTION traffic of a real
Co-NNT run, where the reliable layer carries protocol safety (a missed
REPLY strands a searcher, a missed CONNECTION leaves an asymmetric tree
edge).  The driver loop is re-cut into fuzz rules so adversarial crash
windows and retry bursts can land *between* probe phases, interleavings
the runner's fixed loop never produces.

Invariants at finish (``check_final``) are the retry world's contract
lifted to the protocol:

* drain termination — no live node holds unacked traffic;
* at-most-once — no receiver accepts the same ``(sender, seq)`` twice
  (observed through a recording RetryBuffer, not inferred);
* surviving-sender exactly-once — for every (sender, receiver) pair the
  receiver accepted exactly ``sender.next_seq[receiver]`` messages:
  every reliable REPLY/CONNECTION that was ever sent got through once;
* seen-watermark compaction — out-of-order sets empty, watermarks equal
  to stream lengths, for every surviving sender;
* protocol safety on top — recorded tree edges are symmetric, every
  connection is rank-monotone (to a strictly higher diagonal key), and
  every live non-top node ends connected;
* fate determinism — replaying the recorded fault queries against a
  fresh plane yields identical fates.

Mid-run *permanent* deaths are excluded by construction (as in the
retry world's plan normalization): Co-NNT retries reliable traffic to a
gone-forever peer until exhaustion, which is the documented out-of-scope
"participated then died" case.  Initial dead nodes (never started) and
finite transient windows are the supported fault envelope.
"""

from __future__ import annotations

import math

from repro.algorithms.connt.node import CoNNTNode, diagonal_key
from repro.algorithms.connt.runner import _reprobe_stranded
from repro.errors import ProtocolError
from repro.fuzz.recorder import RecordingFaultPlane, verify_fate_determinism
from repro.sim.faults import FaultPlan, RetryBuffer, drain_reliable
from repro.sim.kernel import SynchronousKernel

__all__ = ["ConntRetryWorld", "ConntFuzzNode", "RecordingRetryBuffer"]

#: Sentinel crash window forcing a null plan to compile (mid-run window
#: mutation needs a plane to exist); see retry_world._FAR.
_FAR = 1 << 40


class RecordingRetryBuffer(RetryBuffer):
    """A RetryBuffer that logs every *accepted* delivery.

    The at-most-once and exactly-once invariants must be observed, not
    inferred from protocol state — dedup could silently double-deliver
    and still leave a plausible-looking tree.  ``RetryBuffer`` has
    ``__slots__``, so recording is a subclass, not a monkey-patch.
    """

    __slots__ = ("accepted",)

    def __init__(self, ctx, **kwargs) -> None:
        super().__init__(ctx, **kwargs)
        #: Every (src, seq) this buffer's owner accepted, in order.
        self.accepted: list[tuple[int, int]] = []

    def accept(self, src: int, seq: int) -> bool:
        ok = super().accept(src, seq)
        if ok:
            self.accepted.append((src, seq))
        return ok


class ConntFuzzNode(CoNNTNode):
    """A reliable Co-NNT node whose retry layer records acceptances."""

    __slots__ = ()

    def __init__(self, node_id: int, ctx) -> None:
        super().__init__(node_id, ctx, reliable=True)

    def on_start(self) -> None:
        super().on_start()
        self.retry = RecordingRetryBuffer(self.ctx)


class ConntRetryWorld:
    """One Co-NNT instance driven phase-by-phase under fuzz rules."""

    def __init__(
        self,
        *,
        n: int = 6,
        seed: int = 0,
        fault_seed: int = 0,
        drop_rate: float = 0.0,
        dup_rate: float = 0.0,
        link_loss: tuple = (),
        crashes: tuple = (),
        record_fates: bool = True,
    ) -> None:
        from repro.experiments.instances import get_points

        self.n = int(n)
        self.seed = int(seed)
        self.fault_seed = int(fault_seed)
        self.drop_rate = float(drop_rate)
        self.dup_rate = float(dup_rate)
        self.link_loss = tuple(
            ((int(u), int(v)), float(p)) for (u, v), p in link_loss
        )
        norm = []
        for spec in crashes:
            node, start = int(spec[0]), int(spec[1])
            end = spec[2] if len(spec) > 2 else None
            if end is None and start > 0:
                raise ProtocolError(
                    "connt-world plans only allow end=None crashes at start=0"
                )
            norm.append((node, start, end if end is None else int(end)))
        self.initial_crashes = tuple(norm)
        plan_crashes = self.initial_crashes
        if not plan_crashes and not any(
            (self.drop_rate, self.dup_rate, self.link_loss)
        ):
            plan_crashes = ((0, _FAR, _FAR + 1),)
        self.plan = FaultPlan(
            seed=self.fault_seed,
            drop_rate=self.drop_rate,
            dup_rate=self.dup_rate,
            link_loss=self.link_loss,
            crashes=plan_crashes,
        )
        self.kernel = SynchronousKernel(
            get_points(self.n, self.seed),
            max_radius=math.sqrt(2.0),
            expose_coordinates=True,
            faults=self.plan,
        )
        self.kernel.add_nodes(ConntFuzzNode)
        self.kernel.start()
        if record_fates:
            self.kernel.faults = RecordingFaultPlane(self.kernel.faults)
        self.nodes = self.kernel.nodes
        self.max_phase = int(math.ceil(math.log2(2.0 * max(self.n, 2)))) + 1
        #: Generous progress bound: each node decides within its own
        #: ``max_phase + 2`` probes; window stalls burn one tick each
        #: (durations are bounded by the machine's strategy).
        self.max_steps = 4 * (self.max_phase + 2) + 12 * self.n
        self.phase = 0
        self.steps = 0
        self.windowed: set[int] = {c[0] for c in self.initial_crashes}
        self.ops: list[list] = []
        self.finished = False
        self.failed = False

    # -- state predicates --------------------------------------------------

    @property
    def _plane(self):
        fp = self.kernel.faults
        return fp.inner if isinstance(fp, RecordingFaultPlane) else fp

    def _gone(self, node: int) -> bool:
        return self._plane.gone_forever(node, self.kernel.rounds)

    def active_searchers(self) -> list[int]:
        """Nodes still searching and not gone forever."""
        return [
            nd.id for nd in self.nodes if not nd.done and not self._gone(nd.id)
        ]

    # -- rules -------------------------------------------------------------

    def probe_step(self) -> None:
        """One protocol phase: probe wave, settle, decide, settle.

        Mirrors the runner's loop body exactly (including per-node phase
        resumption for nodes that slept through wakes in crash windows),
        so rule interleavings explore real executions.
        """
        self.ops.append(["probe_step"])
        self.steps += 1
        if self.steps > self.max_steps:
            self.failed = True
            raise ProtocolError(
                f"Co-NNT world made no progress within {self.max_steps} steps"
            )
        active = self.active_searchers()
        if not active:
            return
        rnd = self.kernel.rounds
        alive = [i for i in active if not self._plane.crashed(i, rnd)]
        try:
            if not alive:
                # Every searcher is inside a transient window: idle the
                # clock one round instead of probing nobody.
                self.kernel.tick()
                return
            self.phase += 1
            groups: dict[int, list[int]] = {}
            for i in alive:
                groups.setdefault(
                    min(self.nodes[i]._phase + 1, self.phase), []
                ).append(i)
            for ph in sorted(groups):
                self.kernel.wake(groups[ph], "probe", (ph,))
            self.kernel.run_until_quiescent()
            drain_reliable(self.kernel, self.nodes)
            self.kernel.wake(alive, "decide")
            self.kernel.run_until_quiescent()
            drain_reliable(self.kernel, self.nodes)
        except Exception:
            self.failed = True
            raise

    def run_rounds(self, k: int) -> None:
        """Idle the clock (ages crash windows and retry backoffs)."""
        self.ops.append(["run_rounds", int(k)])
        for _ in range(int(k)):
            self.kernel.tick()

    def retry_tick(self) -> None:
        """Adversarial mid-schedule retry burst on every able node."""
        self.ops.append(["retry_tick"])
        rnd = self.kernel.rounds
        able = [
            nd.id
            for nd in self.nodes
            if nd.retry is not None
            and nd.retry.pending
            and not self._plane.crashed(nd.id, rnd)
        ]
        try:
            if able:
                self.kernel.wake(able, "retry_tick")
            self.kernel.tick()
        except Exception:
            self.failed = True
            raise

    def crash(
        self, node: int, duration: int, expect_start: int | None = None
    ) -> int:
        """Open a transient radio-off window for ``node`` right now."""
        node, duration = int(node), int(duration)
        if node in self.windowed:
            raise ProtocolError(f"node {node} already has a crash window")
        if duration < 1:
            raise ProtocolError(f"crash duration must be >= 1, got {duration}")
        start = self.kernel.rounds
        if expect_start is not None and start != int(expect_start):
            self.failed = True
            raise ProtocolError(
                f"scenario drift: crash({node}) expected round "
                f"{expect_start}, replay reached {start}"
            )
        fp = self._plane
        fp._cstart[node] = start
        fp._cend[node] = start + duration
        fp.has_crashes = True
        self.windowed.add(node)
        self.ops.append(["crash", node, duration, start])
        return start

    def finish(self) -> None:
        """Drive the protocol to termination, then check the contract."""
        self.ops.append(["finish"])
        try:
            while self.active_searchers():
                self.steps += 1
                if self.steps > self.max_steps:
                    raise ProtocolError(
                        f"Co-NNT world did not terminate within "
                        f"{self.max_steps} steps"
                    )
                rnd = self.kernel.rounds
                alive = [
                    i
                    for i in self.active_searchers()
                    if not self._plane.crashed(i, rnd)
                ]
                if not alive:
                    self.kernel.tick()
                    continue
                self.phase += 1
                groups: dict[int, list[int]] = {}
                for i in alive:
                    groups.setdefault(
                        min(self.nodes[i]._phase + 1, self.phase), []
                    ).append(i)
                for ph in sorted(groups):
                    self.kernel.wake(groups[ph], "probe", (ph,))
                self.kernel.run_until_quiescent()
                drain_reliable(self.kernel, self.nodes)
                self.kernel.wake(alive, "decide")
                self.kernel.run_until_quiescent()
                drain_reliable(self.kernel, self.nodes)
            _reprobe_stranded(self.kernel, self.nodes, self.max_phase)
            drain_reliable(self.kernel, self.nodes)
            self.finished = True
            self.check_final()
        except Exception:
            self.failed = True
            raise

    # -- invariants --------------------------------------------------------

    def check_final(self) -> None:
        rnd = self.kernel.rounds
        fp = self._plane
        gone = {nd.id for nd in self.nodes if fp.gone_forever(nd.id, rnd)}
        live = [nd for nd in self.nodes if nd.id not in gone]

        # Drain termination: live nodes hold no unacked traffic.
        for nd in live:
            if nd.retry is not None and nd.retry.pending:
                raise ProtocolError(
                    f"live node {nd.id} holds {len(nd.retry.pending)} "
                    "unacked messages after finish"
                )

        # At-most-once: no (sender, seq) accepted twice by one receiver.
        for nd in self.nodes:
            if nd.retry is None:
                continue
            log = nd.retry.accepted
            if len(log) != len(set(log)):
                dupes = sorted(
                    {entry for entry in log if log.count(entry) > 1}
                )
                raise ProtocolError(
                    f"node {nd.id} accepted duplicates {dupes}"
                )

        # Surviving-sender exactly-once: the receiver accepted exactly
        # the sender's stream length — every reliable REPLY/CONNECTION
        # sent by a survivor was delivered, once.
        for receiver in self.nodes:
            if receiver.retry is None:
                continue
            by_sender: dict[int, int] = {}
            for src, _seq in receiver.retry.accepted:
                by_sender[src] = by_sender.get(src, 0) + 1
            for sender in self.nodes:
                if sender.id == receiver.id or sender.id in gone:
                    continue
                stream = (
                    sender.retry.next_seq.get(receiver.id, 0)
                    if sender.retry is not None
                    else 0
                )
                got = by_sender.get(sender.id, 0)
                if got != stream:
                    raise ProtocolError(
                        f"node {receiver.id} accepted {got} messages from "
                        f"surviving sender {sender.id}, stream length is "
                        f"{stream}"
                    )

        # Compaction: dedup state for surviving senders fully folded.
        for nd in self.nodes:
            if nd.retry is None:
                continue
            for src, extra in nd.retry.seen.items():
                if src in gone:
                    continue
                if extra:
                    raise ProtocolError(
                        f"node {nd.id} parked out-of-order seqs "
                        f"{sorted(extra)} from surviving sender {src}"
                    )
                sender = self.nodes[src]
                stream = (
                    sender.retry.next_seq.get(nd.id, 0)
                    if sender.retry is not None
                    else 0
                )
                lo = nd.retry._seen_lo.get(src, 0)
                if lo != stream:
                    raise ProtocolError(
                        f"node {nd.id} watermark for sender {src} is {lo}, "
                        f"expected stream length {stream}"
                    )

        # Protocol safety: symmetric, rank-monotone, everyone (but the
        # top-ranked survivor) connected.
        if live:
            top = max(
                live, key=lambda nd: diagonal_key(nd.x, nd.y, nd.id)
            ).id
            for nd in live:
                if nd.id == top:
                    continue
                tgt = nd.connected_to
                if tgt is None:
                    raise ProtocolError(
                        f"live non-top node {nd.id} ended unconnected"
                    )
                if diagonal_key(
                    self.nodes[tgt].x, self.nodes[tgt].y, tgt
                ) <= diagonal_key(nd.x, nd.y, nd.id):
                    raise ProtocolError(
                        f"node {nd.id} connected downrank to {tgt}"
                    )
                if tgt not in nd.tree_edges or (
                    tgt not in gone
                    and nd.id not in self.nodes[tgt].tree_edges
                ):
                    raise ProtocolError(
                        f"tree edge {nd.id} -> {tgt} is not symmetric"
                    )

        fpr = self.kernel.faults
        if isinstance(fpr, RecordingFaultPlane):
            verify_fate_determinism(fpr)

    # -- artifacts ---------------------------------------------------------

    def to_scenario(self) -> dict:
        return {
            "schema_version": 1,
            "kind": "fuzz_scenario",
            "machine": "connt",
            "params": {
                "n": self.n,
                "seed": self.seed,
                "fault_seed": self.fault_seed,
                "drop_rate": self.drop_rate,
                "dup_rate": self.dup_rate,
                "link_loss": [[u, v, p] for (u, v), p in self.link_loss],
                "crashes": [
                    [node, start, end]
                    for node, start, end in self.initial_crashes
                ],
            },
            "ops": [list(op) for op in self.ops],
        }
