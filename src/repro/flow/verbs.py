"""Flow twins of the :mod:`repro.verbs.perftest` bandwidth runners.

Same measurement conventions as the packet twin (t0 at the first
receiver completion, bandwidth over ``iters - 1`` inter-completion
gaps, receiver-observed), same QP machinery underneath — the only
change is *when* sends are posted and how the tail completes:

* the sender is paced by receiver completions with a lookahead of one
  send window plus slack, so its backlog never runs dry while the
  window is open (post timing therefore cannot change frame timing)
  and a collapse can stop posting the tail;
* every receiver completion feeds a
  :class:`~repro.flow.crossover.PeriodDetector`; once the completion
  pattern is *proved* periodic and enough messages remain beyond the
  in-flight set, posting halts, the skipped messages' wire bytes are
  accounted on the WAN link, and the missing completions are delivered
  in one analytic event at the predicted time of the last completion.

UD never collapses here: its pump drains the backlog continuously, so
by the time the detector could confirm, everything is already posted —
the run degenerates to the packet trajectory (which is exactly what
the equivalence wall wants from a transport with nothing to skip).
"""

from __future__ import annotations

from typing import Optional

from ..fabric.node import Node
from ..sim import Simulator
from ..verbs.ops import Opcode, RecvWR, WCStatus, WorkCompletion
from ..verbs.perftest import _make_pair, _send
from ..verbs.qp import QPState
from . import models
from .crossover import PeriodDetector

__all__ = ["flow_send_bw", "flow_bidir_bw", "PACKET_TWIN"]

#: The packet-mode module this one must stay in lockstep with (PAR304).
PACKET_TWIN = "repro.verbs.perftest"

#: Sends kept posted beyond received completions (one window + slack):
#: backlog depth at the sender is provably >= the slack whenever the
#: send window is open, so paced posting is timing-identical to the
#: packet twin's post-everything-upfront.
_LOOKAHEAD_SLACK = 4

#: Minimum quanta between the in-flight set and the final completion
#: before a collapse is allowed — the natural drain of everything
#: already posted must finish strictly before the analytic completion.
_DRAIN_SLACK = 4


class _Direction:
    """One data direction: paced sender, detector, collapse bookkeeping."""

    def __init__(self, sim: Simulator, qp_tx, qp_rx, size: int, iters: int,
                 transport: str, fabric, a_to_b: bool):
        self.sim = sim
        self.qp_tx = qp_tx
        self.qp_rx = qp_rx
        self.size = size
        self.iters = iters
        self.transport = transport
        self.fabric = fabric
        self.a_to_b = a_to_b
        window = getattr(qp_tx, "send_window", 1)
        self.window = window
        self.detector = PeriodDetector(
            window_quanta=window if transport == "rc" else 1)
        self.posted = 0
        self.got = 0
        self.halted = False

    def prime(self) -> None:
        self.qp_rx.post_recv(RecvWR(self.size), self.iters)
        if self.transport == "rc":
            initial = min(self.iters, self.window + _LOOKAHEAD_SLACK)
        else:
            # UD has no ACK clock to pace against; post everything, as
            # the packet twin does.
            initial = self.iters
        for _ in range(initial):
            self._post_one()

    def _post_one(self) -> None:
        _send(self.qp_tx, self.qp_rx, self.size)
        self.posted += 1

    def _fingerprint(self) -> tuple:
        fp = [getattr(self.qp_tx, "retransmissions", 0),
              self.qp_tx.state is QPState.RTS,
              self.qp_rx.state is QPState.RTS,
              getattr(self.qp_rx, "recv_dropped", 0)]
        wan = getattr(self.fabric, "wan", None)
        if wan is not None:
            # Quantized to buffer *pressure* (below 1/8th of the pool):
            # raw counters fluctuate with every in-flight frame and
            # would never repeat, while credit starvation — the real
            # crossover — still breaks the fingerprint.
            for unit in (wan.a, wan.b):
                fp.append(unit.credits * 8
                          < unit.profile.longbow_buffer_bytes)
        return tuple(fp)

    def on_completion(self) -> None:
        """One receiver completion consumed at ``sim.now``."""
        self.got += 1
        if self.halted:
            return
        if self.posted < self.iters:
            self._post_one()
        if not self.detector.gave_up:
            self.detector.add(self.sim.now, self._fingerprint())

    @property
    def remaining(self) -> int:
        return self.iters - self.got

    def eligible(self) -> bool:
        if self.halted or not self.detector.stable:
            return False
        if self.posted >= self.iters:
            return False  # nothing left to skip; let the tail drain
        if self.remaining < (self.posted - self.got) + _DRAIN_SLACK:
            return False
        profile = self.qp_tx.profile
        window_wire = self.window * models.verbs_data_wire_bytes(
            profile, self.size, self.transport)
        return models.longbow_headroom_ok(profile, window_wire)

    def collapse(self) -> None:
        """Halt posting; deliver the tail analytically."""
        self.halted = True
        t_last = self.detector.predict(self.remaining)
        self._account(self.iters - self.posted)
        self.sim.schedule_flow_completion(max(0.0, t_last - self.sim.now),
                                          self._force)

    def _account(self, messages: int) -> None:
        wan = getattr(self.fabric, "wan", None)
        if wan is None or messages <= 0:
            return
        profile = self.qp_tx.profile
        link = wan.wan_link
        fwd, rev = ((link.a, link.b) if self.a_to_b else (link.b, link.a))
        link.account_flow_bytes(
            fwd, messages * models.verbs_data_wire_bytes(
                profile, self.size, self.transport), frames=messages)
        ack = models.verbs_ack_wire_bytes(profile, self.transport)
        if ack:
            link.account_flow_bytes(rev, messages * ack, frames=messages)

    def _force(self) -> None:
        delivered = self.got + len(self.qp_rx.recv_cq)
        for _ in range(self.iters - delivered):
            self.qp_rx.recv_cq.push(WorkCompletion(
                0, Opcode.RECV, WCStatus.SUCCESS, self.size,
                self.qp_rx.qpn, self.sim.now))


class _CollapseGroup:
    """All directions of a run collapse atomically or not at all —
    halting one direction changes link contention for the others."""

    def __init__(self, directions):
        self.directions = directions
        self.done = False

    def maybe_collapse(self) -> None:
        if self.done:
            return
        if all(d.eligible() for d in self.directions):
            self.done = True
            for d in self.directions:
                d.collapse()


def flow_send_bw(sim: Simulator, node_a: Node, node_b: Node, size: int,
                 iters: int = 64, transport: str = "rc",
                 window: Optional[int] = None, fabric=None) -> float:
    """Flow-accelerated unidirectional send bandwidth in MB/s."""
    if iters < 2:
        raise ValueError("need at least 2 iterations")
    qp_a, qp_b = _make_pair(node_a, node_b, transport, window)
    direction = _Direction(sim, qp_a, qp_b, size, iters, transport,
                           fabric, a_to_b=True)
    group = _CollapseGroup([direction])
    result = {}

    def receiver():
        direction.prime()
        yield qp_b.recv_cq.wait()
        t0 = sim.now
        direction.on_completion()
        group.maybe_collapse()
        for _ in range(iters - 1):
            yield qp_b.recv_cq.wait()
            direction.on_completion()
            group.maybe_collapse()
        result["mbps"] = size * (iters - 1) / (sim.now - t0)

    done = sim.process(receiver(), name="flow.bw.receiver")
    sim.run(until=done)
    return result["mbps"]


def flow_bidir_bw(sim: Simulator, node_a: Node, node_b: Node, size: int,
                  iters: int = 64, transport: str = "rc",
                  window: Optional[int] = None, fabric=None) -> float:
    """Flow-accelerated bidirectional send bandwidth in MB/s (sum)."""
    if iters < 2:
        raise ValueError("need at least 2 iterations")
    qp_a, qp_b = _make_pair(node_a, node_b, transport, window)
    dir_ab = _Direction(sim, qp_a, qp_b, size, iters, transport,
                        fabric, a_to_b=True)
    dir_ba = _Direction(sim, qp_b, qp_a, size, iters, transport,
                        fabric, a_to_b=False)
    group = _CollapseGroup([dir_ab, dir_ba])
    result = {}

    def receiver(direction, key):
        direction.prime()
        yield direction.qp_rx.recv_cq.wait()
        t0 = sim.now
        direction.on_completion()
        group.maybe_collapse()
        for _ in range(iters - 1):
            yield direction.qp_rx.recv_cq.wait()
            direction.on_completion()
            group.maybe_collapse()
        result[key] = size * (iters - 1) / (sim.now - t0)

    done_a = sim.process(receiver(dir_ab, "ab"), name="flow.bibw.recv.b")
    done_b = sim.process(receiver(dir_ba, "ba"), name="flow.bibw.recv.a")
    sim.run(until=sim.all_of([done_a, done_b]))
    return result["ab"] + result["ba"]
