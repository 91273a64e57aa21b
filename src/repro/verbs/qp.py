"""Queue-pair base machinery shared by the RC and UD transports."""

from __future__ import annotations

import enum
import itertools
from collections import deque
from typing import Callable, Deque

from ..calibration import HardwareProfile
from ..fabric.node import HCA
from ..fabric.packet import Frame
from ..sim import Simulator
from .cq import CompletionQueue
from .ops import RecvWR

__all__ = ["QPState", "QueuePair"]


class QPState(enum.Enum):
    RESET = "reset"
    INIT = "init"
    RTS = "rts"  # ready-to-send (we collapse RTR->RTS, as apps do)
    ERROR = "error"


class QueuePair:
    """Common QP state: receive queue, CQ plumbing, timing helpers."""

    transport = "base"

    def __init__(self, sim: Simulator, hca: HCA, send_cq: CompletionQueue,
                 recv_cq: CompletionQueue, profile: HardwareProfile,
                 srq=None):
        self.sim = sim
        self.hca = hca
        self.profile = profile
        self.send_cq = send_cq
        self.recv_cq = recv_cq
        self.qpn = hca.allocate_qpn(self)
        self.state = QPState.INIT
        self.recv_queue: Deque[RecvWR] = deque()
        self.srq = srq
        if srq is not None:
            srq.attach(self)
        self.recv_posted_total = 0
        self.recv_dropped = 0

    # -- receive side -------------------------------------------------------
    def post_recv(self, wr: RecvWR, count: int = 1) -> None:
        """Post ``count`` receive descriptors, all ``wr``.

        A pre-posted ring of identical buffers is one call: the
        descriptors share ``wr`` (and its ``wr_id``), and a backlog
        waiting for receives is drained once, after all are posted.
        """
        if self.state is QPState.ERROR:
            raise RuntimeError(f"QP {self.qpn} is in the error state")
        if self.srq is not None:
            raise RuntimeError(
                f"QP {self.qpn} uses an SRQ; post receives to the SRQ")
        self.recv_queue.extend(itertools.repeat(wr, count))
        self.recv_posted_total += count
        self._on_recv_posted()

    def _has_recv(self) -> bool:
        if self.srq is not None:
            return len(self.srq) > 0
        return bool(self.recv_queue)

    def _take_recv(self) -> RecvWR:
        if self.srq is not None:
            return self.srq.take()
        return self.recv_queue.popleft()

    def _on_recv_posted(self) -> None:
        """Hook for transports that buffer data awaiting receives."""

    # -- helpers ---------------------------------------------------------
    def _after(self, delay_us: float, fn: Callable[[], None]) -> None:
        """Run ``fn`` after ``delay_us`` without blocking the caller.

        This models pipelined fixed-latency stages (PCIe launch, receive
        DMA) that add latency but do not consume wire or CPU throughput.
        """
        self.sim.call_at(delay_us, fn, cancellable=False)

    def handle_frame(self, frame: Frame) -> None:  # pragma: no cover
        raise NotImplementedError

    def close(self) -> None:
        self.state = QPState.ERROR
        self.hca.deregister_qp(self.qpn)

    def __repr__(self) -> str:
        return (f"<{type(self).__name__} qpn={self.qpn} "
                f"lid={self.hca.lid} {self.state.value}>")
