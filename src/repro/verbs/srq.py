"""Shared Receive Queues.

An SRQ lets many QPs draw receive descriptors from one pool instead of
pre-posting a ring per connection — the memory-scalability feature
MVAPICH2 uses for large jobs (thousands of connections would otherwise
pin thousands of rings).  QPs created with ``srq=`` consume from the
pool; when the pool runs dry, arrivals wait in the QP's
receiver-not-ready backlog until the application reposts (a real HCA
would fire the SRQ limit event and NAK; well-behaved apps repost first).
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Deque, List

from ..sim import Simulator
from .ops import RecvWR

__all__ = ["SharedReceiveQueue"]


class SharedReceiveQueue:
    """A pool of receive work requests shared by multiple QPs."""

    def __init__(self, sim: Simulator, limit_event_threshold: int = 0):
        self.sim = sim
        self._wrs: Deque[RecvWR] = deque()
        self._consumers: List = []  # QPs to nudge when WRs arrive
        #: fires (via callbacks) when the pool drops below this level
        self.limit_event_threshold = limit_event_threshold
        self.limit_events = 0
        self.posted_total = 0

    def post_recv(self, wr: RecvWR, count: int = 1) -> None:
        """Post ``count`` descriptors, all ``wr`` (see
        :meth:`QueuePair.post_recv`)."""
        self._wrs.extend(itertools.repeat(wr, count))
        self.posted_total += count
        for qp in list(self._consumers):
            qp._on_recv_posted()

    def attach(self, qp) -> None:
        if qp not in self._consumers:
            self._consumers.append(qp)

    def detach(self, qp) -> None:
        if qp in self._consumers:
            self._consumers.remove(qp)

    def take(self) -> RecvWR:
        """Consume one descriptor; raises IndexError when empty."""
        wr = self._wrs.popleft()
        if len(self._wrs) < self.limit_event_threshold:
            self.limit_events += 1
        return wr

    def __len__(self) -> int:
        return len(self._wrs)
