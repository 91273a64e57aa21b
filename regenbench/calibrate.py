"""A fixed piece of work that measures how fast the host runs right now.

On a shared host the program's speed drifts by a fifth to a third for
minutes at a time, because other tenants contend for the processor's
caches and memory.  This loop stands in for the program's own access
pattern: it chases pointers through a few hundred thousand small objects
scattered over tens of megabytes, looks keys up in a large dict and keeps
a heap of pending entries, as the event kernel does.  Its time rises and
falls with the program's (timed in turn with fig06a on a 2-vCPU VM, the
two correlated at 0.84), while neither the program nor its inputs can
change it.

It runs in a child process of its own, so its memory stays out of the
benchmark's ``peak_rss_mb``.  The child builds its data, prints
``ready`` and then, for every line it reads, runs the loop once and
prints the loop's seconds.  It exits at the end of its input.

    python3 regenbench/calibrate.py
"""

from __future__ import annotations

import gc
import heapq
import random
import sys

from tracing import clock

NODES = 400_000
KEYS = 200_000
STEPS = 150_000
PENDING = 4096


class Node:
    __slots__ = ("key", "next", "val")


def build():
    """The nodes, linked in one cycle of a fixed random order, and a
    dict to look their keys up in."""
    # repro-lint: disable=DET103 -- fixed benchmark data, not sim state
    rnd = random.Random(1)
    nodes = [Node() for _ in range(NODES)]
    order = list(range(NODES))
    rnd.shuffle(order)
    for here, there in zip(order, order[1:] + order[:1]):
        nodes[here].next = nodes[there]
        nodes[here].key = there
        nodes[here].val = 0
    return nodes, {i: i for i in range(KEYS)}


def loop(nodes, table) -> float:
    """Seconds for one pass of the fixed work."""
    start = clock()
    node, pending = nodes[0], []
    for step in range(STEPS):
        node = node.next
        node.val += table.get(node.key % KEYS, 0) & 7
        heapq.heappush(pending, (node.key, step))
        if len(pending) > PENDING:
            heapq.heappop(pending)
    return clock() - start


def main() -> int:
    nodes, table = build()
    # nothing here is garbage; a collection would only add noise
    gc.disable()
    print("ready", flush=True)
    for _ in sys.stdin:
        print(repr(loop(nodes, table)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
