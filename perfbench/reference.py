"""The reference computation that ``run_x`` is measured against.

A fixed pure-Python walk over a seeded graph of 300,000 small objects
(about 50 MB: dict lookups, attribute loads, a small heap), so that,
like the simulations, it runs out of the caches and memory the box
shares with its neighbours.  Each call walks a different stretch of a
long key list, so no call finds the previous one's nodes in the core's
own cache.

Run as a script it builds the graph, prints ``ready``, then answers
each line on standard input with one call and prints the call's wall
seconds; it exits when its input closes.  ``common.Yardstick`` drives
it from the benchmark.
"""

from __future__ import annotations

import heapq
import random
import sys
import time
from typing import Dict, List, Tuple

NODES = 300_000
#: lookups per call (about 7 ms on the reference box)
LOOKUPS = 2_000
HOPS = 4
SEED = 20081203


class _Node:
    __slots__ = ("value", "next")

    def __init__(self, value: int) -> None:
        self.value = value
        self.next: "_Node" = self


def build() -> Tuple[Dict[str, _Node], List[str]]:
    rng = random.Random(SEED)
    nodes = [_Node(index) for index in range(NODES)]
    for node in nodes:
        node.next = nodes[rng.randrange(NODES)]
    table = {f"n{index}": node for index, node in enumerate(nodes)}
    keys = [f"n{rng.randrange(NODES)}" for _ in range(NODES)]
    return table, keys


def walk(table: Dict[str, _Node], keys: List[str], start: int) -> int:
    """One call: ``LOOKUPS`` lookups from ``keys[start]``, each followed
    by ``HOPS`` hops along the graph."""
    heap: List[Tuple[int, int]] = []
    acc = 0
    for key in keys[start:start + LOOKUPS]:
        node = table[key]
        for _ in range(HOPS):
            node = node.next
            acc += node.value
        heapq.heappush(heap, (node.value, acc))
        if len(heap) > 64:
            heapq.heappop(heap)
    return acc


def main() -> int:
    table, keys = build()
    out = sys.stdout
    out.write("ready\n")
    out.flush()
    start = 0
    for _line in sys.stdin:
        began = time.perf_counter()
        walk(table, keys, start)
        out.write(f"{time.perf_counter() - began!r}\n")
        out.flush()
        start = (start + LOOKUPS) % (NODES - LOOKUPS)
    return 0


if __name__ == "__main__":
    sys.exit(main())
