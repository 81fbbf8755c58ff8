"""The host reference task, in a process of its own.

``workload.RefClock`` starts this once per trial and asks it for a
sample between operations; the trial waits for the answer, so only one
of the two processes runs at a time.  The task runs apart from the
program so that its allocations add nothing to the program's peak RSS
and its heap never meets the program's collector.

Protocol: prints ``ready`` once set up, then for each line read from
standard input prints one sample in ms; exits at end of input.

A sample is the geometric mean of two fixed pure-Python tasks that the
host's neighbours slow down in different ways:

``interpret``
    Fills a dict of lists and dicts, round-trips it through JSON and
    sorts it: allocation and bytecode work, like the program's warm
    path.  Small versions of it (a few hundred entries) track the
    host's speed but over-state its swings for the program.
``walk``
    Follows one long cycle through a list of about half a million
    integers (``WALK_LEN``, about 20 MB with the integers) in an order
    the hardware prefetcher cannot follow: cache- and memory-latency
    bound.  Alone it under-states the swings.

On a 2-CPU VM shared with other tenants, over two 5-minute windows of
8-second medians, the program's warm-request time divided by this
sample varied about half as much as divided by the small interpret
task alone (coefficient of variation 0.050 and 0.065 against 0.086
and 0.128), and a cold Table II solve 0.053 against 0.131.
"""

from __future__ import annotations

import gc
import json
import math
import sys
import time

TABLE = 6000
WALK_LEN = 1 << 19
WALK_STEPS = 20000
# Hull-Dobell full-period LCG modulo 2**19: following WALK from any
# slot visits every slot once before it returns.
WALK = [(1664525 * i + 1013904223) % WALK_LEN for i in range(WALK_LEN)]


def interpret_ms() -> float:
    start = time.perf_counter()
    table = {}
    for i in range(TABLE):
        key = "k%d" % i
        table[key] = [i, key, {"v": i * 3, "s": key + "x"}]
    json.loads(json.dumps(table))
    sorted(table, key=lambda k: table[k][0] % 97)
    del table
    return (time.perf_counter() - start) * 1000.0


def walk_ms() -> float:
    start = time.perf_counter()
    walk, i = WALK, 0
    for _ in range(WALK_STEPS):
        i = walk[i]
    return (time.perf_counter() - start) * 1000.0


def sample_ms() -> float:
    return math.sqrt(interpret_ms() * walk_ms())


def main() -> int:
    gc.disable()  # the tasks make no cycles; reference counting frees all
    sample_ms()  # first touch of the walk and of the allocator's arenas
    print("ready", flush=True)
    for _ in sys.stdin:
        print(repr(sample_ms()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
