"""Seeded inputs for the benchmark's workloads, as wire-JSON requests.

Functions are held as Python ints over ``2**n`` minterms (bit ``m`` =
value at minterm ``m``, bit ``i`` of ``m`` = input ``i``), the same
packing the wire form documents.  Nothing here imports the program.

Each workload has a fixed list of *base* functions, drawn once from
``BASE_SEED``, and sends NP variants of them: the table after an input
permutation and an input-polarity mask.  An NP transform maps a minimum
lattice to a minimum lattice (relabel and complement the literals), so
a variant keeps its base's lattice size; its cost does not stay put:
variants of one base take 4 to 7 SAT probes cold.

So the functions a trial synthesizes depend only on the trial number
(``function_rng``), and every seed asks for the same functions; the
seed (``seeded_rng``) drives the request stream: which working-set
function each request names, where the misses fall, and the order of
cold-table2's rounds.  With seeded functions, the miss median and the
warm p99 moved by 10-25% from seed to seed on identical code.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

BASE_SEED = 20190325

# warm-api / http-mixed working set: (inputs, count) per size.  The
# request stream draws uniformly from the set, so 4/5-input functions
# make 40% of requests and 6/7-input ones 60%: the median request is a
# 6-input function, not a boundary between two sizes.
WORKING_SET = ((4, 13), (5, 13), (6, 19), (7, 19))
# Every fourth base function carries a don't-care set.
DC_EVERY = 4
# Misses (http-mixed, and warm-api's post-phase miss sample) are fresh
# NP variants of one base, the third 5-input function drawn for them; a
# variant takes 4-7 SAT probes cold.  A mix of cheap and dear bases
# would put the miss median between two cost clusters, where it jumps
# from run to run.
MISS_BASES = ((5, 3),)
MISS_BASE_INDEX = 2
# The functions the untimed warm-up sends (kept out of the working set,
# so the working set's first touches stay in the measured phase).
WARMUP_BASES = ((5, 3), (6, 3))


@dataclass(frozen=True)
class Function:
    """One target: ``n`` inputs, on-set, don't-care set (ints)."""

    n: int
    on: int
    dc: int = 0

    def key(self) -> tuple:
        return (self.n, self.on, self.dc)

    def request(self, name: str) -> str:
        """The function as a canonical ``synthesis_request`` wire JSON
        (default options, default backend)."""
        nbytes = max(1, (1 << self.n) // 8)
        target = {
            "form": "truthtable",
            "num_vars": self.n,
            "on": self.on.to_bytes(nbytes, "little").hex(),
            "dc": self.dc.to_bytes(nbytes, "little").hex() if self.dc else None,
        }
        return json.dumps(
            {
                "api": 1,
                "kind": "synthesis_request",
                "name": name,
                "backend": "janus",
                "target": target,
            },
            sort_keys=True,
            separators=(",", ":"),
        )


def _cube(n: int, pos: int, neg: int) -> int:
    value = 0
    for m in range(1 << n):
        if m & pos == pos and m & neg == 0:
            value |= 1 << m
    return value


def random_function(rng: random.Random, n: int, with_dc: bool) -> Function:
    """A sum of 2-4 random cubes of 2-3 literals; optionally a few
    off-set minterms become don't-cares."""
    full = (1 << (1 << n)) - 1
    while True:
        on = 0
        for _ in range(rng.randint(2, 4)):
            pos = neg = 0
            for var in rng.sample(range(n), rng.randint(2, 3)):
                if rng.random() < 0.5:
                    pos |= 1 << var
                else:
                    neg |= 1 << var
            on |= _cube(n, pos, neg)
        if 0 < on < full:
            break
    dc = 0
    if with_dc:
        off = [m for m in range(1 << n) if not on >> m & 1]
        for m in rng.sample(off, max(1, len(off) // 16)):
            dc |= 1 << m
    return Function(n, on, dc)


def np_transform(
    f: Function, perm: tuple[int, ...], flip: int
) -> Function:
    """``g(x) = f(y)`` with ``y_i = x_perm[i] ^ flip_i``."""

    def move(table: int) -> int:
        out = 0
        for m in range(1 << f.n):
            y = 0
            for i, src in enumerate(perm):
                y |= (((m >> src) ^ (flip >> i)) & 1) << i
            if table >> y & 1:
                out |= 1 << m
        return out

    return Function(f.n, move(f.on), move(f.dc) if f.dc else 0)


def random_variant(rng: random.Random, f: Function) -> Function:
    perm = list(range(f.n))
    rng.shuffle(perm)
    return np_transform(f, tuple(perm), rng.getrandbits(f.n))


def bases(spec: tuple, salt: str) -> list[Function]:
    """The fixed base functions for ``spec`` ((inputs, count) pairs)."""
    rng = random.Random(f"{BASE_SEED}:{salt}")
    out: list[Function] = []
    for n, count in spec:
        for _ in range(count):
            out.append(random_function(rng, n, len(out) % DC_EVERY == DC_EVERY - 1))
    return out


class VariantSource:
    """Distinct NP variants of base functions, never repeating a truth
    table it has handed out."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.taken: set = set()

    def variant(self, base: Function) -> Function:
        for _ in range(1000):
            g = random_variant(self.rng, base)
            if g.key() not in self.taken:
                self.taken.add(g.key())
                return g
        raise RuntimeError(f"no fresh variant of a {base.n}-input base")


def seeded_rng(seed: int, trial: int, stream: str) -> random.Random:
    """The random stream ``stream`` of one trial of a seeded run."""
    return random.Random(f"{stream}:{seed}:{trial}")


def function_rng(trial: int) -> random.Random:
    """Picks the NP variants a trial synthesizes (seed-independent)."""
    return random.Random(f"{BASE_SEED}:variants:{trial}")
