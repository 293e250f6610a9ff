"""The reference chunk: fixed pure-Python work that measures how fast the
host runs the interpreter at the moment.

The host is shared: its speed for the same work drifts by a quarter and
more within minutes, in spells longer than a run.  A pass runs a chunk every
REF_EVERY_S seconds between its ops, and the run scales each pass's times
by REF_NOMINAL_S over the median chunk time of that pass.  A drift of host
speed then moves the chunk and the program alike and cancels, while a
change to the program moves only the program.

A chunk is none of the program's code.  It has two halves, because the
program slows less than tight arithmetic does when the host is busy:
row reduction of a fixed 12x12 matrix modulo 2^16 (small Python ints, list
indexing, modular arithmetic, as in the program's exact linear algebra),
and a walk along a pseudo-random cycle through an 8 MB array, which
leans on the memory caches as the program's object-heavy code does.  Scaled by the reference
chunk, pass times follow the program's own cost far more closely than raw
times do (perfbench/README.md, "Host noise").
"""

from __future__ import annotations

import functools
import time
from array import array

REF_NOMINAL_S = 0.008  # a chunk's median time on a 2-CPU x86 VM at 2.1 GHz
REF_EVERY_S = 0.2
SIZE = 12
MODULUS = 1 << 16
REDUCTIONS = 50
CYCLE_SLOTS = 1 << 20
CYCLE_STEPS = 40000


def _matrix():
    state, rows = 12345, []
    for _ in range(SIZE):
        row = []
        for _ in range(SIZE):
            state = (1103515245 * state + 12345) % (1 << 31)
            row.append(state % MODULUS)
        rows.append(row)
    return rows


def _cycle():
    """array whose slot i holds the next slot of one pseudo-random cycle
    through every slot: i -> 5i + 1 mod 2^20, a full-period generator, so
    the walk's steps have no stride a prefetcher could follow."""
    return array("l", ((5 * i + 1) % CYCLE_SLOTS for i in range(CYCLE_SLOTS)))


def _reduce(rows):
    """Row echelon form mod MODULUS, pivoting on the entry of least 2-adic
    valuation; returns the product of the pivots' valuations plus one."""
    rows = [list(row) for row in rows]
    rank, score = 0, 1
    for col in range(SIZE):
        best, best_v = None, 17
        for i in range(rank, SIZE):
            x = rows[i][col]
            if x:
                v = (x & -x).bit_length() - 1
                if v < best_v:
                    best, best_v = i, v
        if best is None:
            continue
        rows[rank], rows[best] = rows[best], rows[rank]
        pivot = rows[rank]
        unit = pow(pivot[col] >> best_v, -1, MODULUS)
        for i in range(rank + 1, SIZE):
            x = rows[i][col]
            if x:
                factor = ((x >> best_v) * unit) % MODULUS
                rows[i] = [(a - factor * b) % MODULUS for a, b in zip(rows[i], pivot)]
        score *= best_v + 1
        rank += 1
    return score


def _walk(slots, steps: int) -> int:
    i = 0
    for _ in range(steps):
        i = slots[i]
    return i


@functools.cache
def _inputs():
    matrix, cycle = _matrix(), _cycle()
    return matrix, cycle, (_reduce(matrix), _walk(cycle, CYCLE_STEPS))


def chunk() -> float:
    """Seconds one chunk took."""
    matrix, cycle, expected = _inputs()
    start = time.perf_counter()
    for _ in range(REDUCTIONS):
        score = _reduce(matrix)
    if (score, _walk(cycle, CYCLE_STEPS)) != expected:
        raise RuntimeError("reference chunk gave a different answer")
    return time.perf_counter() - start
