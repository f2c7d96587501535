"""A fixed pure-Python workload that gauges how fast the host runs right now.

A job's child runs it right after the timed job, and the benchmark scales
each job sample by the probe time next to it (see run.py): on a shared host
the speed of a vCPU drifts by a fifth or more over seconds to minutes, and
that drift, not the program, would otherwise set the spread between runs.
It imports nothing from spinbars, so a change to the program cannot change
the probe.  Its mix follows what spinbars spends time on: recursion over
partitions, tuple keys in dicts, sums of Fraction-valued terms and
big-integer row operations.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

N = 36  # matrix side of the elimination step
PARTITION_N = 50  # size of the strict partitions enumerated


def strict_partitions(n: int, largest: int) -> list[tuple[int, ...]]:
    """Partitions of n into distinct parts, each at most largest."""
    if n == 0:
        return [()]
    return [(k, *rest) for k in range(min(n, largest), 0, -1) for rest in strict_partitions(n - k, k - 1)]


def product(a: dict, b: dict) -> dict:
    """Product of two {(d, e): Fraction} sums, as spinbars' AlgNum keeps them."""
    out: dict = {}
    for (d1, e1), c1 in a.items():
        for (d2, e2), c2 in b.items():
            key = (d1 * d2, (e1 + e2) % 2)
            out[key] = out.get(key, Fraction(0)) + c1 * c2
    return {k: v for k, v in sorted(out.items()) if v}


def work() -> int:
    bars = strict_partitions(PARTITION_N, PARTITION_N)
    seen = {tuple(sorted(lam)) for lam in bars}
    nums = [{(d, i % 2): Fraction(i + d, d + 1) for d in (1, 2, 3, 5)} for i in range(24)]
    total: dict = {}
    for a in nums:
        for b in nums:
            for key, c in product(a, b).items():
                total[key] = total.get(key, Fraction(0)) + c
    table: dict = {}
    acc = Fraction(0)
    x = 1
    for i in range(12_000):
        x = (x * 6364136223846793005 + 1442695040888963407) % (1 << 64)
        key = tuple(sorted(((x >> s) & 15 for s in (0, 4, 8, 12, 16)), reverse=True))
        table[key] = table.get(key, 0) + 1
        if i % 8 == 0:
            acc += Fraction(x % 97 + 1, i + 1)
    rows = []
    for _ in range(N):
        row = []
        for _ in range(N):
            x = (x * 6364136223846793005 + 1442695040888963407) % (1 << 64)
            row.append(x >> 32)
        rows.append(row)
    previous = 1
    for k in range(N - 1):  # fraction-free (Bareiss) elimination
        pivot = rows[k][k] or 1
        for i in range(k + 1, N):
            factor = rows[i][k]
            rows[i] = [(a * pivot - b * factor) // previous for a, b in zip(rows[i], rows[k])]
        previous = pivot
    bits = max(abs(a).bit_length() for a in rows[-1])
    return len(seen) + len(total) + len(table) + acc.denominator.bit_length() + bits


def probe_s() -> float:
    """Seconds one pass of the fixed workload takes now.

    The cyclic collector is off during the pass (the workload makes no
    cycles), so the pass does not walk whatever heap its process holds.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        work()
        return time.perf_counter() - start
    finally:
        gc.enable()
