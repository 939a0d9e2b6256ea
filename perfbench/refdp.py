"""A fixed reference computation that measures the host's current speed.

The benchmark runs on shared machines whose speed drifts by half or more
for minutes at a time.  Wall-clock solve times taken minutes apart are
then not comparable, and no statistic over one run can fix that.  So a
run also times this small frontier DP, which is written in the same
style as pwdp's engine (tuples of partition labels, relabelled to
canonical form, merged into dicts), between solves, and reports solve
times in units of it, scaled back to seconds on a nominal host.

The code here belongs to the benchmark, not to the program under test:
a change to pwdp never changes the reference, so a faster program shows
as a faster ratio.
"""
from __future__ import annotations

import time

MOD = 1_000_003

# Sizes of the two references and the seconds each takes on a nominal
# host (a calm 2.1 GHz Xeon vCPU, Python 3.11).  Reported times are
# ratios to a reference times its nominal seconds.  The constants only
# scale the metrics; changing them breaks comparison with older runs.
SOLVE_REF = (7, 10)
SOLVE_REF_NOMINAL_S = 0.08
SETUP_REF = (6, 12)
SETUP_REF_NOMINAL_S = 0.03


def _canonical(labels):
    seen = {}
    out = []
    for x in labels:
        if x:
            if x not in seen:
                seen[x] = len(seen) + 1
            x = seen[x]
        out.append(x)
    return tuple(out)


def frontier_dp(width, length):
    """Count connectivity patterns of cell subsets of a width x length
    grid, modulo MOD, with a frontier of one label per column.  Returns
    (final table size, count), which never changes."""
    table = {(0,) * width: 1}
    for step in range(width * length):
        j = step % width
        nxt = {}
        for state, count in table.items():
            labels = list(state)
            labels[j] = 0
            key = _canonical(labels)
            nxt[key] = (nxt.get(key, 0) + count) % MOD
            up, left = state[j], state[j - 1] if j else 0
            labels = list(state)
            if up and left and up != left:
                labels = [left if x == up else x for x in labels]
            labels[j] = left or up or width + 1
            key = _canonical(labels)
            nxt[key] = (nxt.get(key, 0) + count) % MOD
        table = nxt
    return len(table), sum(table.values()) % MOD


def timed(size):
    """Seconds one reference DP of the given size takes now."""
    t0 = time.perf_counter()
    frontier_dp(*size)
    return time.perf_counter() - t0
