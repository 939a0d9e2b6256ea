"""Canonical set-partition labels (restricted growth strings).

A sequence of class labels is canonical when, ignoring frozen sentinel
values, each new label is exactly one larger than the largest label seen
so far, starting at 1.  Two label sequences describe the same partition
iff they normalize to the same canonical sequence.
"""
from __future__ import annotations

from typing import Iterable, Sequence, Tuple


def normalize_partition(labels: Sequence[int], frozen: Iterable[int] = ()) -> Tuple[int, ...]:
    """Relabel left to right with first-use order 1, 2, 3, ...

    Values in frozen pass through unchanged and do not consume labels.
    """
    frozen = frozenset(frozen)
    mapping = {}
    out = []
    nxt = 1
    for x in labels:
        if x in frozen:
            out.append(x)
            continue
        if x not in mapping:
            mapping[x] = nxt
            nxt += 1
        out.append(mapping[x])
    return tuple(out)


def is_canonical(labels: Sequence[int], frozen: Iterable[int] = ()) -> bool:
    return tuple(labels) == normalize_partition(labels, frozen)


def restricted_growth_strings(n: int, max_classes: int = None):
    """Yield all canonical label sequences of length n.

    With max_classes set, only partitions into at most that many classes
    are produced.  Order is lexicographic.
    """
    if n == 0:
        yield ()
        return
    cap = n if max_classes is None else min(max_classes, n)
    if cap < 1:
        return
    seq = [0] * n

    def rec(i, used):
        if i == n:
            yield tuple(seq)
            return
        hi = min(used + 1, cap)
        for c in range(1, hi + 1):
            seq[i] = c
            yield from rec(i + 1, max(used, c))

    yield from rec(0, 0)


def fragment_states(nv, frozen_vals, pair_only):
    """All canonical tuples over frozen values plus fragment ids.

    Ids appear at most twice; with pair_only, states where an id ended
    up unpaired are dropped (both endpoints of an open cycle must stay
    in the bag).
    """
    state = [0] * nv

    def rec(i, open_ids, closed_max):
        if i == nv:
            if not pair_only or not open_ids:
                yield tuple(state)
            return
        for v in frozen_vals:
            state[i] = v
            yield from rec(i + 1, open_ids, closed_max)
        for pid in sorted(open_ids):
            state[i] = pid
            yield from rec(i + 1, open_ids - {pid}, closed_max)
        fresh = closed_max + 1
        state[i] = fresh
        yield from rec(i + 1, open_ids | {fresh}, fresh)

    yield from rec(0, frozenset(), 0)


def count_partitions(n: int, max_classes: int = None) -> int:
    """Number of partitions of an n-set into at most max_classes classes.

    Sum of Stirling numbers of the second kind; the Bell number when
    max_classes is n or unset.
    """
    if n == 0:
        return 1
    cap = n if max_classes is None else min(max_classes, n)
    if cap < 1:
        return 0
    # S[k] = S(i, k) built rowwise: S(i, k) = k*S(i-1, k) + S(i-1, k-1)
    prev = [0] * (cap + 1)
    prev[0] = 1
    for _ in range(n):
        cur = [0] * (cap + 1)
        for k in range(1, cap + 1):
            cur[k] = k * prev[k] + prev[k - 1]
        prev = cur
    return sum(prev[1:])
